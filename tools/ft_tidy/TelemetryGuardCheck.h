/**
 * ft-telemetry-guard: trace events may only be emitted through the
 * FT_TELEM macro (src/telemetry/sink.hpp). A bare ThreadLog::emit()
 * call compiles telemetry unconditionally into its call site,
 * defeating the zero-overhead contract that the sink-free stepping
 * instantiation contains no telemetry code at all.
 *
 * The check walks the macro-expansion stack of each emit() call; any
 * enclosing FT_TELEM expansion sanctions it. Suppress a
 * deliberate direct call (e.g. in telemetry's own tests) with
 * `// ft-lint: allow(ft-telemetry-guard)`.
 */

#ifndef FT_TOOLS_FT_TIDY_TELEMETRYGUARDCHECK_H
#define FT_TOOLS_FT_TIDY_TELEMETRYGUARDCHECK_H

#include "clang-tidy/ClangTidyCheck.h"

namespace clang::tidy::ft {

class TelemetryGuardCheck : public ClangTidyCheck
{
  public:
    TelemetryGuardCheck(StringRef Name, ClangTidyContext *Context)
        : ClangTidyCheck(Name, Context)
    {
    }
    bool isLanguageVersionSupported(const LangOptions &LangOpts) const
        override
    {
        return LangOpts.CPlusPlus;
    }
    void registerMatchers(ast_matchers::MatchFinder *Finder) override;
    void check(const ast_matchers::MatchFinder::MatchResult &Result)
        override;
};

} // namespace clang::tidy::ft

#endif // FT_TOOLS_FT_TIDY_TELEMETRYGUARDCHECK_H
