#include "TelemetryGuardCheck.h"

#include "FtCheckCommon.h"
#include "clang/AST/ASTContext.h"
#include "clang/ASTMatchers/ASTMatchFinder.h"
#include "clang/Lex/Lexer.h"

using namespace clang::ast_matchers;

namespace clang::tidy::ft {

void TelemetryGuardCheck::registerMatchers(MatchFinder *Finder)
{
    Finder->addMatcher(
        cxxMemberCallExpr(
            callee(cxxMethodDecl(
                hasName("emit"),
                ofClass(hasName(
                    "::fasttrack::telemetry::ThreadLog")))))
            .bind("emit"),
        this);
}

void TelemetryGuardCheck::check(const MatchFinder::MatchResult &Result)
{
    const auto *Emit = Result.Nodes.getNodeAs<CXXMemberCallExpr>("emit");
    if (!Emit)
        return;
    const SourceManager &SM = *Result.SourceManager;

    // Sanctioned when any frame of the expansion stack is the
    // FT_TELEM macro.
    SourceLocation Loc = Emit->getBeginLoc();
    while (Loc.isMacroID()) {
        const StringRef Macro =
            Lexer::getImmediateMacroName(Loc, SM, getLangOpts());
        if (Macro == "FT_TELEM")
            return;
        Loc = SM.getImmediateMacroCallerLoc(Loc);
    }

    if (!inCheckedCode(SM, Emit->getBeginLoc(),
                       /*SkipRngFiles=*/false))
        return;
    if (isSuppressed(SM, Emit->getBeginLoc(), "ft-telemetry-guard"))
        return;
    diag(SM.getExpansionLoc(Emit->getBeginLoc()),
         "bare ThreadLog::emit() call; route telemetry through "
         "FT_TELEM (compile-time gated) so the sink-free "
         "instantiation compiles it out");
}

} // namespace clang::tidy::ft
