/**
 * @file
 * The one parser of named inputs: every bench harness, the example
 * runner and both daemon tools declare their flags as a table and
 * parse argv against it, and run_experiment also reads its config
 * file's `key = value` lines through a table whose rows are the keys.
 *
 * A row holds a flag's name, the kind of value it takes, the range its
 * destination can hold, a setter and a help line, plus its cross-flag
 * rules: a flag it needs and flags it cannot be given with. parseFlags
 * returns a typed error and never exits or throws; flagUsage renders
 * the usage from the same rows, so the help cannot drift from what the
 * parser accepts.
 */

#ifndef FT_COMMON_FLAGS_HPP
#define FT_COMMON_FLAGS_HPP

#include <charconv>
#include <concepts>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <limits>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "common/logging.hpp"

namespace fasttrack {

/** What a flag takes after its name. */
enum class FlagKind
{
    toggle,
    /** A base-10 integer in the row's [min, max]. */
    integer,
    /** A non-empty string. */
    text,
};

/** One row of a flag table. */
struct Flag
{
    std::string name;
    FlagKind kind = FlagKind::toggle;
    /** Stand-in for the value in the usage ("N", "DIR"). */
    std::string value;
    std::string help;
    /** Applies one occurrence: integer flags read @p number, text flags
     *  @p text. Returns why the value is refused, or empty. */
    std::function<std::string(std::uint64_t number,
                              const std::string &text)>
        set;
    /** Accepted range of an integer flag: what its destination holds. */
    std::uint64_t min = 0;
    std::uint64_t max = 0;
    /** Another flag that must be given whenever this one is. */
    std::string needs;
    /** Flags that may not be given together with this one. */
    std::vector<std::string> excludes;
    /** This flag must be given. */
    bool required = false;

    Flag needing(std::string other) &&
    {
        needs = std::move(other);
        return std::move(*this);
    }
    Flag excluding(std::vector<std::string> others) &&
    {
        excludes = std::move(others);
        return std::move(*this);
    }
    Flag mandatory() &&
    {
        required = true;
        return std::move(*this);
    }
};

using FlagTable = std::vector<Flag>;

/** Why parseFlags refused a command line. */
struct FlagError
{
    enum class Code
    {
        unknownFlag,
        missingValue,
        emptyValue,
        /** Not a base-10 integer, or trailing characters after one. */
        notAnInteger,
        /** Overflows, or lies outside the destination's range. */
        outOfRange,
        /** The setter refused the value. */
        rejected,
        /** A needed or mandatory flag was not given. */
        missingFlag,
        /** Two flags that exclude each other were both given. */
        conflictingFlags,
        /** A config-file line that is not `key = value`. */
        malformedLine,
        /** The config file could not be read. */
        unreadableFile,
    };
    Code code = Code::unknownFlag;
    /** The flag or config key the error is about; empty when it is
     *  about a config-file line or the file itself. */
    std::string flag;
    /** One line that names the flag, key, line or path. */
    std::string message;
};

/** A flag that takes no value; @p set runs each time it is given. */
Flag toggleFlag(std::string name, std::string help,
                std::function<void()> set);

/** An integer flag handed to @p set, accepted in [min, max]. */
Flag integerFlag(std::string name, std::string value, std::string help,
                 std::uint64_t min, std::uint64_t max,
                 std::function<void(std::uint64_t)> set);

/** An integer flag stored into @p dst, accepted in [min, max]; max
 *  defaults to the largest value @p dst holds. */
template <std::integral T>
Flag
integerFlag(std::string name, std::string value, std::string help,
            T &dst, std::type_identity_t<T> min,
            std::type_identity_t<T> max = std::numeric_limits<T>::max())
{
    return integerFlag(std::move(name), std::move(value), std::move(help),
                       static_cast<std::uint64_t>(min),
                       static_cast<std::uint64_t>(max),
                       [&dst](std::uint64_t v) { dst = static_cast<T>(v); });
}

/** A text flag handed to @p set, which returns why it refuses the
 *  value, or empty. */
Flag textFlag(std::string name, std::string value, std::string help,
              std::function<std::string(const std::string &)> set);

/** A text flag stored into @p dst. */
Flag textFlag(std::string name, std::string value, std::string help,
              std::string &dst);

/** Apply @p args (argv without the program name) to @p table: the
 *  first error, or nullopt when every flag and rule holds. */
std::optional<FlagError> parseFlags(const FlagTable &table,
                                    const std::vector<std::string> &args);

/** Apply the `key = value` lines of @p in to @p table, whose rows are
 *  named by the bare key. '#' starts a comment, blank lines are
 *  skipped and a later line overrides an earlier one; each value then
 *  takes its row's parse, range check and setter, as an argv flag's
 *  does (cross-flag rules are argv's only). Every message names
 *  "config key '<key>'" or the line. */
std::optional<FlagError> parseConfig(const FlagTable &table,
                                     std::istream &in);

/** parseConfig over the file at @p path; an unreadable file is an
 *  error naming the path. */
std::optional<FlagError> parseConfigFile(const FlagTable &table,
                                         const std::string &path);

/** Usage rendered from @p table; @p positional names the arguments
 *  that precede the flags. */
std::string flagUsage(const std::string &prog, const FlagTable &table,
                      const std::string &positional = "");

/** parseFlags over argv[first..argc); on an error print it and the
 *  usage to stderr and exit 2 — the shared contract of every tool. */
void parseFlagsOrExit(const FlagTable &table, int argc, char **argv,
                      int first = 1, const std::string &positional = "");

/** Print "<prog>: <message>" and @p usage to stderr, then exit 2. */
[[noreturn]] void exitWithUsage(const char *prog, const std::string &message,
                                const std::string &usage);

/** Read all of @p text as a base-10 number in [min, max], the rule
 *  integer flags follow: why it is refused, or nullopt. */
template <typename T>
std::optional<FlagError::Code>
readDecimal(const std::string &text, T min, T max, T &out)
{
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, out);
    const bool whole = ec == std::errc() && ptr == end;
    if (ec == std::errc::result_out_of_range ||
        (whole && !(out >= min && out <= max)))
        return FlagError::Code::outOfRange;
    if (!whole)
        return FlagError::Code::notAnInteger;
    return std::nullopt;
}

/** A tool's positional arguments, read as numbers in order. */
struct Positionals
{
    int argc = 0;
    char **argv = nullptr;
    /** What the usage line shows after the program name. */
    std::string operands;

    /** Argument @p index by readDecimal, or @p fallback when absent. A
     *  bad value exits 2 with a line naming @p name, then the usage. */
    template <typename T>
    T number(int index, const std::string &name, T fallback,
             std::type_identity_t<T> min, std::type_identity_t<T> max) const
    {
        T value = fallback;
        if (index < argc && readDecimal<T>(argv[index], min, max, value))
            exitWithUsage(argv[0],
                          detail::concat(name, " must be a decimal in [",
                                         min, ", ", max, "], got '",
                                         argv[index], "'"),
                          flagUsage(argv[0], {}, operands));
        return value;
    }

    /** Exit 2 like number() when @p rule, why the value of argument
     *  @p name cannot be used (a NocConfig's validationError(), say),
     *  is not empty. */
    void check(const std::string &name, const std::string &rule) const
    {
        if (!rule.empty())
            exitWithUsage(argv[0], detail::concat(name, ": ", rule),
                          flagUsage(argv[0], {}, operands));
    }
};

} // namespace fasttrack

#endif // FT_COMMON_FLAGS_HPP
