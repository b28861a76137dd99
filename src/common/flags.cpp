#include "common/flags.hpp"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>

#include "common/logging.hpp"

namespace fasttrack {

namespace {

using detail::concat;
using Code = FlagError::Code;

/** Column the help starts in, as the hand-written usages had it. */
constexpr std::size_t kHelpColumn = 23;
constexpr std::size_t kLineWidth = 79;

/** Index of the row called @p name, or table.size(). */
std::size_t
rowOf(const FlagTable &table, const std::string &name)
{
    return static_cast<std::size_t>(
        std::find_if(table.begin(), table.end(),
                     [&](const Flag &f) { return f.name == name; }) -
        table.begin());
}

/** Parse and apply one occurrence of @p flag with @p text as value;
 *  messages call the row @p name ("--n", or "config key 'n'"). */
std::optional<FlagError>
applyFlag(const Flag &flag, const std::string &text,
          const std::string &name)
{
    if (flag.kind != FlagKind::toggle && text.empty())
        return FlagError{Code::emptyValue, flag.name,
                         concat(name, " needs a non-empty value (",
                                flag.value, ")")};
    std::uint64_t number = 0;
    if (flag.kind == FlagKind::integer) {
        if (const auto why = readDecimal(text, flag.min, flag.max, number))
            return FlagError{
                *why, flag.name,
                concat(name,
                       *why == Code::outOfRange ? " must be in "
                                                : " needs an integer in ",
                       "[", flag.min, ", ", flag.max, "], got '", text,
                       "'")};
    }
    const std::string refused = flag.set(number, text);
    if (!refused.empty())
        return FlagError{Code::rejected, flag.name,
                         concat(name, ": ", refused)};
    return std::nullopt;
}

/** @p text without its leading and trailing blanks. */
std::string
strip(const std::string &text)
{
    const auto first = text.find_first_not_of(" \t\r");
    if (first == std::string::npos)
        return "";
    return text.substr(first, text.find_last_not_of(" \t\r") - first + 1);
}

/** "--name VALUE" as the usage shows it. */
std::string
flagForm(const Flag &flag)
{
    return flag.kind == FlagKind::toggle
               ? flag.name
               : concat(flag.name, " ", flag.value);
}

} // namespace

Flag
toggleFlag(std::string name, std::string help, std::function<void()> set)
{
    return {std::move(name), FlagKind::toggle, "", std::move(help),
            [on = std::move(set)](std::uint64_t, const std::string &) {
                on();
                return std::string();
            }};
}

Flag
integerFlag(std::string name, std::string value, std::string help,
            std::uint64_t min, std::uint64_t max,
            std::function<void(std::uint64_t)> set)
{
    return {std::move(name), FlagKind::integer, std::move(value),
            std::move(help),
            [store = std::move(set)](std::uint64_t number,
                                     const std::string &) {
                store(number);
                return std::string();
            },
            min, max};
}

Flag
textFlag(std::string name, std::string value, std::string help,
         std::function<std::string(const std::string &)> set)
{
    return {std::move(name), FlagKind::text, std::move(value),
            std::move(help),
            [take = std::move(set)](std::uint64_t,
                                    const std::string &text) {
                return take(text);
            }};
}

Flag
textFlag(std::string name, std::string value, std::string help,
         std::string &dst)
{
    return textFlag(std::move(name), std::move(value), std::move(help),
                    [&dst](const std::string &text) {
                        dst = text;
                        return std::string();
                    });
}

std::optional<FlagError>
parseFlags(const FlagTable &table, const std::vector<std::string> &args)
{
    std::vector<bool> given(table.size(), false);
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::size_t row = rowOf(table, args[i]);
        if (row == table.size())
            return FlagError{Code::unknownFlag, args[i],
                             concat("unknown flag '", args[i], "'")};
        const Flag &flag = table[row];
        given[row] = true;
        std::string text;
        if (flag.kind != FlagKind::toggle) {
            if (++i == args.size())
                return FlagError{Code::missingValue, flag.name,
                                 concat(flag.name, " needs a value (",
                                        flag.value, ")")};
            text = args[i];
        }
        if (auto failed = applyFlag(flag, text, flag.name))
            return failed;
    }
    for (std::size_t row = 0; row < table.size(); ++row) {
        const Flag &flag = table[row];
        if (flag.required && !given[row])
            return FlagError{Code::missingFlag, flag.name,
                             concat(flag.name, " is required")};
        const std::size_t needed = rowOf(table, flag.needs);
        if (given[row] && !flag.needs.empty() &&
            (needed == table.size() || !given[needed]))
            return FlagError{Code::missingFlag, flag.needs,
                             concat(flag.name, " needs ", flag.needs)};
        for (const std::string &other : flag.excludes) {
            const std::size_t excluded = rowOf(table, other);
            if (given[row] && excluded != table.size() && given[excluded])
                return FlagError{Code::conflictingFlags, flag.name,
                                 concat(flag.name,
                                        " cannot be given with ", other)};
        }
    }
    return std::nullopt;
}

std::optional<FlagError>
parseConfig(const FlagTable &table, std::istream &in)
{
    // The last value of each row, applied once every line is read so
    // that a later line overrides an earlier one.
    std::vector<std::optional<std::string>> values(table.size());
    std::string line;
    for (int line_no = 1; std::getline(in, line); ++line_no) {
        const std::string text = strip(line.substr(0, line.find('#')));
        if (text.empty())
            continue;
        const auto eq = text.find('=');
        const std::string key = strip(text.substr(0, eq));
        if (eq == std::string::npos || key.empty())
            return FlagError{Code::malformedLine, "",
                             concat("config line ", line_no,
                                    " is not 'key = value': ", text)};
        const std::size_t row = rowOf(table, key);
        if (row == table.size())
            return FlagError{Code::unknownFlag, key,
                             concat("unknown config key '", key,
                                    "' on line ", line_no)};
        values[row] = strip(text.substr(eq + 1));
    }
    for (std::size_t row = 0; row < table.size(); ++row) {
        if (!values[row])
            continue;
        const std::string name = concat("config key '", table[row].name,
                                        "'");
        if (auto failed = applyFlag(table[row], *values[row], name))
            return failed;
    }
    return std::nullopt;
}

std::optional<FlagError>
parseConfigFile(const FlagTable &table, const std::string &path)
{
    std::ifstream in(path);
    auto failed = in ? parseConfig(table, in) : std::nullopt;
    // Read to its end unless a line was refused: a missing file or a
    // directory stops short.
    if (!failed && !in.eof())
        return FlagError{Code::unreadableFile, "",
                         concat("cannot read config file '", path, "'")};
    return failed;
}

std::string
flagUsage(const std::string &prog, const FlagTable &table,
          const std::string &positional)
{
    std::string out = concat("usage: ", prog);
    if (!positional.empty())
        out += concat(" ", positional);
    for (const Flag &flag : table)
        out += flag.required ? concat(" ", flagForm(flag))
                             : concat(" [", flagForm(flag), "]");
    out += '\n';
    for (const Flag &flag : table) {
        // Help words wrapped into their column; a form too long for
        // the gap puts the help on the next line.
        const std::string form = concat("  ", flagForm(flag));
        std::string help = flag.help;
        if (!flag.needs.empty())
            help += concat(" (needs ", flag.needs, ")");
        for (std::size_t i = 0; i < flag.excludes.size(); ++i)
            help += concat(i == 0 ? " (not with " : ", ", flag.excludes[i],
                           i + 1 == flag.excludes.size() ? ")" : "");
        std::istringstream words(help);
        out += form;
        std::size_t column =
            form.size() < kHelpColumn ? form.size() : kLineWidth;
        for (std::string word; words >> word;) {
            if (column + 1 + word.size() > kLineWidth) {
                out += concat("\n", std::string(kHelpColumn, ' '), word);
                column = kHelpColumn + word.size();
                continue;
            }
            const std::size_t gap =
                column < kHelpColumn ? kHelpColumn - column : 1;
            out += concat(std::string(gap, ' '), word);
            column += gap + word.size();
        }
        out += '\n';
    }
    return out;
}

void
parseFlagsOrExit(const FlagTable &table, int argc, char **argv, int first,
                 const std::string &positional)
{
    const std::vector<std::string> args(argv + std::min(first, argc),
                                        argv + argc);
    if (const auto failed = parseFlags(table, args))
        exitWithUsage(argv[0], failed->message,
                      flagUsage(argv[0], table, positional));
}

void
exitWithUsage(const char *prog, const std::string &message,
              const std::string &usage)
{
    std::cerr << prog << ": " << message << "\n" << usage;
    std::exit(2);
}

} // namespace fasttrack
