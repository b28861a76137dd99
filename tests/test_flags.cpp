/**
 * @file
 * The shared flag parser (common/flags.hpp): every malformed command
 * line or config file comes back as a typed error naming the flag,
 * key or line — never an exit, an exception or a value silently
 * truncated into its destination.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/flags.hpp"
#include "scratch_dir.hpp"

namespace fasttrack {
namespace {

/** A table shaped like the tools' own: each value kind, destinations
 *  of several widths, and the cross-flag rules the tools declare. */
struct Fixture
{
    bool csv = false;
    unsigned threads = 0;
    int idleMs = 30'000;
    std::uint32_t n = 8;
    std::uint64_t every = 0;
    std::uint64_t shard = 0;
    std::string dir;
    std::string remote;

    FlagTable table()
    {
        return {
            toggleFlag("--csv", "CSV output", [this] { csv = true; }),
            integerFlag("--threads", "N", "workers", threads, 1),
            integerFlag("--idle-timeout-ms", "N", "idle cutoff", idleMs,
                        1),
            integerFlag("--n", "N", "torus side", n, 1),
            integerFlag("--snapshot-every", "N", "snapshot period", every,
                        1)
                .needing("--snapshot-dir"),
            textFlag("--snapshot-dir", "DIR", "snapshot root", dir),
            textFlag("--remote", "LIST", "daemons",
                     [this](const std::string &list) {
                         if (list.find(':') == std::string::npos)
                             return std::string("missing port");
                         remote = list;
                         return std::string();
                     }),
            integerFlag("--shard-cycles", "N", "slice length", shard, 1,
                        1'000)
                .needing("--remote"),
        };
    }
};

std::optional<FlagError>
parse(Fixture &f, const std::vector<std::string> &args)
{
    std::optional<FlagError> result;
    EXPECT_NO_THROW(result = parseFlags(f.table(), args));
    return result;
}

/** Expect @p args to fail with @p code, naming @p flag. */
void
expectError(const std::vector<std::string> &args, FlagError::Code code,
            const std::string &flag)
{
    Fixture f;
    const std::optional<FlagError> error = parse(f, args);
    ASSERT_TRUE(error.has_value()) << args.front();
    EXPECT_EQ(error->code, code) << error->message;
    EXPECT_EQ(error->flag, flag) << error->message;
    EXPECT_NE(error->message.find(flag), std::string::npos)
        << error->message;
    EXPECT_EQ(error->message.find('\n'), std::string::npos)
        << error->message;
}

TEST(Flags, AppliesEveryKindOfValue)
{
    Fixture f;
    EXPECT_FALSE(parse(f, {"--csv", "--threads", "4", "--n", "16",
                           "--snapshot-dir", "snaps", "--snapshot-every",
                           "500", "--remote", "h:1", "--shard-cycles",
                           "1000", "--idle-timeout-ms", "2147483647"}));
    EXPECT_TRUE(f.csv);
    EXPECT_EQ(f.threads, 4u);
    EXPECT_EQ(f.n, 16u);
    EXPECT_EQ(f.dir, "snaps");
    EXPECT_EQ(f.every, 500u);
    EXPECT_EQ(f.remote, "h:1");
    EXPECT_EQ(f.shard, 1'000u);
    EXPECT_EQ(f.idleMs, 2'147'483'647);

    Fixture empty;
    EXPECT_FALSE(parse(empty, {}));
    EXPECT_EQ(empty.n, 8u);
}

TEST(Flags, MalformedNumbersAreTypedErrors)
{
    using Code = FlagError::Code;
    expectError({"--n", "abc"}, Code::notAnInteger, "--n");
    expectError({"--n", "5x"}, Code::notAnInteger, "--n");
    expectError({"--n", "-"}, Code::notAnInteger, "--n");
    expectError({"--n", "-3"}, Code::notAnInteger, "--n");
    expectError({"--n", "99999999999999999999999"}, Code::outOfRange,
                "--n");
    expectError({"--n", "0"}, Code::outOfRange, "--n");
    expectError({"--shard-cycles", "1001", "--remote", "h:1"},
                Code::outOfRange, "--shard-cycles");
}

TEST(Flags, ValuesBeyondTheDestinationTypeAreRejected)
{
    using Code = FlagError::Code;
    // Each of these used to wrap or truncate silently: 2^32 + 1
    // threads gave one worker, 3e9 ms became a negative poll timeout,
    // and a side of 2^32 + 2 swept a 2x2 torus.
    expectError({"--threads", "4294967297"}, Code::outOfRange,
                "--threads");
    expectError({"--idle-timeout-ms", "3000000000"}, Code::outOfRange,
                "--idle-timeout-ms");
    expectError({"--n", "4294967298"}, Code::outOfRange, "--n");
}

TEST(Flags, MissingEmptyAndUnknownAreTypedErrors)
{
    using Code = FlagError::Code;
    expectError({"--csv", "--threads"}, Code::missingValue, "--threads");
    expectError({"--snapshot-dir"}, Code::missingValue, "--snapshot-dir");
    expectError({"--snapshot-dir", ""}, Code::emptyValue,
                "--snapshot-dir");
    expectError({"--n", ""}, Code::emptyValue, "--n");
    expectError({"--bogus"}, Code::unknownFlag, "--bogus");
    expectError({"--csv", "extra"}, Code::unknownFlag, "extra");
    expectError({"--remote", "nohost"}, Code::rejected, "--remote");
}

TEST(Flags, CrossFlagRulesAreTypedErrors)
{
    using Code = FlagError::Code;
    expectError({"--snapshot-every", "5"}, Code::missingFlag,
                "--snapshot-dir");
    expectError({"--shard-cycles", "5"}, Code::missingFlag, "--remote");

    // ftd_client's rule: --remote must be given.
    Fixture f;
    FlagTable table = f.table();
    ASSERT_EQ(table[6].name, "--remote");
    table[6] = std::move(table[6]).mandatory();
    std::optional<FlagError> error;
    EXPECT_NO_THROW(error = parseFlags(table, {"--n", "4"}));
    ASSERT_TRUE(error.has_value());
    EXPECT_EQ(error->code, Code::missingFlag);
    EXPECT_EQ(error->flag, "--remote");
    EXPECT_EQ(error->message, "--remote is required");
}

TEST(Flags, ExcludedPairIsATypedError)
{
    // The Fig 15 benches' and run_experiment's rule: temporal shards
    // cannot also checkpoint or resume.
    Fixture f;
    FlagTable table = f.table();
    ASSERT_EQ(table[7].name, "--shard-cycles");
    table[7] = std::move(table[7]).excluding({"--snapshot-every"});
    std::optional<FlagError> error;
    EXPECT_NO_THROW(error = parseFlags(
                        table, {"--remote", "h:1", "--shard-cycles", "5",
                                "--snapshot-dir", "d",
                                "--snapshot-every", "5"}));
    ASSERT_TRUE(error.has_value());
    EXPECT_EQ(error->code, FlagError::Code::conflictingFlags);
    EXPECT_EQ(error->flag, "--shard-cycles");
    EXPECT_EQ(error->message,
              "--shard-cycles cannot be given with --snapshot-every");
    EXPECT_FALSE(parseFlags(table, {"--remote", "h:1", "--shard-cycles",
                                    "5"}));
    // The help wraps, so the rule's words may span two lines.
    EXPECT_NE(flagUsage("tool", table).find("--snapshot-every)"),
              std::string::npos);
}

TEST(Flags, UsageListsEveryRow)
{
    Fixture f;
    const std::string usage = flagUsage("tool", f.table(), "<file>");
    EXPECT_EQ(usage.rfind("usage: tool <file> [--csv] [--threads N]", 0),
              0u)
        << usage;
    for (const Flag &flag : f.table()) {
        std::string row = "\n  ";
        row += flag.name;
        EXPECT_NE(usage.find(row), std::string::npos) << flag.name;
    }
    EXPECT_NE(usage.find("(needs --snapshot-dir)"), std::string::npos);
}

/** A config table shaped like run_experiment's: integer rows, a text
 *  row read as a decimal and a plain text row. */
struct ConfigFixture
{
    std::uint32_t n = 8;
    std::uint32_t d = 2;
    double rate = 0.5;
    std::string name = "hoplite";

    FlagTable table()
    {
        return {
            integerFlag("n", "N", "torus side", n, 2, 16),
            integerFlag("d", "D", "express length", d, 1, 8),
            textFlag("rate", "R", "injection rate",
                     [this](const std::string &text) {
                         return readDecimal(text, 0.001, 1.0, rate)
                                    ? std::string("not a rate")
                                    : std::string();
                     }),
            textFlag("name", "NAME", "NoC kind", name),
        };
    }

    std::optional<FlagError> parse(const std::string &text)
    {
        std::istringstream in(text);
        std::optional<FlagError> result;
        EXPECT_NO_THROW(result = parseConfig(table(), in));
        return result;
    }
};

/** Expect config @p text to fail with @p code and a one-line message
 *  containing @p names. */
void
expectConfigError(const std::string &text, FlagError::Code code,
                  const std::string &names)
{
    ConfigFixture f;
    const std::optional<FlagError> error = f.parse(text);
    ASSERT_TRUE(error.has_value()) << text;
    EXPECT_EQ(error->code, code) << error->message;
    EXPECT_NE(error->message.find(names), std::string::npos)
        << error->message;
    EXPECT_EQ(error->message.find('\n'), std::string::npos)
        << error->message;
}

TEST(ConfigFile, ParsesTypedValues)
{
    ConfigFixture f;
    EXPECT_FALSE(f.parse("# comment line\n"
                         "n = 12\n"
                         "rate = 0.25   # trailing comment\n"
                         "\tname=ft-full\r\n"
                         "\n"));
    EXPECT_EQ(f.n, 12u);
    EXPECT_DOUBLE_EQ(f.rate, 0.25);
    EXPECT_EQ(f.name, "ft-full");
}

TEST(ConfigFile, FallbacksForMissingKeys)
{
    ConfigFixture f;
    EXPECT_FALSE(f.parse("n = 4\n"));
    EXPECT_EQ(f.n, 4u);
    EXPECT_EQ(f.d, 2u);
    EXPECT_DOUBLE_EQ(f.rate, 0.5);
    EXPECT_EQ(f.name, "hoplite");

    ConfigFixture empty;
    EXPECT_FALSE(empty.parse(""));
    EXPECT_EQ(empty.n, 8u);
}

TEST(ConfigFile, LaterKeysOverride)
{
    ConfigFixture f;
    EXPECT_FALSE(f.parse("n = 4\nn = 6\n"));
    EXPECT_EQ(f.n, 6u);
    // Only a key's last value is read: an earlier one is never
    // checked.
    ConfigFixture g;
    EXPECT_FALSE(g.parse("n = twelve\nname = a\nn = 6\nname = b\n"));
    EXPECT_EQ(g.n, 6u);
    EXPECT_EQ(g.name, "b");
}

TEST(ConfigFile, RejectsMalformedInput)
{
    using Code = FlagError::Code;
    expectConfigError("not a key value line\n", Code::malformedLine,
                      "config line 1 is not 'key = value': not a key");
    expectConfigError("# ok\n= 5\n", Code::malformedLine,
                      "config line 2");
    expectConfigError("n = 8\npacket = 16\n", Code::unknownFlag,
                      "config key 'packet'");
    // The argv spelling is not a key.
    expectConfigError("--n = 8\n", Code::unknownFlag, "config key '--n'");
    expectConfigError("n = twelve\n", Code::notAnInteger,
                      "config key 'n' needs an integer in [2, 16], got "
                      "'twelve'");
    expectConfigError("n = -8\n", Code::notAnInteger, "config key 'n'");
    expectConfigError("n = 4x\n", Code::notAnInteger, "config key 'n'");
    expectConfigError("n = 17\n", Code::outOfRange,
                      "config key 'n' must be in [2, 16], got '17'");
    expectConfigError("n =\n", Code::emptyValue, "config key 'n'");
    expectConfigError("rate = 7\n", Code::rejected,
                      "config key 'rate': not a rate");
}

TEST(ConfigFile, ReadsAFileAndNamesAnUnreadablePath)
{
    const ScratchDir dir("config");
    std::filesystem::create_directories(dir.path());
    const std::string path = dir.path() + "/run.cfg";
    std::ofstream(path) << "n = 16\nd = 4 # no newline at the end";
    ConfigFixture f;
    EXPECT_FALSE(parseConfigFile(f.table(), path));
    EXPECT_EQ(f.n, 16u);
    EXPECT_EQ(f.d, 4u);

    // A missing file, and a directory, which opens but cannot be read.
    for (const std::string &bad : {dir.path() + "/missing.cfg",
                                   dir.path()}) {
        const std::optional<FlagError> error =
            parseConfigFile(f.table(), bad);
        ASSERT_TRUE(error.has_value()) << bad;
        EXPECT_EQ(error->code, FlagError::Code::unreadableFile);
        EXPECT_NE(error->message.find(bad), std::string::npos)
            << error->message;
    }
}

} // namespace
} // namespace fasttrack
