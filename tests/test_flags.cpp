/**
 * @file
 * The shared flag parser (common/flags.hpp): every malformed command
 * line comes back as a typed error naming the flag — never an exit,
 * an exception or a value silently truncated into its destination.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/flags.hpp"

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

} // namespace
} // namespace fasttrack
