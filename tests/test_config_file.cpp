/**
 * @file
 * Tests for the key=value configuration parser.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>

#include "common/config_file.hpp"

namespace fasttrack {
namespace {

TEST(ConfigFile, ParsesTypedValues)
{
    std::istringstream is(
        "# comment line\n"
        "n = 8\n"
        "rate = 0.25   # trailing comment\n"
        "name = ft-full\n"
        "\n");
    const KeyValueFile kv = KeyValueFile::parse(is);
    EXPECT_EQ(kv.number<std::uint32_t>("n", 0, 2, 16), 8u);
    EXPECT_DOUBLE_EQ(kv.number<double>("rate", 0.0, 0.001, 1.0), 0.25);
    EXPECT_EQ(kv.getString("name"), "ft-full");
}

TEST(ConfigFile, FallbacksForMissingKeys)
{
    std::istringstream is("a = 1\n");
    const KeyValueFile kv = KeyValueFile::parse(is);
    EXPECT_EQ(kv.number<std::uint32_t>("missing", 42, 0, 10), 42u);
    EXPECT_DOUBLE_EQ(kv.number<double>("missing", 2.5, 0.0, 1.0), 2.5);
    EXPECT_EQ(kv.getString("missing", "x"), "x");
}

TEST(ConfigFile, LaterKeysOverride)
{
    std::istringstream is("a = 1\na = 2\n");
    EXPECT_EQ(KeyValueFile::parse(is).number<int>("a", 0, 0, 9), 2);
}

TEST(ConfigFileDeathTest, RejectsMalformedInput)
{
    {
        std::istringstream is("not a key value line\n");
        EXPECT_EXIT(KeyValueFile::parse(is),
                    ::testing::ExitedWithCode(1), "key = value");
    }
    {
        std::istringstream is("n = twelve\nm = -8\nrate = 7\nw = 4x\n");
        const KeyValueFile kv = KeyValueFile::parse(is);
        EXPECT_EXIT(kv.number<std::uint32_t>("n", 8, 2, 16),
                    ::testing::ExitedWithCode(2),
                    "config key 'n' must be a decimal in \\[2, 16\\], "
                    "got 'twelve'");
        EXPECT_EXIT(kv.number<std::uint32_t>("m", 8, 2, 16),
                    ::testing::ExitedWithCode(2), "config key 'm'");
        EXPECT_EXIT(kv.number<double>("rate", 0.5, 0.001, 1.0),
                    ::testing::ExitedWithCode(2), "config key 'rate'");
        EXPECT_EXIT(kv.number<std::uint32_t>("w", 1, 1, 64),
                    ::testing::ExitedWithCode(2), "config key 'w'");
        kv.check("n", "");
        EXPECT_EXIT(kv.check("n", "R must divide D"),
                    ::testing::ExitedWithCode(2),
                    "config key 'n': R must divide D");
    }
    EXPECT_EXIT(KeyValueFile::parseFile("/nonexistent/path.cfg"),
                ::testing::ExitedWithCode(1), "cannot open");
}

} // namespace
} // namespace fasttrack
