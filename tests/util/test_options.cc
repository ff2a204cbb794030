/** @file Unit tests for util/options.hh. */

#include "util/options.hh"

#include <gtest/gtest.h>

namespace specfetch {
namespace {

OptionParser
makeParser()
{
    OptionParser opts("prog", "test parser");
    opts.addString("name", "default", "a string");
    opts.addCount("budget", 1000, "a count");
    opts.addSize("cache", 8192, "a size");
    opts.addDouble("ratio", 0.5, "a double");
    opts.addFlag("verbose", "a flag");
    return opts;
}

TEST(Options, DefaultsApply)
{
    OptionParser opts = makeParser();
    const char *argv[] = {"prog"};
    ASSERT_TRUE(opts.parse(1, argv));
    EXPECT_EQ(opts.getString("name"), "default");
    EXPECT_EQ(opts.getCount("budget"), 1000u);
    EXPECT_EQ(opts.getSize("cache"), 8192u);
    EXPECT_DOUBLE_EQ(opts.getDouble("ratio"), 0.5);
    EXPECT_FALSE(opts.getFlag("verbose"));
    EXPECT_FALSE(opts.wasSet("name"));
}

TEST(Options, EqualsSyntax)
{
    OptionParser opts = makeParser();
    const char *argv[] = {"prog", "--name=zed", "--budget=2K",
                          "--cache=32K", "--ratio=0.25"};
    ASSERT_TRUE(opts.parse(5, argv));
    EXPECT_EQ(opts.getString("name"), "zed");
    EXPECT_EQ(opts.getCount("budget"), 2000u);
    EXPECT_EQ(opts.getSize("cache"), 32768u);
    EXPECT_DOUBLE_EQ(opts.getDouble("ratio"), 0.25);
    EXPECT_TRUE(opts.wasSet("name"));
}

TEST(Options, SpaceSyntax)
{
    OptionParser opts = makeParser();
    const char *argv[] = {"prog", "--name", "abc"};
    ASSERT_TRUE(opts.parse(3, argv));
    EXPECT_EQ(opts.getString("name"), "abc");
}

TEST(Options, BareFlag)
{
    OptionParser opts = makeParser();
    const char *argv[] = {"prog", "--verbose"};
    ASSERT_TRUE(opts.parse(2, argv));
    EXPECT_TRUE(opts.getFlag("verbose"));
}

TEST(Options, FlagWithValue)
{
    OptionParser opts = makeParser();
    const char *argv[] = {"prog", "--verbose=false"};
    ASSERT_TRUE(opts.parse(2, argv));
    EXPECT_FALSE(opts.getFlag("verbose"));
}

TEST(Options, Positionals)
{
    OptionParser opts = makeParser();
    const char *argv[] = {"prog", "one", "--verbose", "two"};
    ASSERT_TRUE(opts.parse(4, argv));
    ASSERT_EQ(opts.positional().size(), 2u);
    EXPECT_EQ(opts.positional()[0], "one");
    EXPECT_EQ(opts.positional()[1], "two");
}

TEST(Options, UnknownOptionFails)
{
    OptionParser opts = makeParser();
    const char *argv[] = {"prog", "--bogus=1"};
    EXPECT_FALSE(opts.parse(2, argv));
    // A bare unknown name is unknown too, last on the line or not.
    OptionParser bare = makeParser();
    const char *bareArgv[] = {"prog", "--bogus"};
    EXPECT_FALSE(bare.parse(2, bareArgv));
}

TEST(Options, BadCountFails)
{
    OptionParser opts = makeParser();
    const char *argv[] = {"prog", "--budget=soon"};
    EXPECT_FALSE(opts.parse(2, argv));
}

TEST(Options, MissingValueFails)
{
    OptionParser opts = makeParser();
    const char *argv[] = {"prog", "--name"};
    EXPECT_FALSE(opts.parse(2, argv));
}

TEST(Options, HelpReturnsFalse)
{
    OptionParser opts = makeParser();
    const char *argv[] = {"prog", "--help"};
    EXPECT_FALSE(opts.parse(2, argv));
}

TEST(Options, HelpTextMentionsAllOptions)
{
    OptionParser opts = makeParser();
    std::string help = opts.helpText();
    for (const char *name : {"name", "budget", "cache", "ratio",
                             "verbose", "help"}) {
        EXPECT_NE(help.find(name), std::string::npos) << name;
    }
}

} // namespace
} // namespace specfetch
