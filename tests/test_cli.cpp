#include "common/cli.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

#include "common/parallel.hpp"

namespace dfsssp {
namespace {

Cli make(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return Cli(static_cast<int>(argv.size()), argv.data());
}

TEST(Cli, EqualsSyntax) {
  Cli cli = make({"--size=42", "--name=foo"});
  EXPECT_EQ(cli.get_int("size", 0), 42);
  EXPECT_EQ(cli.get("name", ""), "foo");
}

TEST(Cli, SpaceSyntax) {
  Cli cli = make({"--size", "7"});
  EXPECT_EQ(cli.get_int("size", 0), 7);
}

TEST(Cli, BareFlagIsTrue) {
  Cli cli = make({"--verbose"});
  EXPECT_TRUE(cli.get_bool("verbose", false));
  EXPECT_FALSE(cli.get_bool("quiet", false));
}

TEST(Cli, FallbacksWhenMissing) {
  Cli cli = make({});
  EXPECT_EQ(cli.get_int("n", 5), 5);
  EXPECT_DOUBLE_EQ(cli.get_double("x", 1.5), 1.5);
  EXPECT_EQ(cli.get("s", "dflt"), "dflt");
}

TEST(Cli, PositionalCollected) {
  Cli cli = make({"first", "--k=v", "second"});
  ASSERT_EQ(cli.positional().size(), 2U);
  EXPECT_EQ(cli.positional()[0], "first");
  EXPECT_EQ(cli.positional()[1], "second");
}

TEST(Cli, DoubleParsing) {
  Cli cli = make({"--rate=0.25"});
  EXPECT_DOUBLE_EQ(cli.get_double("rate", 0), 0.25);
}

TEST(Cli, BoolSpellings) {
  EXPECT_TRUE(make({"--a=1"}).get_bool("a", false));
  EXPECT_TRUE(make({"--a=yes"}).get_bool("a", false));
  EXPECT_TRUE(make({"--a=on"}).get_bool("a", false));
  EXPECT_FALSE(make({"--a=0"}).get_bool("a", true));
}

TEST(Cli, GetCountReadsWholeNumbersInRange) {
  EXPECT_EQ(make({"--events=80"}).get_count("events", 40), 80u);
  EXPECT_EQ(make({"--events", "7"}).get_count("events", 40), 7u);
  EXPECT_EQ(make({}).get_count("events", 40), 40u);
  EXPECT_EQ(make({"--n=4294967295"}).get_count("n", 1), 4294967295u);
  EXPECT_EQ(make({"--max-layers=16"}).get_count("max-layers", 8, 16), 16u);
}

// A lower bound of 0 admits 0 where it means something (dfroutectl: the
// daemon's layer budget, the server's tail cap, the journal's first
// record), and the range may span the whole u64.
TEST(Cli, GetCountTakesALowerBound) {
  EXPECT_EQ(make({"--max-layers=0"}).get_count("max-layers", 8, 16, 0), 0u);
  EXPECT_EQ(make({"--max-layers=16"}).get_count("max-layers", 0, 16, 0), 16u);
  EXPECT_EQ(make({"--max=0"}).get_count("max", 5, 4294967295u, 0), 0u);
  const std::uint64_t u64_max = std::numeric_limits<std::uint64_t>::max();
  EXPECT_EQ(make({"--from=18446744073709551615"})
                .get_count("from", 0, u64_max, 0),
            u64_max);
  for (const char* text : {"17", "256", "300", "-1"}) {
    const std::string arg = std::string("--max-layers=") + text;
    EXPECT_EXIT(make({arg.c_str()}).get_count("max-layers", 0, 16, 0),
                testing::ExitedWithCode(2),
                "--max-layers=.*: expected a whole number from 0 to 16")
        << text;
  }
  EXPECT_EXIT(make({"--from=18446744073709551616"})
                  .get_count("from", 0, u64_max, 0),
              testing::ExitedWithCode(2),
              "--from=.*: expected a whole number from 0 to "
              "18446744073709551615");
}

// Anything but a whole number in [1, max] exits 2 naming the flag: zero
// patterns average nothing into a NaN, strtoll reads text as 0, and a
// layer budget of 0 or 256 used to cast to 0 layers, 300 to 44.
TEST(Cli, GetCountExitsTwoNamingTheFlag) {
  for (const char* text : {"0", "-1", "abc", "5abc", "", " 5", "+5", "1.5",
                           "4294967296"}) {
    const std::string arg = std::string("--patterns=") + text;
    EXPECT_EXIT(make({arg.c_str()}).get_count("patterns", 100),
                testing::ExitedWithCode(2),
                "--patterns=.*: expected a whole number from 1 to 4294967295")
        << text;
  }
  for (const char* text : {"0", "17", "256", "300"}) {
    const std::string arg = std::string("--max-layers=") + text;
    EXPECT_EXIT(make({arg.c_str()}).get_count("max-layers", 8, 16),
                testing::ExitedWithCode(2),
                "--max-layers=.*: expected a whole number from 1 to 16")
        << text;
  }
}

// Every --threads flag reads get_count("threads", 0, kMaxThreads, 0): 0 is
// one thread per core, and anything else outside 0..256 exits 2 in the
// parser, before an ExecContext could start that many threads.
TEST(Cli, ThreadsAreBoundedBeforeAnyPoolStarts) {
  EXPECT_EQ(make({}).get_count("threads", 0, kMaxThreads, 0), 0u);
  EXPECT_EQ(make({"--threads=0"}).get_count("threads", 0, kMaxThreads, 0),
            0u);
  EXPECT_EQ(make({"--threads=256"}).get_count("threads", 0, kMaxThreads, 0),
            256u);
  for (const char* text : {"-1", "abc", "257", "100000", "4294967295"}) {
    const std::string arg = std::string("--threads=") + text;
    EXPECT_EXIT(make({arg.c_str()}).get_count("threads", 0, kMaxThreads, 0),
                testing::ExitedWithCode(2),
                "--threads=.*: expected a whole number from 0 to 256")
        << text;
  }
}

}  // namespace
}  // namespace dfsssp
