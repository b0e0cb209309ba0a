#include <gtest/gtest.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>

#include <cstdint>
#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "util/flags.h"
#include "util/net.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/timer.h"

namespace gorder {
namespace {

TEST(RngTest, DeterministicFromSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(RngTest, UniformStaysInBounds) {
  Rng rng(7);
  for (int bound : {1, 2, 3, 10, 1000}) {
    for (int i = 0; i < 1000; ++i) {
      EXPECT_LT(rng.Uniform(bound), static_cast<std::uint64_t>(bound));
    }
  }
}

TEST(RngTest, UniformCoversRange) {
  Rng rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.Uniform(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    double x = rng.UniformDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(5);
  std::vector<int> v(100);
  for (int i = 0; i < 100; ++i) v[i] = i;
  auto original = v;
  rng.Shuffle(v);
  EXPECT_NE(v, original);  // astronomically unlikely to be identity
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

TEST(SplitMixTest, KnownFirstValueNonZero) {
  SplitMix64 sm(0);
  EXPECT_NE(sm.Next(), 0u);
}

TEST(TimerTest, MeasuresElapsed) {
  Timer t;
  volatile double x = 0;
  for (int i = 0; i < 100000; ++i) x = x + i;
  EXPECT_GE(t.Seconds(), 0.0);
  EXPECT_GE(t.Millis(), t.Seconds());  // millis is 1000x seconds
}

TEST(TableTest, FormatsNumbers) {
  EXPECT_EQ(TablePrinter::Num(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::Num(3.14159, 0), "3");
}

TEST(TableTest, FormatsDurations) {
  EXPECT_EQ(TablePrinter::Duration(0.004), "4ms");
  EXPECT_EQ(TablePrinter::Duration(3.0), "3.0s");
  EXPECT_EQ(TablePrinter::Duration(120.0), "2.0m");
  EXPECT_EQ(TablePrinter::Duration(7200.0), "2.0h");
}

TEST(TableTest, FormatsCounts) {
  EXPECT_EQ(TablePrinter::Count(999), "999");
  EXPECT_EQ(TablePrinter::Count(31e6), "31.0M");
  EXPECT_EQ(TablePrinter::Count(1.94e9), "1.94G");
}

TEST(TableTest, RowsPadToHeader) {
  TablePrinter t({"a", "b", "c"});
  t.AddRow({"1"});
  EXPECT_EQ(t.num_rows(), 1u);
}

TEST(FlagsTest, ParsesKeyValueAndBools) {
  const char* argv[] = {"prog", "--scale=2.5", "--name=pokec", "--csv",
                        "--iters=42"};
  Flags flags(5, const_cast<char**>(argv));
  EXPECT_DOUBLE_EQ(flags.GetDouble("scale", 1.0), 2.5);
  EXPECT_EQ(flags.GetString("name", ""), "pokec");
  EXPECT_TRUE(flags.GetBool("csv", false));
  EXPECT_EQ(flags.GetInt("iters", 0), 42);
  EXPECT_EQ(flags.GetInt("absent", 7), 7);
  EXPECT_FALSE(flags.Has("absent"));
}

TEST(FlagsTest, ExplicitFalse) {
  const char* argv[] = {"prog", "--verbose=false"};
  Flags flags(2, const_cast<char**>(argv));
  EXPECT_FALSE(flags.GetBool("verbose", true));
}

TEST(FlagsTest, ParsesIntList) {
  const char* argv[] = {"prog", "--threads=1,2,8"};
  Flags flags(2, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetIntList("threads", {4}),
            (std::vector<int>{1, 2, 8}));
  EXPECT_EQ(flags.GetIntList("absent", {1, 2}), (std::vector<int>{1, 2}));
  const char* single[] = {"prog", "--threads=4"};
  Flags f2(2, const_cast<char**>(single));
  EXPECT_EQ(f2.GetIntList("threads", {}), (std::vector<int>{4}));
}

TEST(FlagsDeathTest, RejectsTruncatedInteger) {
  // Historically `--threads=4x` silently parsed as 4; it must now fail
  // loudly, like unknown positional arguments do.
  const char* argv[] = {"prog", "--threads=4x"};
  Flags flags(2, const_cast<char**>(argv));
  EXPECT_EXIT(flags.GetInt("threads", 1), testing::ExitedWithCode(2),
              "flag --threads: '4x' is not a valid integer");
}

TEST(FlagsDeathTest, RejectsNonNumericInteger) {
  const char* argv[] = {"prog", "--iters=abc"};
  Flags flags(2, const_cast<char**>(argv));
  EXPECT_EXIT(flags.GetInt("iters", 1), testing::ExitedWithCode(2),
              "flag --iters: 'abc' is not a valid integer");
}

TEST(FlagsDeathTest, RejectsEmptyIntegerValue) {
  const char* argv[] = {"prog", "--iters="};
  Flags flags(2, const_cast<char**>(argv));
  EXPECT_EXIT(flags.GetInt("iters", 1), testing::ExitedWithCode(2),
              "not a valid integer");
}

TEST(FlagsDeathTest, RejectsTruncatedDouble) {
  const char* argv[] = {"prog", "--scale=0.5pt"};
  Flags flags(2, const_cast<char**>(argv));
  EXPECT_EXIT(flags.GetDouble("scale", 1.0), testing::ExitedWithCode(2),
              "flag --scale: '0.5pt' is not a valid number");
}

TEST(FlagsDeathTest, RejectsBadIntListElement) {
  const char* argv[] = {"prog", "--threads=1,2x,4"};
  Flags flags(2, const_cast<char**>(argv));
  EXPECT_EXIT(flags.GetIntList("threads", {}), testing::ExitedWithCode(2),
              "flag --threads: '2x' is not a valid integer");
}

TEST(FlagsDeathTest, RejectsEmptyIntListElement) {
  const char* argv[] = {"prog", "--threads=1,,4"};
  Flags flags(2, const_cast<char**>(argv));
  EXPECT_EXIT(flags.GetIntList("threads", {}), testing::ExitedWithCode(2),
              "not a valid integer");
}

// --mem-budget is read through GetIntInRange(1, INT64_MAX >> 20): a
// negative value used to wrap to a 16 EB budget that never spilled, and
// 0 silently became the smallest run buffer.
constexpr std::int64_t kMaxBudgetMb = INT64_MAX >> 20;

TEST(FlagsTest, IntInRangeAcceptsBoundsAndDefault) {
  const char* argv[] = {"prog", "--lo=1", "--hi=8796093022207"};
  Flags flags(3, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetIntInRange("lo", 256, 1, kMaxBudgetMb), 1);
  EXPECT_EQ(flags.GetIntInRange("hi", 256, 1, kMaxBudgetMb), kMaxBudgetMb);
  EXPECT_EQ(flags.GetIntInRange("mem-budget", 256, 1, kMaxBudgetMb), 256);
}

TEST(FlagsDeathTest, RejectsIntBelowRange) {
  const char* argv[] = {"prog", "--mem-budget=0", "--neg=-5"};
  Flags flags(3, const_cast<char**>(argv));
  EXPECT_EXIT(flags.GetIntInRange("mem-budget", 256, 1, kMaxBudgetMb),
              testing::ExitedWithCode(2),
              "flag --mem-budget: 0 is out of range .1, 8796093022207.");
  EXPECT_EXIT(flags.GetIntInRange("neg", 256, 1, kMaxBudgetMb),
              testing::ExitedWithCode(2),
              "flag --neg: -5 is out of range .1, 8796093022207.");
}

TEST(FlagsDeathTest, RejectsIntAboveRange) {
  // 2^43 MB is the first budget whose byte count overflows int64.
  const char* argv[] = {"prog", "--mem-budget=8796093022208"};
  Flags flags(2, const_cast<char**>(argv));
  EXPECT_EXIT(flags.GetIntInRange("mem-budget", 256, 1, kMaxBudgetMb),
              testing::ExitedWithCode(2),
              "flag --mem-budget: 8796093022208 is out of range");
}

TEST(ParseInt64Test, AcceptsWholeNumbersOnly) {
  std::int64_t v = 0;
  EXPECT_TRUE(ParseInt64("42", &v));
  EXPECT_EQ(v, 42);
  EXPECT_TRUE(ParseInt64("-7", &v));
  EXPECT_EQ(v, -7);
  EXPECT_FALSE(ParseInt64("", &v));
  EXPECT_FALSE(ParseInt64("4x", &v));
  EXPECT_FALSE(ParseInt64("abc", &v));
  EXPECT_FALSE(ParseInt64("99999999999999999999999", &v));  // overflow
  EXPECT_EQ(v, -7);  // untouched on failure
}

// Regression: GORDER_THREADS was parsed with std::atoi, so "4x" silently
// ran with 4 threads and "two" silently fell back to the hardware
// default — a typo'd env var quietly changed the experiment. Malformed
// or non-positive values must now be fatal, exactly like --threads.
TEST(ParallelEnvDeathTest, RejectsMalformedGorderThreads) {
  EXPECT_EXIT(
      {
        setenv("GORDER_THREADS", "4x", 1);
        SetNumThreads(0);  // forces re-resolution from the environment
      },
      testing::ExitedWithCode(2),
      "GORDER_THREADS: '4x' is not a positive integer");
  EXPECT_EXIT(
      {
        setenv("GORDER_THREADS", "0", 1);
        SetNumThreads(0);
      },
      testing::ExitedWithCode(2),
      "GORDER_THREADS: '0' is not a positive integer");
  EXPECT_EXIT(
      {
        setenv("GORDER_THREADS", "-3", 1);
        SetNumThreads(0);
      },
      testing::ExitedWithCode(2),
      "GORDER_THREADS: '-3' is not a positive integer");
}

// gorderd writes one small reply per request; with Nagle's algorithm
// on, a reply sent while the previous one is unacknowledged waited for
// the client's delayed ACK (a 1.9 ms point-read median against 3 us of
// server work). Accepted TCP sockets must come back with TCP_NODELAY.
TEST(NetTest, AcceptedTcpSocketHasNoDelay) {
  util::NetAddress addr;
  std::string error;
  ASSERT_TRUE(util::ParseNetAddress("tcp:0", &addr, &error)) << error;
  util::Socket listener, client, accepted;
  ASSERT_TRUE(util::ListenSocket(addr, &listener).ok);
  addr.port = listener.LocalPort();
  ASSERT_TRUE(util::ConnectSocket(addr, &client).ok);
  ASSERT_TRUE(util::AcceptSocket(listener, &accepted).ok);
  int nodelay = 0;
  socklen_t len = sizeof(nodelay);
  ASSERT_EQ(getsockopt(accepted.fd(), IPPROTO_TCP, TCP_NODELAY, &nodelay,
                       &len),
            0);
  EXPECT_EQ(nodelay, 1);
}

}  // namespace
}  // namespace gorder
