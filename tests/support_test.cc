#include <gtest/gtest.h>

#include <chrono>
#include <limits>

#include "src/support/rng.h"
#include "src/support/status.h"
#include "src/support/str_util.h"
#include "src/support/timing.h"

namespace icarus {
namespace {

TEST(StrUtil, StrFormatBasics) {
  EXPECT_EQ(StrFormat("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(StrFormat("%.2f", 3.14159), "3.14");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

TEST(StrUtil, StrCat) {
  EXPECT_EQ(StrCat("a", 1, "b", 2.5), "a1b2.5");
  EXPECT_EQ(StrCat(), "");
}

TEST(StrUtil, JoinAndSplit) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  std::vector<std::string> parts = Split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(Split("nosep", ',').size(), 1u);
}

TEST(StrUtil, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  x y  "), "x y");
  EXPECT_EQ(StripWhitespace("\t\n"), "");
  EXPECT_EQ(StripWhitespace(""), "");
}

TEST(StrUtil, StartsEndsContains) {
  EXPECT_TRUE(StartsWith("icarus", "ica"));
  EXPECT_FALSE(StartsWith("ic", "ica"));
  EXPECT_TRUE(EndsWith("icarus", "rus"));
  EXPECT_TRUE(Contains("symbolic meta", "meta"));
  EXPECT_FALSE(Contains("abc", "z"));
}

TEST(StrUtil, ReplaceAll) {
  EXPECT_EQ(ReplaceAll("a.b.c", ".", "::"), "a::b::c");
  EXPECT_EQ(ReplaceAll("aaa", "aa", "b"), "ba");
  EXPECT_EQ(ReplaceAll("x", "", "y"), "x");
}

TEST(StrUtil, Indent) {
  EXPECT_EQ(Indent("a\nb", 2), "  a\n  b");
  EXPECT_EQ(Indent("a\n\nb", 2), "  a\n\n  b");
}

TEST(StrUtil, CountNonBlankLines) {
  EXPECT_EQ(CountNonBlankLines("a\n\n  \nb\nc"), 3);
  EXPECT_EQ(CountNonBlankLines(""), 0);
}

TEST(Status, OkAndError) {
  Status ok = Status::Ok();
  EXPECT_TRUE(ok.ok());
  Status err = Status::Error("boom");
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.message(), "boom");
}

TEST(Status, StatusOrValue) {
  StatusOr<int> v(7);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value(), 7);
  StatusOr<int> e(Status::Error("nope"));
  EXPECT_FALSE(e.ok());
  EXPECT_EQ(e.status().message(), "nope");
}

TEST(Timing, Stats) {
  SampleStats s = ComputeStats({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.median, 2.5);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  EXPECT_NEAR(s.stddev, 1.29099, 1e-4);
  SampleStats odd = ComputeStats({3.0, 1.0, 2.0});
  EXPECT_DOUBLE_EQ(odd.median, 2.0);
  EXPECT_EQ(ComputeStats({}).mean, 0.0);
}

TEST(Timing, DeadlineAfterSaturates) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point before = Clock::now();
  const Clock::time_point one = DeadlineAfter(1.0);
  EXPECT_GE(one, before + std::chrono::seconds(1));
  EXPECT_LT(one, Clock::now() + std::chrono::seconds(2));
  // Past the clock's range, or not a number: a deadline that never arrives.
  for (double seconds : {1e10, 1e300, std::numeric_limits<double>::infinity(),
                         std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_EQ(DeadlineAfter(seconds), Clock::time_point::max()) << seconds;
  }
  // A negative wait has already elapsed.
  const Clock::time_point negative = DeadlineAfter(-5.0);
  EXPECT_LE(negative, Clock::now());
}

TEST(Rng, DeterministicAndInRange) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = r.NextInRange(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    double d = r.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    EXPECT_LT(r.NextBelow(10), 10u);
  }
}

}  // namespace
}  // namespace icarus
