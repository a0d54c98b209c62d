#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "src/support/arena.h"
#include "src/support/name_table.h"
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

TEST(Arena, AlignsKeepsAndCopies) {
  Arena arena;
  std::vector<void*> small;
  for (int i = 0; i < 5000; ++i) {  // Several standard blocks' worth.
    auto* p = static_cast<uint64_t*>(arena.Allocate(sizeof(uint64_t), alignof(uint64_t)));
    ASSERT_EQ(reinterpret_cast<uintptr_t>(p) % alignof(uint64_t), 0u);
    *p = static_cast<uint64_t>(i);
    small.push_back(p);
    arena.Allocate(3, 1);  // Misaligns the next request.
  }
  // A request bigger than a quarter block gets a block of its own and
  // leaves the current block in use.
  const std::string big(Arena::kBlockBytes, 'x');
  std::string_view big_copy = arena.Copy(big);
  auto* after = static_cast<uint64_t*>(arena.Allocate(sizeof(uint64_t), alignof(uint64_t)));
  *after = 7;
  for (int i = 0; i < 5000; ++i) {
    EXPECT_EQ(*static_cast<uint64_t*>(small[static_cast<size_t>(i)]), static_cast<uint64_t>(i));
  }
  EXPECT_EQ(big_copy, big);
  EXPECT_NE(big_copy.data(), big.data());
  EXPECT_TRUE(arena.Copy(std::string_view()).empty());
  const int items[] = {1, 2, 3};
  std::span<int> copied = arena.Copy(std::span<const int>(items));
  ASSERT_EQ(copied.size(), 3u);
  EXPECT_EQ(copied[2], 3);
  EXPECT_NE(copied.data(), items);
}

TEST(Arena, ArenasOnSeveralThreadsShareTheBlockCache) {
  // Every arena takes its standard blocks from, and gives them back to, one
  // process-wide cache; the batch label runs this under the thread
  // sanitizer.
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([t] {
      for (int round = 0; round < 20; ++round) {
        Arena arena;
        std::vector<int64_t*> written;
        for (int i = 0; i < 3000; ++i) {  // About three standard blocks.
          auto* p = static_cast<int64_t*>(arena.Allocate(64, alignof(int64_t)));
          *p = t * 10000 + i;
          written.push_back(p);
        }
        for (int i = 0; i < 3000; ++i) {
          EXPECT_EQ(*written[static_cast<size_t>(i)], t * 10000 + i);
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
}

TEST(NameTable, InsertsFindsAndRefusesDuplicates) {
  std::vector<std::string> names;
  for (int i = 0; i < 300; ++i) {
    names.push_back("Name::n" + std::to_string(i));
  }
  std::vector<int> entries(names.size());
  NameTable<int> table;
  EXPECT_EQ(table.Find("Name::n0"), nullptr);
  for (size_t i = 0; i < names.size(); ++i) {  // Grows past its first size.
    EXPECT_TRUE(table.Insert(names[i], &entries[i]));
  }
  EXPECT_FALSE(table.Insert(names[7], &entries[0]));
  EXPECT_EQ(table.size(), names.size());
  for (size_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ(table.Find(std::string_view(names[i])), &entries[i]);
  }
  EXPECT_EQ(table.Find("Name::n300"), nullptr);
  table.Clear();
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.Find(names[7]), nullptr);
  table.Reserve(1000);
  EXPECT_TRUE(table.Insert(names[7], &entries[7]));
  EXPECT_EQ(table.Find(names[7]), &entries[7]);
}

}  // namespace
}  // namespace icarus
