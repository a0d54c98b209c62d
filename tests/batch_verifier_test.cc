// BatchVerifier determinism and deadline tests: the parallel driver must
// produce the same verdicts as the serial Verifier on every platform
// generator (including the 6 buggy/fixed study pairs), preserve input order,
// reproduce the verdict pin (each unit's outcome, paths and queries), and
// degrade gracefully to INCONCLUSIVE when budgets or the fleet deadline
// bite.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/platform/platform.h"
#include "src/support/failpoint.h"
#include "src/support/str_util.h"
#include "src/sym/cache_store.h"
#include "src/verifier/batch_verifier.h"
#include "src/verifier/verdict_store.h"
#include "src/verifier/verifier.h"

namespace icarus::verifier {
namespace {

class BatchVerifierTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    StatusOr<std::unique_ptr<platform::Platform>> loaded = platform::Platform::Load();
    ASSERT_TRUE(loaded.ok()) << loaded.status().message();
    platform_ = loaded.take().release();
  }

  void SetUp() override {
    ASSERT_NE(platform_, nullptr) << "platform failed to load";
  }
  static void TearDownTestSuite() {
    delete platform_;
    platform_ = nullptr;
  }

  // Serial reference outcome via the single-generator driver, no cache.
  static Outcome SerialOutcome(const std::string& name) {
    Verifier verifier(platform_);
    StatusOr<VerifyReport> report = verifier.Verify(name);
    if (!report.ok()) {
      return Outcome::kError;
    }
    if (!report.value().meta.violations.empty()) {
      return Outcome::kRefuted;
    }
    if (report.value().inconclusive) {
      return Outcome::kInconclusive;
    }
    return Outcome::kVerified;
  }

  static platform::Platform* platform_;
};

platform::Platform* BatchVerifierTest::platform_ = nullptr;

// The verdict pin: every unit's outcome, explored paths and solver queries
// as `icarus verify-all --serial` prints them, in platform order. Paths and
// queries are deterministic (exploration backtracks in a fixed order, and a
// cache hit still counts as a query), so any change that moves one of them, in the
// solver, the executor or the platform DSL, shows here first.
struct PinnedUnit {
  const char* generator;
  Outcome outcome;
  int paths;
  int64_t queries;
};

constexpr PinnedUnit kVerdictPin[] = {
    {"tryAttachCompareNullUndefined", Outcome::kVerified, 27, 52},
    {"tryAttachCompareInt32", Outcome::kVerified, 25, 72},
    {"tryAttachCompareStrictDifferentTypes", Outcome::kVerified, 181, 369},
    {"tryAttachDenseElement", Outcome::kVerified, 10, 25},
    {"tryAttachGetElemNativeFixedSlot", Outcome::kVerified, 9, 23},
    {"tryAttachArgumentsObjectArg", Outcome::kVerified, 12, 30},
    {"tryAttachNativeGetPropDynamicSlot", Outcome::kVerified, 6, 16},
    {"tryAttachNativeGetPropFixedSlot", Outcome::kVerified, 6, 15},
    {"tryAttachObjectLength", Outcome::kVerified, 6, 16},
    {"tryAttachInt32Add", Outcome::kVerified, 6, 17},
    {"tryAttachInt32Sub", Outcome::kVerified, 6, 17},
    {"tryAttachInt32Mul", Outcome::kVerified, 9, 26},
    {"tryAttachInt32Div", Outcome::kVerified, 8, 23},
    {"tryAttachInt32Mod", Outcome::kVerified, 7, 21},
    {"tryAttachInt32Bitwise", Outcome::kVerified, 10, 42},
    {"tryAttachInt32Negation", Outcome::kVerified, 6, 16},
    {"tryAttachInt32Not", Outcome::kVerified, 3, 10},
    {"tryAttachStringLength", Outcome::kVerified, 3, 8},
    {"tryAttachCompareString", Outcome::kVerified, 10, 22},
    {"tryAttachCompareObject", Outcome::kVerified, 10, 22},
    {"tryAttachCompareSymbol", Outcome::kVerified, 10, 22},
    {"tryAttachInt32MinMax", Outcome::kVerified, 9, 36},
    {"tryAttachToPropertyKeyInt32", Outcome::kVerified, 3, 8},
    {"tryAttachToPropertyKeyNumber", Outcome::kVerified, 5, 17},
    {"tryAttachToPropertyKeyString", Outcome::kVerified, 3, 5},
    {"tryAttachToPropertyKeySymbol", Outcome::kVerified, 3, 5},
    {"bug1451976_buggy", Outcome::kRefuted, 2, 3},
    {"bug1451976_fixed", Outcome::kVerified, 4, 14},
    {"bug1471361_buggy", Outcome::kRefuted, 4, 14},
    {"bug1471361_fixed", Outcome::kVerified, 4, 14},
    {"bug1502143_buggy", Outcome::kRefuted, 7, 17},
    {"bug1502143_fixed", Outcome::kVerified, 8, 20},
    {"bug1651732_buggy", Outcome::kRefuted, 6, 14},
    {"bug1651732_fixed", Outcome::kVerified, 9, 21},
    {"bug1654947_buggy", Outcome::kRefuted, 4, 12},
    {"bug1654947_fixed", Outcome::kVerified, 4, 15},
    {"bug1685925_buggy", Outcome::kRefuted, 12, 31},
    {"bug1685925_fixed", Outcome::kVerified, 9, 23},
};

void ExpectMatchesVerdictPin(const BatchReport& report) {
  ASSERT_EQ(report.results.size(), std::size(kVerdictPin));
  int paths = 0;
  int64_t queries = 0;
  for (size_t i = 0; i < report.results.size(); ++i) {
    const GeneratorResult& r = report.results[i];
    const PinnedUnit& pin = kVerdictPin[i];
    ASSERT_EQ(r.generator, pin.generator);
    EXPECT_EQ(r.outcome, pin.outcome) << pin.generator;
    EXPECT_EQ(r.report.meta.paths_explored, pin.paths) << pin.generator;
    EXPECT_EQ(r.report.meta.solver_queries, pin.queries) << pin.generator;
    paths += r.report.meta.paths_explored;
    queries += r.report.meta.solver_queries;
  }
  EXPECT_EQ(paths, 466);
  EXPECT_EQ(queries, 1133);
}

TEST_F(BatchVerifierTest, ParallelVerdictsMatchSerialOnAllGenerators) {
  // The acceptance bar of the batch driver: `--jobs 4` must be a pure
  // performance knob, never a semantic one.
  BatchVerifier batch(platform_);
  BatchOptions opts;
  opts.jobs = 4;
  opts.use_cache = true;
  StatusOr<BatchReport> report_or = batch.VerifyEverything(opts);
  ASSERT_TRUE(report_or.ok()) << report_or.status().message();
  BatchReport report = report_or.take();

  ASSERT_FALSE(report.results.empty());
  EXPECT_FALSE(report.deadline_hit);
  for (const GeneratorResult& r : report.results) {
    EXPECT_EQ(r.outcome, SerialOutcome(r.generator)) << r.generator;
  }
  // The platform declares no broken-by-default generators: everything is
  // either verified or a deliberately planted counterexample.
  EXPECT_EQ(report.NumWithOutcome(Outcome::kError), 0);
  EXPECT_EQ(report.NumWithOutcome(Outcome::kInconclusive), 0);
  EXPECT_EQ(report.NumWithOutcome(Outcome::kRefuted),
            static_cast<int>(platform::Bugs().size()));
  // Re-solved prefix queries across paths guarantee cache traffic.
  EXPECT_GT(report.cache.lookups(), 0);
  EXPECT_GT(report.cache.hits, 0);
  // With the shared cache, paths and queries are still the serial pin's.
  ExpectMatchesVerdictPin(report);
}

TEST_F(BatchVerifierTest, BuggyPairsRefutedFixedPairsVerified) {
  std::vector<std::string> names;
  for (const platform::BugDef& bug : platform::Bugs()) {
    names.push_back(StrCat("bug", bug.id, "_buggy"));
    names.push_back(StrCat("bug", bug.id, "_fixed"));
  }
  BatchVerifier batch(platform_);
  BatchOptions opts;
  opts.jobs = 4;
  StatusOr<BatchReport> report_or = batch.VerifyAll(names, opts);
  ASSERT_TRUE(report_or.ok()) << report_or.status().message();
  BatchReport report = report_or.take();

  ASSERT_EQ(report.results.size(), names.size());
  for (size_t i = 0; i < names.size(); ++i) {
    // Rows come back in input order regardless of scheduling.
    EXPECT_EQ(report.results[i].generator, names[i]);
    Outcome want = (i % 2 == 0) ? Outcome::kRefuted : Outcome::kVerified;
    EXPECT_EQ(report.results[i].outcome, want) << names[i];
  }
}

TEST_F(BatchVerifierTest, SingleJobNoCacheMatchesParallelCached) {
  // Same fleet through both extreme configurations.
  std::vector<std::string> names;
  for (const platform::GeneratorInfo& info : platform::Fig12Generators()) {
    names.push_back(info.function);
  }
  BatchVerifier batch(platform_);

  BatchOptions serial;
  serial.jobs = 1;
  serial.use_cache = false;
  BatchReport serial_report = batch.VerifyAll(names, serial).take();
  EXPECT_EQ(serial_report.jobs, 1);
  EXPECT_EQ(serial_report.cache.lookups(), 0);

  BatchOptions parallel;
  parallel.jobs = 4;
  parallel.use_cache = true;
  BatchReport parallel_report = batch.VerifyAll(names, parallel).take();

  ASSERT_EQ(serial_report.results.size(), parallel_report.results.size());
  for (size_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ(serial_report.results[i].outcome, parallel_report.results[i].outcome)
        << names[i];
  }
}

TEST_F(BatchVerifierTest, MoreJobsThanUnitsReturnsTheSerialRowsInOrder) {
  // Sixteen jobs over three units, of which only three run: the rows are the
  // serial run's, in input order.
  const std::vector<std::string> names = {"bug1685925_buggy", "tryAttachInt32Add",
                                          "tryAttachCompareInt32"};
  BatchVerifier batch(platform_);
  BatchOptions serial;
  serial.jobs = 1;
  serial.use_cache = false;
  BatchReport serial_report = batch.VerifyAll(names, serial).take();
  BatchOptions wide;
  wide.jobs = 16;
  wide.use_cache = false;
  BatchReport wide_report = batch.VerifyAll(names, wide).take();
  EXPECT_EQ(wide_report.jobs, 16);
  ASSERT_EQ(wide_report.results.size(), names.size());
  ASSERT_EQ(serial_report.results.size(), names.size());
  for (size_t i = 0; i < names.size(); ++i) {
    const GeneratorResult& want = serial_report.results[i];
    const GeneratorResult& got = wide_report.results[i];
    EXPECT_EQ(got.generator, names[i]);
    EXPECT_EQ(got.outcome, want.outcome) << names[i];
    EXPECT_EQ(got.report.meta.paths_explored, want.report.meta.paths_explored) << names[i];
    EXPECT_EQ(got.report.meta.solver_queries, want.report.meta.solver_queries) << names[i];
  }
}

TEST_F(BatchVerifierTest, SerialRunMatchesTheVerdictPin) {
  BatchVerifier batch(platform_);
  BatchOptions serial;  // `verify-all --serial`.
  serial.jobs = 1;
  serial.use_cache = false;
  StatusOr<BatchReport> report = batch.VerifyEverything(serial);
  ASSERT_TRUE(report.ok()) << report.status().message();
  ExpectMatchesVerdictPin(report.value());
}

TEST_F(BatchVerifierTest, ExpiredDeadlineReportsInconclusiveNotWrong) {
  // A deadline that has effectively already passed: every generator must be
  // reported inconclusive — not verified, not refuted, not dropped.
  std::vector<std::string> names;
  for (const platform::GeneratorInfo& info : platform::Fig12Generators()) {
    names.push_back(info.function);
  }
  BatchVerifier batch(platform_);
  BatchOptions opts;
  opts.jobs = 2;
  opts.deadline_seconds = 1e-9;
  BatchReport report = batch.VerifyAll(names, opts).take();

  ASSERT_EQ(report.results.size(), names.size());
  EXPECT_TRUE(report.deadline_hit);
  EXPECT_GT(report.NumWithOutcome(Outcome::kInconclusive), 0);
  for (const GeneratorResult& r : report.results) {
    // No generator may flip to a hard verdict it did not earn: anything that
    // did not finish ahead of the (instant) deadline must say so.
    EXPECT_NE(r.outcome, Outcome::kError) << r.generator;
    if (r.outcome == Outcome::kInconclusive) {
      EXPECT_TRUE(r.report.inconclusive);
      EXPECT_FALSE(r.report.verified);
    }
  }
}

TEST_F(BatchVerifierTest, HugeDeadlineMeansNoDeadline) {
  // A deadline past the clock's range behaves as none. Converting it to
  // clock ticks used to overflow into a deadline that had already passed.
  BatchVerifier batch(platform_);
  for (double seconds : {1e300, std::numeric_limits<double>::infinity()}) {
    BatchOptions opts;
    opts.jobs = 1;
    opts.deadline_seconds = seconds;
    BatchReport report = batch.VerifyAll({"tryAttachInt32Add", "bug1685925_buggy"}, opts).take();
    EXPECT_FALSE(report.deadline_hit) << seconds;
    ASSERT_EQ(report.results.size(), 2u);
    EXPECT_EQ(report.results[0].outcome, Outcome::kVerified) << seconds;
    EXPECT_EQ(report.results[1].outcome, Outcome::kRefuted) << seconds;
  }
}

TEST_F(BatchVerifierTest, InterruptDuringASingleJobBatchReportsInconclusive) {
  // One job runs on the calling thread, so nothing polls the interrupt flag
  // on its behalf: each unit reads it at entry and before each path. The
  // first solver-cache insert holds the batch for half a second, and a
  // second thread raises the flag inside that window.
  const std::vector<std::string> names = {"tryAttachCompareInt32", "tryAttachInt32Add",
                                          "bug1685925_buggy"};
  ASSERT_TRUE(failpoint::Arm(StrCat("at=", failpoint::kCacheInsert, ":1,action=stall")).ok());
  std::atomic<bool> interrupt{false};
  std::thread raiser([&interrupt] {
    while (failpoint::HitCount(failpoint::kCacheInsert) < 1) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    interrupt.store(true);
  });
  BatchVerifier batch(platform_);
  BatchOptions opts;
  opts.jobs = 1;
  opts.interrupt = &interrupt;
  StatusOr<BatchReport> report = batch.VerifyAll(names, opts);
  raiser.join();
  failpoint::DisarmAll();
  ASSERT_TRUE(report.ok()) << report.status().message();
  EXPECT_TRUE(report.value().interrupted);
  EXPECT_FALSE(report.value().deadline_hit);
  ASSERT_EQ(report.value().results.size(), names.size());
  for (const GeneratorResult& r : report.value().results) {
    // The first unit stops at its next path, the others before they start.
    EXPECT_EQ(r.outcome, Outcome::kInconclusive) << r.generator;
    EXPECT_TRUE(r.report.meta.cancelled) << r.generator;
    EXPECT_FALSE(r.report.verified) << r.generator;
  }
}

TEST_F(BatchVerifierTest, TinyDecisionBudgetDegradesToInconclusive) {
  // A 0-decision budget starves real generators (the CDCL core's unit
  // propagation decides many queries without branching, so only budget 0
  // reliably starves them). It may only produce INCONCLUSIVE or a verdict the
  // generator earns, and its give-ups never enter the shared cache, whose
  // persisted export holds decisive answers only.
  const std::string cache_dir = ::testing::TempDir() + "batch_tiny_budget_cache";
  std::filesystem::remove_all(cache_dir);
  const std::vector<std::string> fleet = {"tryAttachCompareInt32", "tryAttachObjectLength",
                                          "tryAttachInt32Add", "bug1685925_buggy"};
  BatchVerifier batch(platform_);
  BatchOptions opts;
  opts.jobs = 2;
  opts.use_cache = true;
  opts.incremental = true;
  opts.cache_dir = cache_dir;
  opts.solver_limits.max_decisions = 0;
  BatchReport report = batch.VerifyAll(fleet, opts).take();
  ASSERT_EQ(report.results.size(), fleet.size());
  EXPECT_GT(report.NumWithOutcome(Outcome::kInconclusive), 0) << report.RenderTable();
  for (const GeneratorResult& r : report.results) {
    bool buggy = r.generator.find("_buggy") != std::string::npos;
    EXPECT_NE(r.outcome, buggy ? Outcome::kVerified : Outcome::kRefuted) << r.generator;
    EXPECT_NE(r.outcome, Outcome::kError) << r.generator;
    if (r.outcome == Outcome::kInconclusive) {
      EXPECT_FALSE(r.report.verified) << r.generator;
      EXPECT_FALSE(r.report.meta.limit_notes.empty()) << r.generator;
    }
  }

  sym::SolverCache persisted;
  sym::CacheLoadResult loaded =
      sym::LoadSolverCache(SolverCacheStorePath(cache_dir), kVerifierEpoch, &persisted);
  ASSERT_TRUE(loaded.note.empty()) << loaded.note;
  ASSERT_GT(loaded.entries, 0u);
  for (const auto& [key, entry] : persisted.Export()) {
    EXPECT_NE(entry.verdict, sym::Verdict::kUnknown);
  }
  std::filesystem::remove_all(cache_dir);
}

TEST_F(BatchVerifierTest, StatsTableCountsQueriesThatExhaustTheBudget) {
  // Each row's exhausted count is a delta of its unit's SolverStats, and
  // `--stats` prints their sum on the solver-reuse line. A 0-decision budget
  // starves real queries; the default budget starves none.
  BatchVerifier batch(platform_);
  for (int64_t budget : {int64_t{0}, sym::Solver::Limits{}.max_decisions}) {
    BatchOptions opts;  // `verify-all --serial --max-decisions <budget>`.
    opts.jobs = 1;
    opts.use_cache = false;
    opts.solver_limits.max_decisions = budget;
    StatusOr<BatchReport> report = batch.VerifyEverything(opts);
    ASSERT_TRUE(report.ok()) << report.status().message();
    int64_t exhausted = 0;
    for (const GeneratorResult& r : report.value().results) {
      exhausted += r.report.meta.solver_budget_exhausted;
    }
    if (budget == 0) {
      EXPECT_GT(exhausted, 0);
    } else {
      EXPECT_EQ(exhausted, 0);
    }
    const std::string stats = report.value().RenderStatsTable();
    EXPECT_NE(stats.find(StrCat(", ", exhausted, " queries exhausted their budget\n")),
              std::string::npos)
        << "budget " << budget << ":\n"
        << stats;
  }
}

TEST_F(BatchVerifierTest, RenderTableMentionsEveryGenerator) {
  BatchVerifier batch(platform_);
  BatchOptions opts;
  opts.jobs = 2;
  BatchReport report =
      batch.VerifyAll({"tryAttachCompareInt32", "bug1685925_buggy"}, opts).take();
  std::string table = report.RenderTable();
  EXPECT_NE(table.find("tryAttachCompareInt32"), std::string::npos);
  EXPECT_NE(table.find("bug1685925_buggy"), std::string::npos);
  EXPECT_NE(table.find("VERIFIED"), std::string::npos);
  EXPECT_NE(table.find("COUNTEREXAMPLE"), std::string::npos);
  EXPECT_NE(table.find("2 generators"), std::string::npos);
  // The batch never builds a CFA, so the stats table attributes generate,
  // interpret and solve only: no CFA column and no `cfa` Dominant.
  std::string stats = report.RenderStatsTable();
  EXPECT_NE(stats.find("Interp(s)"), std::string::npos);
  EXPECT_NE(stats.find("Dominant"), std::string::npos);
  EXPECT_EQ(stats.find("CFA"), std::string::npos);
  EXPECT_EQ(stats.find("cfa"), std::string::npos);
  EXPECT_EQ(stats.find("Merges"), std::string::npos);
}

}  // namespace
}  // namespace icarus::verifier
