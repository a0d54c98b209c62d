// Flight-recorder tests: witness extraction from the solver, witness
// survival through the solver cache, structured counterexamples on real
// refuted generators, the explain rendering, and — the headline acceptance
// check — that replaying a counterexample with its witness values pinned
// concretely reproduces the contract violation.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/meta/meta_executor.h"
#include "src/meta/path_recorder.h"
#include "src/platform/platform.h"
#include "src/sym/expr.h"
#include "src/sym/solver.h"
#include "src/sym/solver_cache.h"
#include "src/verifier/batch_verifier.h"
#include "src/verifier/verifier.h"

namespace icarus::meta {
namespace {

using icarus::platform::Platform;

TEST(WitnessBaseName, StripsFreshCounterSuffix) {
  EXPECT_EQ(WitnessBaseName("gen_mode#3"), "gen_mode");
  EXPECT_EQ(WitnessBaseName("run_val#0"), "run_val");
  EXPECT_EQ(WitnessBaseName("plain"), "plain");
  EXPECT_EQ(WitnessBaseName("a#b#12"), "a#b");
}

TEST(RenderDecisionString, CompactTFForm) {
  EXPECT_EQ(RenderDecisionString({true, true, false, true}), "TTFT");
  EXPECT_EQ(RenderDecisionString({}), "");
}

TEST(SolverWitness, SatModelAssignsEveryNamedVariable) {
  // x > 5 ∧ x < 7 pins x to exactly 6; the model must carry that as a
  // pool-independent witness, not just a congruence-class value.
  sym::ExprPool pool;
  sym::ExprRef x = pool.Var("x", sym::Sort::kInt);
  sym::Solver solver;
  sym::SolveResult r = solver.Solve(
      {pool.Gt(x, pool.IntConst(5)), pool.Lt(x, pool.IntConst(7))});
  ASSERT_EQ(r.verdict, sym::Verdict::kSat);
  int64_t value = 0;
  ASSERT_TRUE(r.model.LookupWitness("x", &value)) << r.model.ToString();
  EXPECT_EQ(value, 6);
}

TEST(SolverWitness, WitnessesSurviveTheSolverCache) {
  sym::SolverCache cache;
  std::vector<sym::Witness> first;
  {
    sym::ExprPool pool;
    sym::ExprRef y = pool.Var("y", sym::Sort::kInt);
    sym::Solver solver;
    solver.set_cache(&cache);
    sym::SolveResult r = solver.Solve({pool.Eq(y, pool.IntConst(41))});
    ASSERT_EQ(r.verdict, sym::Verdict::kSat);
    first = r.model.witnesses;
    ASSERT_FALSE(first.empty());
  }
  // Fresh pool, same structural query: the cache answers, and the restored
  // model must still know y's value even though the original pool is gone.
  sym::ExprPool pool;
  sym::ExprRef y = pool.Var("y", sym::Sort::kInt);
  sym::Solver solver;
  solver.set_cache(&cache);
  sym::SolveResult r = solver.Solve({pool.Eq(y, pool.IntConst(41))});
  ASSERT_EQ(r.verdict, sym::Verdict::kSat);
  EXPECT_GT(solver.stats().cache_hits, 0) << "expected a structural cache hit";
  int64_t value = 0;
  ASSERT_TRUE(r.model.LookupWitness("y", &value)) << r.model.ToString();
  EXPECT_EQ(value, 41);
}

class FlightRecorderTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto loaded = Platform::Load();
    ASSERT_TRUE(loaded.ok()) << loaded.status().message();
    platform_ = loaded.take().release();
  }
  static void TearDownTestSuite() {
    delete platform_;
    platform_ = nullptr;
  }
  void SetUp() override { ASSERT_NE(platform_, nullptr); }

  // Runs one generator with the recorder on and returns the meta result.
  static MetaResult RunRecorded(const std::string& generator) {
    auto stub = platform_->MakeMetaStub(generator);
    EXPECT_TRUE(stub.ok()) << stub.status().message();
    MetaExecutor executor(&platform_->module(), &platform_->externs());
    executor.set_recording(true);
    return executor.Run(stub.value());
  }

  static Platform* platform_;
};

Platform* FlightRecorderTest::platform_ = nullptr;

TEST_F(FlightRecorderTest, ViolationCarriesStructuredCounterexample) {
  MetaResult result = RunRecorded("bug1685925_buggy");
  ASSERT_FALSE(result.violations.empty()) << result.Summary();
  const exec::Violation& v = result.violations.front();
  EXPECT_NE(v.message.find("numFixedSlots"), std::string::npos);
  EXPECT_FALSE(v.target_ops.empty()) << "failing path should have emitted target ops";
  EXPECT_FALSE(v.symbolic_inputs.empty()) << "stub inputs are symbolic";
  EXPECT_FALSE(v.witnesses.empty()) << "SAT verdict must carry concrete witnesses";
  EXPECT_FALSE(v.events.empty()) << "recording was on; the event log should be populated";
  // Every event is a rendered line; the violation itself must appear in it.
  bool saw_violation_event = false;
  for (const std::string& e : v.events) {
    saw_violation_event = saw_violation_event || e.find("VIOLATED") != std::string::npos;
  }
  EXPECT_TRUE(saw_violation_event);
}

TEST_F(FlightRecorderTest, RecordingOffStillCapturesStructuredData) {
  auto stub = platform_->MakeMetaStub("bug1685925_buggy");
  ASSERT_TRUE(stub.ok());
  MetaExecutor executor(&platform_->module(), &platform_->externs());
  MetaResult result = executor.Run(stub.value());  // recorder off (default)
  ASSERT_FALSE(result.violations.empty());
  const exec::Violation& v = result.violations.front();
  // The cheap structured capture is unconditional...
  EXPECT_FALSE(v.witnesses.empty());
  EXPECT_FALSE(v.target_ops.empty());
  // ...only the string-rendered event log is gated on recording.
  EXPECT_TRUE(v.events.empty());
}

TEST_F(FlightRecorderTest, RenderCounterexampleShowsContractOpsAndWitnesses) {
  MetaResult result = RunRecorded("bug1685925_buggy");
  ASSERT_FALSE(result.violations.empty());
  std::string text = RenderCounterexample(result.violations.front());
  EXPECT_NE(text.find("counterexample:"), std::string::npos) << text;
  EXPECT_NE(text.find("numFixedSlots"), std::string::npos) << text;
  EXPECT_NE(text.find("path decisions:"), std::string::npos) << text;
  EXPECT_NE(text.find("target ops"), std::string::npos) << text;
  EXPECT_NE(text.find("witness values"), std::string::npos) << text;
  EXPECT_NE(text.find("event log"), std::string::npos) << text;
}

// Acceptance criterion: the recorded witness values, replayed concretely
// (each symbolic input constrained to its model value up front), must drive
// execution back into the same contract violation.
TEST_F(FlightRecorderTest, ReplayWithPinnedWitnessesReproducesViolation) {
  MetaResult result = RunRecorded("bug1685925_buggy");
  ASSERT_FALSE(result.violations.empty());
  auto stub = platform_->MakeMetaStub("bug1685925_buggy");
  ASSERT_TRUE(stub.ok());
  ReplayOutcome outcome = ReplayWithWitnesses(&platform_->module(), &platform_->externs(),
                                              stub.value(), result.violations.front());
  EXPECT_TRUE(outcome.reproduced)
      << "pinned replay did not reach the original violation; replay summary: "
      << outcome.result.Summary();
  ASSERT_FALSE(outcome.result.violations.empty());
  EXPECT_NE(outcome.result.violations.front().message.find("numFixedSlots"),
            std::string::npos);
}

TEST_F(FlightRecorderTest, VerifierThreadsRecordOptionThrough) {
  verifier::Verifier v(platform_);
  verifier::VerifyOptions options;
  options.record = true;
  auto report = v.Verify("bug1685925_buggy", options);
  ASSERT_TRUE(report.ok()) << report.status().message();
  ASSERT_FALSE(report.value().meta.violations.empty());
  EXPECT_FALSE(report.value().meta.violations.front().events.empty());
}

TEST_F(FlightRecorderTest, BatchExplainRendersAndJournalRoundTripsCx) {
  verifier::BatchVerifier batch(platform_);
  verifier::BatchOptions options;
  options.record = true;
  auto report = batch.VerifyAll({"bug1685925_buggy", "bug1685925_fixed"}, options);
  ASSERT_TRUE(report.ok()) << report.status().message();
  ASSERT_EQ(report.value().results.size(), 2u);

  std::string explain = report.value().RenderExplain();
  EXPECT_NE(explain.find("bug1685925_buggy"), std::string::npos) << explain;
  EXPECT_NE(explain.find("counterexample:"), std::string::npos) << explain;
  // The verified generator contributes no explain block.
  EXPECT_EQ(explain.find("bug1685925_fixed"), std::string::npos) << explain;

  // The refuted row's journal record carries the flattened counterexample,
  // and it survives a parse round trip.
  const verifier::GeneratorResult& buggy = report.value().results[0];
  ASSERT_EQ(buggy.outcome, verifier::Outcome::kRefuted);
  verifier::JournalRecord rec = verifier::RecordFromResult(buggy);
  EXPECT_FALSE(rec.cx_contract.empty());
  EXPECT_FALSE(rec.cx_target_ops.empty());
  EXPECT_FALSE(rec.cx_witnesses.empty());
  verifier::JournalRecord parsed;
  ASSERT_TRUE(verifier::ParseJournalLine(rec.ToJsonLine(), &parsed));
  EXPECT_EQ(parsed.cx_contract, rec.cx_contract);
  EXPECT_EQ(parsed.cx_target_ops, rec.cx_target_ops);
  EXPECT_EQ(parsed.cx_witnesses, rec.cx_witnesses);
  EXPECT_EQ(parsed.cx_decisions, rec.cx_decisions);
}

}  // namespace
}  // namespace icarus::meta
