// Tests for the CFA builder, the naive-executor ablation machinery, and the
// verifier facade. `icarus verify`'s CFA and LoC lines are pinned in
// journal_test's CLI cases.
#include <gtest/gtest.h>

#include "src/cfa/cfa.h"
#include "src/platform/platform.h"
#include "src/support/str_util.h"
#include "src/verifier/verifier.h"
#include "tests/naive_executor.h"

namespace icarus {
namespace {

class CfaTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto loaded = platform::Platform::Load();
    ASSERT_TRUE(loaded.ok()) << loaded.status().message();
    platform_ = loaded.take().release();
  }
  static void TearDownTestSuite() {
    delete platform_;
    platform_ = nullptr;
  }
  void SetUp() override { ASSERT_NE(platform_, nullptr); }

  static StatusOr<cfa::Cfa> Build(const std::string& generator) {
    auto stub = platform_->MakeMetaStub(generator);
    if (!stub.ok()) {
      return stub.status();
    }
    cfa::CfaBuilder builder(&platform_->module(), &platform_->externs());
    return builder.Build(stub.value());
  }

  static platform::Platform* platform_;
};

platform::Platform* CfaTest::platform_ = nullptr;

TEST_F(CfaTest, TypedArrayCfaMatchesPaperShape) {
  auto automaton = Build("bug1685925_buggy");
  ASSERT_TRUE(automaton.ok()) << automaton.status().message();
  const cfa::Cfa& a = automaton.value();
  // Figure 6: a handful of nodes, and "about ten" feasible sequences.
  EXPECT_GE(a.num_nodes(), 5);
  EXPECT_LE(a.num_nodes(), 12);
  int64_t paths = a.CountPaths(32, 1000000);
  EXPECT_GE(paths, 2);
  EXPECT_LE(paths, 20);
  // Node ops include the guard and the dangerous load.
  bool has_guard = false;
  bool has_load = false;
  for (const cfa::Node& node : a.nodes()) {
    has_guard = has_guard || node.op->name == "BranchTestObject";
    has_load = has_load || node.op->name == "LoadPrivateIntPtr";
  }
  EXPECT_TRUE(has_guard);
  EXPECT_TRUE(has_load);
}

TEST_F(CfaTest, DotExportIsWellFormed) {
  auto automaton = Build("tryAttachCompareInt32");
  ASSERT_TRUE(automaton.ok());
  std::string dot = automaton.value().ToDot();
  EXPECT_TRUE(StartsWith(dot, "digraph cfa {"));
  EXPECT_TRUE(Contains(dot, "entry"));
  EXPECT_TRUE(Contains(dot, "failure"));
  EXPECT_TRUE(Contains(dot, "->"));
  // Grouped by source op (Figure 6's boxes).
  EXPECT_TRUE(Contains(dot, "subgraph cluster_"));
  EXPECT_TRUE(Contains(dot, "CompareInt32Result"));
}

TEST_F(CfaTest, EveryFig12GeneratorHasFiniteCfa) {
  for (const auto& info : platform::Fig12Generators()) {
    auto automaton = Build(info.function);
    ASSERT_TRUE(automaton.ok()) << info.function;
    EXPECT_GT(automaton.value().num_nodes(), 0) << info.function;
    EXPECT_LT(automaton.value().CountPaths(64, 100000), 100000) << info.function;
  }
}

// Every unit's automaton, pinned: nodes, edges and instruction sequences of
// length <= 64 (what `icarus verify` prints). Node ids follow the order in
// which abstract paths are folded, so these hold only while exploration
// visits the same paths in the same order (depth first, true arm first).
TEST_F(CfaTest, EveryUnitKeepsItsPinnedAutomaton) {
  struct Pin {
    const char* generator;
    int nodes;
    int edges;
    int64_t sequences;
  };
  const Pin kPins[] = {
      {"tryAttachCompareNullUndefined", 11, 22, 23},
      {"tryAttachCompareInt32", 9, 14, 5},
      {"tryAttachCompareStrictDifferentTypes", 18, 98, 136},
      {"tryAttachDenseElement", 7, 12, 5},
      {"tryAttachGetElemNativeFixedSlot", 8, 13, 5},
      {"tryAttachArgumentsObjectArg", 7, 12, 5},
      {"tryAttachNativeGetPropDynamicSlot", 5, 8, 3},
      {"tryAttachNativeGetPropFixedSlot", 5, 8, 3},
      {"tryAttachObjectLength", 6, 10, 4},
      {"tryAttachInt32Add", 7, 11, 4},
      {"tryAttachInt32Sub", 7, 11, 4},
      {"tryAttachInt32Mul", 7, 11, 4},
      {"tryAttachInt32Div", 10, 17, 7},
      {"tryAttachInt32Mod", 9, 15, 6},
      {"tryAttachInt32Bitwise", 14, 19, 5},
      {"tryAttachInt32Negation", 8, 13, 5},
      {"tryAttachInt32Not", 6, 8, 2},
      {"tryAttachStringLength", 5, 7, 2},
      {"tryAttachCompareString", 10, 17, 8},
      {"tryAttachCompareObject", 10, 17, 8},
      {"tryAttachCompareSymbol", 10, 17, 8},
      {"tryAttachInt32MinMax", 11, 18, 8},
      {"tryAttachToPropertyKeyInt32", 4, 6, 2},
      {"tryAttachToPropertyKeyNumber", 7, 12, 5},
      {"tryAttachToPropertyKeyString", 4, 6, 2},
      {"tryAttachToPropertyKeySymbol", 4, 6, 2},
      {"bug1451976_buggy", 3, 4, 1},
      {"bug1451976_fixed", 7, 11, 4},
      {"bug1471361_buggy", 8, 12, 4},
      {"bug1471361_fixed", 9, 13, 4},
      {"bug1502143_buggy", 7, 11, 4},
      {"bug1502143_fixed", 8, 13, 5},
      {"bug1651732_buggy", 5, 8, 3},
      {"bug1651732_fixed", 6, 10, 4},
      {"bug1654947_buggy", 9, 12, 3},
      {"bug1654947_fixed", 9, 12, 3},
      {"bug1685925_buggy", 8, 14, 7},
      {"bug1685925_fixed", 7, 11, 4},
  };
  ASSERT_EQ(std::size(kPins), platform_->module().Generators().size());
  for (const Pin& pin : kPins) {
    auto automaton = Build(pin.generator);
    ASSERT_TRUE(automaton.ok()) << pin.generator << ": " << automaton.status().message();
    EXPECT_EQ(automaton.value().num_nodes(), pin.nodes) << pin.generator;
    EXPECT_EQ(automaton.value().num_edges(), pin.edges) << pin.generator;
    EXPECT_EQ(automaton.value().CountPaths(64, 1000000000), pin.sequences) << pin.generator;
  }
}

TEST_F(CfaTest, CountPathsSaturatesAtLargeCapsWithoutOverflow) {
  // Two nodes with edges to each other and to exit: the number of paths
  // doubles per length step, overflowing int64 well before len 100. A
  // sat_add that computed a + b before clamping would hit signed overflow
  // (UB) once the cap exceeds INT64_MAX/2.
  ast::OpDecl op_a;
  op_a.name = "OpA";
  ast::OpDecl op_b;
  op_b.name = "OpB";
  ast::Stmt sites[2] = {};
  cfa::Cfa a;
  int n0 = a.NodeFor(&op_a, &sites[0], 0, nullptr);
  int n1 = a.NodeFor(&op_b, &sites[1], 0, nullptr);
  a.AddEdge(cfa::kEntry, n0);
  a.AddEdge(n0, n0);
  a.AddEdge(n0, n1);
  a.AddEdge(n1, n0);
  a.AddEdge(n1, n1);
  a.AddEdge(n0, cfa::kExit);
  a.AddEdge(n1, cfa::kExit);
  EXPECT_EQ(a.CountPaths(100, INT64_MAX), INT64_MAX);
  EXPECT_EQ(a.CountPaths(100, INT64_MAX - 1), INT64_MAX - 1);
  // Small budgets still count exactly: len<=1 is the single path [A].
  EXPECT_EQ(a.CountPaths(1, INT64_MAX), 1);
}

TEST_F(CfaTest, NaiveExplosionVsCfaConstraint) {
  auto stub = platform_->MakeMetaStub("bug1685925_buggy");
  ASSERT_TRUE(stub.ok());
  meta::NaiveConfig config;
  config.max_len = 6;
  config.time_budget_seconds = 0.2;
  meta::NaiveResult naive =
      meta::NaiveExecutor::RunNaive(stub.value().interpreter, config);
  EXPECT_GT(naive.num_ops, 40);
  // k^1 + ... + k^6 with k > 40 is astronomically more than the CFA's paths.
  EXPECT_GT(naive.total_state_space, 1e9);
  EXPECT_TRUE(naive.budget_exhausted);
  EXPECT_GT(naive.states_explored, 0);

  auto automaton = Build("bug1685925_buggy");
  ASSERT_TRUE(automaton.ok());
  config.max_len = 25;
  config.time_budget_seconds = 5.0;
  meta::NaiveResult constrained =
      meta::NaiveExecutor::RunCfaConstrained(automaton.value(), config);
  EXPECT_FALSE(constrained.budget_exhausted);
  EXPECT_LE(constrained.total_state_space, 32);
  EXPECT_EQ(constrained.sequences_completed,
            static_cast<int64_t>(constrained.total_state_space));
}

TEST_F(CfaTest, VerifierReportRendersEverything) {
  verifier::Verifier v(platform_);
  auto report = v.Verify("bug1685925_buggy");
  ASSERT_TRUE(report.ok()) << report.status().message();
  EXPECT_FALSE(report.value().verified);
  std::string rendered = report.value().Render();
  EXPECT_TRUE(Contains(rendered, "COUNTEREXAMPLE"));
  EXPECT_TRUE(Contains(rendered, "numFixedSlots"));
  EXPECT_TRUE(Contains(rendered, "stub (target ops)"));

  auto fixed = v.Verify("bug1685925_fixed");
  ASSERT_TRUE(fixed.ok());
  EXPECT_TRUE(fixed.value().verified);
  EXPECT_TRUE(Contains(fixed.value().Render(), "VERIFIED"));
}

TEST_F(CfaTest, VerifierRejectsUnknownGenerator) {
  verifier::Verifier v(platform_);
  EXPECT_FALSE(v.Verify("no_such_generator").ok());
}

}  // namespace
}  // namespace icarus
