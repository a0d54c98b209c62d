// Join shapes on the forking executor: every symbolic `if` forks two paths,
// and both arms' effects stay on their own path past the join.
//
// Two layers of coverage:
//   - hand-written diamond / nested-join / assert-across-join / emitting-arm
//     generators, with exact verdicts and path counts;
//   - a seeded corpus of two-diamond programs whose expected verdicts are
//     computed from the constants drawn for them, so the oracle is the
//     program text rather than a second executor.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "src/meta/meta_executor.h"
#include "src/meta/path_recorder.h"
#include "src/platform/platform.h"
#include "src/support/str_util.h"

namespace icarus {
namespace {

// ---------------------------------------------------------------------------
// Synthetic diamond / nested-join programs
// ---------------------------------------------------------------------------

// A plain diamond, nested joins, a data-dependent assertion across a join,
// and a diamond whose arms emit different stubs.
constexpr char kSyntheticJoins[] = R"ICARUS(
generator joinTestDiamond(
    lhs: Value, lhsId: ValueId, rhs: Value, rhsId: ValueId
) emits CacheIR {
  if !Value::isInt32(lhs) || !Value::isInt32(rhs) {
    return AttachDecision::NoAction;
  }
  let a = Value::toInt32(lhs);
  let bias = 0;
  if a < 0 {
    bias = 1;
  } else {
    bias = 2;
  }
  assert bias > 0;
  emit CacheIR::GuardToInt32(lhsId);
  emit CacheIR::GuardToInt32(rhsId);
  emit CacheIR::Int32AddResult(OperandId::toInt32Id(lhsId), OperandId::toInt32Id(rhsId));
  emit CacheIR::ReturnFromIC();
  return AttachDecision::Attach;
}

generator joinTestNestedJoin(
    lhs: Value, lhsId: ValueId, rhs: Value, rhsId: ValueId
) emits CacheIR {
  if !Value::isInt32(lhs) || !Value::isInt32(rhs) {
    return AttachDecision::NoAction;
  }
  let a = Value::toInt32(lhs);
  let b = Value::toInt32(rhs);
  let x = 0;
  if a < 0 {
    if b < 0 {
      x = 1;
    } else {
      x = 2;
    }
  } else {
    if b < 10 {
      x = 3;
    } else {
      x = 4;
    }
  }
  assert x > 0;
  assert x <= 4;
  emit CacheIR::GuardToInt32(lhsId);
  emit CacheIR::GuardToInt32(rhsId);
  emit CacheIR::Int32SubResult(OperandId::toInt32Id(lhsId), OperandId::toInt32Id(rhsId));
  emit CacheIR::ReturnFromIC();
  return AttachDecision::Attach;
}

generator joinTestAssertAcrossJoin(
    lhs: Value, lhsId: ValueId, rhs: Value, rhsId: ValueId
) emits CacheIR {
  if !Value::isInt32(lhs) || !Value::isInt32(rhs) {
    return AttachDecision::NoAction;
  }
  let a = Value::toInt32(lhs);
  let x = 0;
  if a < 0 {
    x = 0;
  } else {
    x = 2;
  }
  // Fails exactly when a < 0.
  assert x != 0;
  emit CacheIR::GuardToInt32(lhsId);
  emit CacheIR::GuardToInt32(rhsId);
  emit CacheIR::Int32AddResult(OperandId::toInt32Id(lhsId), OperandId::toInt32Id(rhsId));
  emit CacheIR::ReturnFromIC();
  return AttachDecision::Attach;
}

generator joinTestEmittingArms(
    lhs: Value, lhsId: ValueId, rhs: Value, rhsId: ValueId
) emits CacheIR {
  if !Value::isInt32(lhs) || !Value::isInt32(rhs) {
    return AttachDecision::NoAction;
  }
  let a = Value::toInt32(lhs);
  // The arms emit different stubs, so the two paths interpret different
  // target buffers; both must verify.
  if a < 0 {
    emit CacheIR::GuardToInt32(lhsId);
    emit CacheIR::GuardToInt32(rhsId);
    emit CacheIR::Int32AddResult(OperandId::toInt32Id(lhsId), OperandId::toInt32Id(rhsId));
  } else {
    emit CacheIR::GuardToInt32(lhsId);
    emit CacheIR::GuardToInt32(rhsId);
    emit CacheIR::Int32SubResult(OperandId::toInt32Id(lhsId), OperandId::toInt32Id(rhsId));
  }
  emit CacheIR::ReturnFromIC();
  return AttachDecision::Attach;
}
)ICARUS";

// ---------------------------------------------------------------------------
// Seeded two-diamond corpus with computed verdicts
// ---------------------------------------------------------------------------

struct FuzzProgram {
  std::string name;
  std::string source;
  bool expect_verified = false;
};

bool Holds(const std::string& cmp, int lhs, int rhs) {
  if (cmp == "<") {
    return lhs < rhs;
  }
  if (cmp == "<=") {
    return lhs <= rhs;
  }
  if (cmp == ">") {
    return lhs > rhs;
  }
  if (cmp == ">=") {
    return lhs >= rhs;
  }
  if (cmp == "==") {
    return lhs == rhs;
  }
  return lhs != rhs;
}

// Random two-diamond programs over int32 inputs with a random (possibly
// failing) assertion across the joins. Deterministic by construction, so
// failures reproduce.
std::vector<FuzzProgram> FuzzCorpus(int count, uint32_t seed) {
  std::mt19937 rng(seed);
  const char* cmps[] = {"<", "<=", ">", ">=", "==", "!="};
  auto cmp = [&] { return std::string(cmps[rng() % 6]); };
  auto small = [&] { return static_cast<int>(rng() % 7); };
  std::vector<FuzzProgram> corpus;
  for (int i = 0; i < count; ++i) {
    // One named draw per constant, in source order: argument evaluation
    // order is unspecified, so drawing inside the StrCat below would let the
    // compiler decide which constant lands where.
    const std::string a_cmp = cmp();
    const int a_bound = small();
    const int x_then = small();
    const int x_else = small();
    const std::string b_cmp = cmp();
    const int b_bound = small();
    const int x_add = small();
    const int x_sub = small();
    const std::string assert_cmp = cmp();
    const int assert_bound = small();
    FuzzProgram p;
    p.name = StrCat("joinFuzz", i);
    p.source = StrCat(
        "generator ", p.name,
        "(lhs: Value, lhsId: ValueId, rhs: Value, rhsId: ValueId) emits CacheIR {\n"
        "  if !Value::isInt32(lhs) || !Value::isInt32(rhs) {\n"
        "    return AttachDecision::NoAction;\n"
        "  }\n"
        "  let a = Value::toInt32(lhs);\n"
        "  let b = Value::toInt32(rhs);\n"
        "  let x = 0;\n"
        "  if a ", a_cmp, " ", a_bound, " {\n"
        "    x = ", x_then, ";\n"
        "  } else {\n"
        "    x = ", x_else, ";\n"
        "  }\n"
        "  if b ", b_cmp, " ", b_bound, " {\n"
        "    x = x + ", x_add, ";\n"
        "  } else {\n"
        "    x = x - ", x_sub, ";\n"
        "  }\n"
        "  assert x ", assert_cmp, " ", assert_bound, ";\n"
        "  emit CacheIR::GuardToInt32(lhsId);\n"
        "  emit CacheIR::GuardToInt32(rhsId);\n"
        "  emit CacheIR::Int32AddResult(OperandId::toInt32Id(lhsId), "
        "OperandId::toInt32Id(rhsId));\n"
        "  emit CacheIR::ReturnFromIC();\n"
        "  return AttachDecision::Attach;\n"
        "}\n");
    // Each diamond compares an independent int32 with a constant in 0..6,
    // so all four arm combinations are feasible: the program verifies
    // exactly when the assertion holds for every final value of x.
    p.expect_verified = true;
    for (int x : {x_then + x_add, x_then - x_sub, x_else + x_add, x_else - x_sub}) {
      p.expect_verified = p.expect_verified && Holds(assert_cmp, x, assert_bound);
    }
    corpus.push_back(std::move(p));
  }
  return corpus;
}

constexpr int kFuzzCount = 24;

class JoinTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    std::string corpus_source;
    for (const FuzzProgram& p : Corpus()) {
      corpus_source += p.source;
    }
    auto loaded = platform::Platform::LoadWithExtra({kSyntheticJoins, corpus_source});
    ASSERT_TRUE(loaded.ok()) << loaded.status().message();
    platform_ = loaded.take().release();
  }
  static void TearDownTestSuite() {
    delete platform_;
    platform_ = nullptr;
  }
  void SetUp() override { ASSERT_NE(platform_, nullptr); }

  static const std::vector<FuzzProgram>& Corpus() {
    static const std::vector<FuzzProgram> corpus = FuzzCorpus(kFuzzCount, /*seed=*/0x1ca905);
    return corpus;
  }

  static meta::MetaResult Run(const std::string& name) {
    auto stub = platform_->MakeMetaStub(name);
    EXPECT_TRUE(stub.ok()) << name << ": " << stub.status().message();
    meta::MetaExecutor executor(&platform_->module(), &platform_->externs());
    return executor.Run(stub.value());
  }

  // True when the counterexample, with every symbolic input pinned to its
  // witness value, reaches the same violation again.
  static bool Replays(const std::string& name, const exec::Violation& violation) {
    auto stub = platform_->MakeMetaStub(name);
    EXPECT_TRUE(stub.ok()) << name;
    return meta::ReplayWithWitnesses(&platform_->module(), &platform_->externs(), stub.value(),
                                     violation)
        .reproduced;
  }

  static platform::Platform* platform_;
};

platform::Platform* JoinTest::platform_ = nullptr;

// The path counts pin how the forking executor explores each shape: every
// symbolic join forks, so paths multiply with the joins above them.
TEST_F(JoinTest, DiamondVerifies) {
  meta::MetaResult r = Run("joinTestDiamond");
  EXPECT_TRUE(r.verified) << r.Summary();
  EXPECT_EQ(r.paths_explored, 11) << r.Summary();
}

TEST_F(JoinTest, NestedJoinsVerify) {
  meta::MetaResult r = Run("joinTestNestedJoin");
  EXPECT_TRUE(r.verified) << r.Summary();
  EXPECT_EQ(r.paths_explored, 21) << r.Summary();
}

TEST_F(JoinTest, AssertionAcrossJoinRefutesAndReplays) {
  meta::MetaResult r = Run("joinTestAssertAcrossJoin");
  EXPECT_FALSE(r.verified) << r.Summary();
  EXPECT_FALSE(r.inconclusive) << r.Summary();
  EXPECT_EQ(r.paths_explored, 7) << r.Summary();
  ASSERT_EQ(r.violations.size(), 1u) << r.Summary();
  EXPECT_EQ(r.violations.front().message, "(x != 0)");
  EXPECT_TRUE(Replays("joinTestAssertAcrossJoin", r.violations.front()));
}

TEST_F(JoinTest, EmittingArmsVerify) {
  meta::MetaResult r = Run("joinTestEmittingArms");
  EXPECT_TRUE(r.verified) << r.Summary();
  EXPECT_EQ(r.paths_explored, 11) << r.Summary();
}

TEST_F(JoinTest, FuzzCorpusMatchesComputedVerdicts) {
  int verified = 0;
  int refuted = 0;
  for (const FuzzProgram& p : Corpus()) {
    meta::MetaResult r = Run(p.name);
    EXPECT_FALSE(r.inconclusive) << p.name << ": " << r.Summary();
    EXPECT_EQ(r.verified, p.expect_verified) << p.name << ":\n" << p.source << r.Summary();
    if (r.verified) {
      ++verified;
      continue;
    }
    ++refuted;
    ASSERT_FALSE(r.violations.empty()) << p.name << ": " << r.Summary();
    EXPECT_TRUE(Replays(p.name, r.violations.front())) << p.name << ": " << r.Summary();
  }
  // The oracle is only exercised if the corpus holds both verdicts.
  EXPECT_GT(verified, 0);
  EXPECT_GT(refuted, 0);
}

}  // namespace
}  // namespace icarus
