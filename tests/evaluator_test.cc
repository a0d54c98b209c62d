// Evaluator tests over a purpose-built micro platform: symbolic forking,
// assert/assume semantics, extern contracts, labels, emit plumbing, and the
// meta-executor's two-phase drive.
#include <gtest/gtest.h>

#include "src/ast/parser.h"
#include "src/ast/resolver.h"
#include "src/exec/evaluator.h"
#include "src/meta/meta_executor.h"
#include "src/support/str_util.h"
#include "src/sym/solver.h"

namespace icarus::exec {
namespace {

// A single-guard micro platform (no machine builtins; pure contracts only).
constexpr char kMicro[] = R"(
enum AttachDecision { NoAction, Attach }
extern type Thing;
extern fn Thing::size(t: Thing) -> Int32
  ensures result >= 0;
extern fn Thing::kind(t: Thing) -> Int32
  ensures result >= 0
  ensures result <= 3;
extern fn Thing::readAt(t: Thing, index: Int32) -> Int32
  requires index >= 0
  requires index < Thing::size(t);

fn safeRead(t: Thing, index: Int32) -> Int32 {
  assert index >= 0;
  assert index < Thing::size(t);
  return Thing::readAt(t, index);
}

fn clampPositive(x: Int32) -> Int32 {
  if x < 0 {
    return 0;
  }
  return x;
}

fn guardedRead(t: Thing, index: Int32) -> Int32 {
  let clamped = clampPositive(index);
  if clamped < Thing::size(t) {
    return Thing::readAt(t, clamped);
  }
  return -1;
}

fn unguardedRead(t: Thing, index: Int32) -> Int32 {
  return Thing::readAt(t, index);
}

fn kindIsBounded(t: Thing) -> Bool {
  let k = Thing::kind(t);
  assert k <= 3;
  return k == 0;
}
)";

class EvaluatorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    module_ = std::make_unique<ast::Module>();
    Status st = ast::Parser::ParseInto(module_.get(), kMicro);
    ASSERT_TRUE(st.ok()) << st.message();
    st = ast::Resolve(module_.get());
    ASSERT_TRUE(st.ok()) << st.message();
  }

  // Explores all paths of `fn` on fresh symbolic inputs, with one solver
  // answering every path's queries as the meta-executor's does; returns
  // outcomes.
  struct Exploration {
    int completed = 0;
    int infeasible = 0;
    int violations = 0;
    std::string first_violation;
  };
  Exploration Explore(const std::string& fn_name) {
    const ast::FunctionDecl* fn = module_->FindFunction(fn_name);
    EXPECT_NE(fn, nullptr) << fn_name;
    Exploration result;
    sym::ExprPool pool;
    sym::Solver solver;
    std::vector<std::vector<bool>> worklist = {{}};
    int guard = 0;
    while (!worklist.empty() && ++guard < 1000) {
      std::vector<bool> trace = std::move(worklist.back());
      worklist.pop_back();
      EvalContext ctx(module_.get(), &pool, &externs_);
      ctx.set_solver(&solver);
      ctx.StartPath(std::move(trace));
      std::vector<Value> args;
      for (const ast::Param& p : fn->params) {
        args.push_back(ctx.FreshValue(p.name, p.type));
      }
      Evaluator::RunFunction(ctx, fn, std::move(args));
      switch (ctx.status()) {
        case PathStatus::kCompleted:
          ++result.completed;
          break;
        case PathStatus::kInfeasible:
          ++result.infeasible;
          break;
        default:
          ++result.violations;
          if (result.first_violation.empty()) {
            result.first_violation = ctx.violation().message;
          }
          break;
      }
      for (const auto& alt : ctx.pending_alternatives()) {
        worklist.push_back(alt);
      }
    }
    return result;
  }

  std::unique_ptr<ast::Module> module_;
  ExternRegistry externs_;
};

TEST_F(EvaluatorTest, GuardedReadVerifies) {
  Exploration r = Explore("guardedRead");
  EXPECT_EQ(r.violations, 0) << r.first_violation;
  EXPECT_GE(r.completed, 2);  // Both guard outcomes are feasible.
}

TEST_F(EvaluatorTest, UnguardedReadViolatesContract) {
  Exploration r = Explore("unguardedRead");
  EXPECT_GT(r.violations, 0);
  EXPECT_NE(r.first_violation.find("requires of Thing::readAt"), std::string::npos)
      << r.first_violation;
}

TEST_F(EvaluatorTest, SafeReadAssertsFireWithoutGuards) {
  Exploration r = Explore("safeRead");
  EXPECT_GT(r.violations, 0);
}

TEST_F(EvaluatorTest, EnsuresClausesFlowIntoPathCondition) {
  // kind(t) <= 3 comes from the extern's ensures; the assert must verify.
  // (The function is branch-free — `k == 0` is returned as a term — so the
  // whole exploration is a single path.)
  Exploration r = Explore("kindIsBounded");
  EXPECT_EQ(r.violations, 0) << r.first_violation;
  EXPECT_GE(r.completed, 1);
}

TEST_F(EvaluatorTest, ClampIsPathComplete) {
  Exploration r = Explore("clampPositive");
  EXPECT_EQ(r.violations, 0);
  EXPECT_EQ(r.completed + r.infeasible, 2);
}

TEST_F(EvaluatorTest, ConstantInputsEvaluateWithoutForking) {
  // Branches on constant conditions take their arm directly: no decision is
  // recorded and no sibling path is queued.
  sym::ExprPool pool;
  sym::Solver solver;
  EvalContext ctx(module_.get(), &pool, &externs_);
  ctx.set_solver(&solver);
  const ast::FunctionDecl* fn = module_->FindFunction("clampPositive");
  for (int64_t input : {-7, 9}) {
    ctx.StartPath({});
    Value result = Evaluator::RunFunction(
        ctx, fn, {Value::Of(module_->types().Int32(), pool.IntConst(input))});
    ASSERT_EQ(ctx.status(), PathStatus::kCompleted);
    EXPECT_EQ(result.term, pool.IntConst(input < 0 ? 0 : input));
    EXPECT_TRUE(ctx.trace().empty());
    EXPECT_TRUE(ctx.pending_alternatives().empty());
  }
}

TEST_F(EvaluatorTest, EmitStateLabelDiscipline) {
  EmitState emits;
  int label = emits.NewLabel(/*is_failure=*/false, nullptr);
  int failure = emits.NewLabel(/*is_failure=*/true, nullptr);
  EXPECT_FALSE(emits.CheckAllBound().ok());  // `label` still unbound.
  EXPECT_TRUE(emits.Bind(label).ok());
  EXPECT_TRUE(emits.CheckAllBound().ok());
  EXPECT_FALSE(emits.Bind(label).ok());    // Double bind.
  EXPECT_FALSE(emits.Bind(failure).ok());  // Failure labels are pre-bound.
  EXPECT_FALSE(emits.Bind(42).ok());       // Unknown label.
}

}  // namespace
}  // namespace icarus::exec
