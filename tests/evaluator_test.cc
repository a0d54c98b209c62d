// Evaluator tests over a purpose-built micro platform: symbolic forking,
// assert/assume semantics, extern contracts, labels, emit plumbing, and the
// meta-executor's two-phase drive. Explorations backtrack at symbolic
// branches, so code before a branch runs once however many paths follow it.
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

// Host::tick has a host handler that counts its calls.
extern fn Host::tick() -> Int32;

// One call, then three independent branches and one that contradicts the
// first when it holds: 16 paths, 4 of them infeasible.
fn tickThenBranch(a: Int32, b: Int32, c: Int32) -> Int32 {
  let r = Host::tick();
  if a > 0 {
    r = r + 1;
  }
  if b > 0 {
    r = r + 2;
  }
  if c > 0 {
    r = r + 4;
  }
  if a < 0 {
    r = r + 8;
  }
  return r;
}

// A meta-stub whose interpreter callback branches twice on the generator's
// input: one generator path, three interpreter-phase paths.
language Src {
  op Check(x: Int32);
}
language Tgt {
  op Test(x: Int32, label fail);
  op Done();
}
compiler Comp : Src -> Tgt {
  op Check(x: Int32) {
    failure bail;
    emit Test(x, bail);
    emit Done();
  }
}
interpreter Interp : Tgt {
  op Test(x: Int32, label fail) {
    if x > 10 {
      goto fail;
    }
    if x < 0 {
      goto fail;
    }
  }
  op Done() {
  }
}
generator genTicked(x: Int32) emits Src {
  let t = Host::tick();
  emit Src::Check(x + t);
  return AttachDecision::Attach;
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
    externs_.Register(*module_, "Host::tick",
                      [this](EvalContext& ctx, const std::vector<Value>&) -> StatusOr<Value> {
                        ++ticks_;
                        return Value::Of(module_->types().Int32(), ctx.pool().IntConst(0));
                      });
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
    EvalContext ctx(module_.get(), &pool, &externs_);
    ctx.set_solver(&solver);
    Explorer explorer(&ctx);
    std::vector<Value> args;
    for (const ast::Param& p : fn->params) {
      args.push_back(ctx.FreshValue(p.name, p.type));
    }
    explorer.Call(fn, args);
    int guard = 0;
    do {
      Value returned;
      explorer.Run(&returned);
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
    } while (++guard < 1000 && explorer.Backtrack());
    return result;
  }

  std::unique_ptr<ast::Module> module_;
  ExternRegistry externs_;
  int ticks_ = 0;  // Calls of Host::tick's handler.
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
  // recorded and no choice point is pushed.
  sym::ExprPool pool;
  sym::Solver solver;
  const ast::FunctionDecl* fn = module_->FindFunction("clampPositive");
  for (int64_t input : {-7, 9}) {
    EvalContext ctx(module_.get(), &pool, &externs_);
    ctx.set_solver(&solver);
    Explorer explorer(&ctx);
    explorer.Call(fn, {Value::Of(module_->types().Int32(), pool.IntConst(input))});
    Value result;
    ASSERT_EQ(explorer.Run(&result), Explorer::Stop::kReturned);
    ASSERT_EQ(ctx.status(), PathStatus::kCompleted);
    EXPECT_EQ(result.term, pool.IntConst(input < 0 ? 0 : input));
    EXPECT_TRUE(ctx.decisions().empty());
    EXPECT_EQ(explorer.pending(), 0u);
    EXPECT_EQ(explorer.forks(), 0);
    EXPECT_FALSE(explorer.Backtrack());
  }
}

TEST_F(EvaluatorTest, CodeBeforeBranchesRunsOncePerExploration) {
  // Replaying each path from the root would call the host extern once per
  // path (16 times); backtracking resumes every path at its branch.
  Exploration r = Explore("tickThenBranch");
  EXPECT_EQ(ticks_, 1);
  EXPECT_EQ(r.completed, 12);
  EXPECT_EQ(r.infeasible, 4);
  EXPECT_EQ(r.violations, 0) << r.first_violation;
}

TEST_F(EvaluatorTest, GeneratorRunsOnceWhenTheInterpreterForks) {
  const ast::FunctionDecl* gen = module_->FindFunction("genTicked");
  ASSERT_NE(gen, nullptr);
  meta::MetaStub stub;
  stub.generator = gen;
  stub.compiler = module_->FindCompiler("Comp");
  stub.interpreter = module_->FindInterpreter("Interp");
  ASSERT_NE(stub.compiler, nullptr);
  ASSERT_NE(stub.interpreter, nullptr);
  stub.attach_index = module_->types().LookupEnum("AttachDecision")->IndexOf("Attach");
  stub.inputs = [gen](EvalContext& ctx, std::vector<Value>* args) -> Status {
    for (const ast::Param& p : gen->params) {
      args->push_back(ctx.FreshValue(p.name, p.type));
    }
    return Status::Ok();
  };
  meta::MetaExecutor executor(module_.get(), &externs_);
  int hooked = 0;
  executor.set_attached_path_hook([&](EvalContext& ctx) {
    ++hooked;
    EXPECT_EQ(ctx.emits().target.size(), 2u);
    EXPECT_TRUE(ctx.decisions().empty());
  });
  meta::MetaResult result = executor.Run(stub);
  EXPECT_TRUE(result.verified) << result.Summary();
  EXPECT_EQ(result.paths_explored, 3);
  EXPECT_EQ(result.paths_attached, 3);
  EXPECT_EQ(result.paths_forked, 2);
  EXPECT_EQ(hooked, 3);
  EXPECT_EQ(ticks_, 1);
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
