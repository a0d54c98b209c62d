#include "src/meta/meta_executor.h"

#include <algorithm>

#include "src/sym/solver_cache.h"
#include "src/obs/trace.h"
#include "src/support/str_util.h"
#include "src/support/timing.h"

namespace icarus::meta {

std::string MetaResult::Summary() const {
  const char* verdict = verified ? "VERIFIED" : (violations.empty() ? "INCONCLUSIVE" : "VIOLATION");
  std::string out = StrFormat(
      "%s: %d paths (%d attached, %d infeasible), %lld solver queries, %.3fs",
      verdict, paths_explored, paths_attached, paths_infeasible,
      static_cast<long long>(solver_queries), seconds);
  for (const std::string& note : limit_notes) {
    out += StrCat("\n  inconclusive: ", note);
  }
  for (const exec::Violation& v : violations) {
    out += StrCat("\n  violation in ", v.function, " (line ", v.line, "): ", v.message);
    if (!v.model.empty()) {
      out += StrCat("\n    model:\n", Indent(v.model, 6));
    }
    for (const std::string& note : v.notes) {
      out += StrCat("\n    ", note);
    }
  }
  return out;
}

MetaExecutor::MetaExecutor(const ast::Module* module, const exec::ExternRegistry* externs)
    : module_(module), externs_(externs) {}

MetaExecutor::~MetaExecutor() = default;

namespace {

constexpr int kMaxPaths = 100000;      // A run that reaches it is inconclusive.
constexpr size_t kMaxViolations = 16;  // Stop collecting after this many.

// Appends the violation a path ended with, with its flight-recorder data.
void CollectViolation(const exec::EvalContext& ctx, MetaResult* result) {
  exec::Violation v = ctx.violation();
  // Flight recorder: the structured counterexample. Branch decisions
  // identify the path, the op sequences are the stub the path built, and
  // the symbolic-input names anchor the witnesses already captured by
  // CheckAssert to the values the replay harness must pin.
  v.decisions = ctx.decisions();
  for (const exec::Instr& i : ctx.emits().source_trace) {
    v.source_ops.emplace_back(i.op->name);
  }
  for (const exec::Instr& i : ctx.emits().target) {
    v.target_ops.emplace_back(i.op->name);
  }
  for (const auto& [name, term] : ctx.symbolic_inputs()) {
    v.symbolic_inputs.push_back(name);
  }
  v.events = ctx.events();
  v.events_dropped = ctx.events_dropped();
  // Attach the emitted-stub shape for the (legacy) textual report.
  if (!v.source_ops.empty()) {
    v.notes.push_back(StrCat("stub (source ops): ", Join(v.source_ops, " ; ")));
  }
  if (!v.target_ops.empty()) {
    v.notes.push_back(StrCat("stub (target ops): ", Join(v.target_ops, " ; ")));
  }
  result->violations.push_back(std::move(v));
}

}  // namespace

MetaResult MetaExecutor::Run(const MetaStub& stub) {
  using exec::PathStatus;
  using Stop = exec::Explorer::Stop;
  MetaResult result;
  WallTimer timer;
  // One persistent solver across every path — and every Run() — of this
  // executor: the Tseitin encoding and every clause learned on one path
  // carry over to its siblings (paths of a generator share most of their
  // path condition), which is where the CDCL core's cross-query speedup
  // comes from. Repeated runs of the same generator re-mint identical terms
  // (the same exploration order from a reset fresh counter), so the warm
  // state answers their queries almost entirely from learned clauses and the
  // run-local result cache.
  if (pool_ == nullptr) {
    pool_ = std::make_unique<sym::ExprPool>();
    solver_ = std::make_unique<sym::Solver>(solver_limits_);
    run_cache_ = std::make_unique<sym::SolverCache>();
  }
  sym::ExprPool& pool = *pool_;
  sym::Solver& solver = *solver_;
  solver.set_cache(solver_cache_ != nullptr ? solver_cache_ : run_cache_.get());
  // Persistent-solver counters accumulate across runs; report this run's
  // share as deltas.
  const sym::SolverStats stats_before = solver.stats();

  pool.ResetFresh();
  exec::EvalContext ctx(module_, &pool, externs_);
  ctx.set_solver(&solver);
  ctx.set_recording(recording_);
  exec::Explorer explorer(&ctx);
  explorer.set_compiler(stub.compiler);

  // Counts a path that may start, or notes why the run stops instead.
  auto begin_path = [&](size_t unexplored) {
    if (cancel_ != nullptr && cancel_->Stop()) {
      result.cancelled = true;
      result.inconclusive = true;
      result.limit_notes.push_back(
          StrCat("cancelled (deadline) with ", unexplored, " paths unexplored"));
      return false;
    }
    if (result.paths_explored >= kMaxPaths) {
      result.inconclusive = true;
      result.limit_notes.push_back(StrCat("path budget (", kMaxPaths,
                                          ") exhausted in ", stub.generator->name));
      return false;
    }
    ++result.paths_explored;
    return true;
  };
  // The choice-point depth at which the current path attached, or -1: paths
  // resumed from a deeper choice point fork inside its interpreter phase, so
  // they attached too. `attached_view` is the context as it was there, for
  // the hook.
  int attach_depth = -1;
  std::unique_ptr<exec::EvalContext> attached_view;

  bool more = begin_path(1);
  if (more) {
    // The root of every path: the inputs, then the generator call.
    WallTimer phase_timer;
    obs::ScopedSpan gen_span("meta.generate", stub.generator->name);
    std::vector<exec::Value> args;
    Status input_status = stub.inputs(ctx, &args);
    ICARUS_REQUIRE_MSG(input_status.ok(), input_status.message());
    explorer.Call(stub.generator, args);
    result.gen_seconds += phase_timer.ElapsedSeconds();
  }
  // Every path after the first starts by backtracking into the phase of the
  // newest choice point.
  bool resume = false;
  bool resume_interpreting = false;
  while (more) {
    // Run the path: the generator phase up to its attach decision, then the
    // interpreter phase.
    for (;;) {
      WallTimer phase_timer;
      const double solve_before = ctx.solver_seconds();
      const bool interpreting = resume ? resume_interpreting : explorer.interpreting();
      exec::Value decision;
      Stop stop;
      {
        obs::ScopedSpan span(interpreting ? "meta.interpret" : "meta.generate",
                             stub.generator->name);
        if (resume) {
          explorer.Backtrack();
          resume = false;
        }
        stop = explorer.Run(&decision);
      }
      const double solve = ctx.solver_seconds() - solve_before;
      (interpreting ? result.interp_seconds : result.gen_seconds) +=
          std::max(0.0, phase_timer.ElapsedSeconds() - solve);
      if (stop != Stop::kReturned) {
        break;
      }
      ICARUS_REQUIRE_MSG(decision.term != nullptr, "generator returned no attach decision");
      ICARUS_REQUIRE_MSG(decision.term->kind == sym::Kind::kConstInt,
                         "AttachDecision must be path-concrete");
      if (decision.term->value != stub.attach_index) {
        break;
      }
      attach_depth = static_cast<int>(explorer.pending());
      ++result.paths_attached;
      Status bound = ctx.emits().CheckAllBound();
      if (!bound.ok()) {
        ctx.FailPath(bound.message(), stub.generator->name, 0);
        break;
      }
      if (attached_path_hook_) {
        attached_view = std::make_unique<exec::EvalContext>(ctx);
        attached_path_hook_(ctx);
      }
      explorer.Interpret(stub.interpreter);
    }

    // Collect the outcome.
    switch (ctx.status()) {
      case PathStatus::kCompleted:
        break;
      case PathStatus::kInfeasible:
        ++result.paths_infeasible;
        break;
      case PathStatus::kLimit:
        // Budget exhaustion is not a counterexample: record why and degrade
        // the whole result to inconclusive instead of reporting a violation.
        ++result.paths_limited;
        result.inconclusive = true;
        result.limit_notes.push_back(StrCat(ctx.violation().message, " in ",
                                            ctx.violation().function));
        break;
      case PathStatus::kViolation:
        if (result.violations.size() < kMaxViolations) {
          CollectViolation(ctx, &result);
        }
        break;
    }

    // The next path resumes at the newest choice point.
    more = explorer.pending() > 0 && begin_path(explorer.pending());
    if (!more) {
      break;
    }
    resume = true;
    resume_interpreting =
        attach_depth >= 0 && static_cast<int>(explorer.pending()) > attach_depth;
    if (resume_interpreting) {
      ++result.paths_attached;
      if (attached_path_hook_) {
        attached_path_hook_(*attached_view);
      }
    } else {
      attach_depth = -1;
      attached_view.reset();
    }
  }
  result.paths_forked = explorer.forks();
  result.solve_seconds = ctx.solver_seconds();

  result.verified = result.violations.empty() && !result.inconclusive;
  result.seconds = timer.ElapsedSeconds();
  result.solver_queries = solver.stats().queries - stats_before.queries;
  result.solver_decisions = solver.stats().decisions - stats_before.decisions;
  result.solver_propagations = solver.stats().propagations - stats_before.propagations;
  result.solver_learned_clauses =
      solver.stats().learned_clauses - stats_before.learned_clauses;
  result.solver_restarts = solver.stats().restarts - stats_before.restarts;
  result.solver_theory_conflicts =
      solver.stats().theory_conflicts - stats_before.theory_conflicts;
  result.solver_lemma_literals = solver.stats().lemma_literals - stats_before.lemma_literals;
  result.solver_levels_kept = solver.stats().levels_kept - stats_before.levels_kept;
  result.solver_theory_literals = solver.stats().theory_literals - stats_before.theory_literals;
  result.solver_budget_exhausted =
      solver.stats().budget_exhausted - stats_before.budget_exhausted;
  return result;
}

}  // namespace icarus::meta
