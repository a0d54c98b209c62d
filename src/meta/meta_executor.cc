#include "src/meta/meta_executor.h"

#include <algorithm>

#include "src/obs/metrics.h"
#include "src/sym/solver_cache.h"
#include "src/obs/trace.h"
#include "src/support/str_util.h"
#include "src/support/timing.h"

namespace icarus::meta {

namespace {

constexpr int kMaxInterpSteps = 4096;

}  // namespace

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

bool MetaExecutor::RunInterpreterPhase(exec::EvalContext& ctx, const MetaStub& stub) {
  using exec::PathStatus;
  exec::EmitState& emits = ctx.emits();
  int pc = 0;
  int steps = 0;
  bool bailed_out = false;
  bool returned = false;
  while (pc < static_cast<int>(emits.target.size())) {
    if (++steps > kMaxInterpSteps) {
      ctx.FailPath("interpreter step limit exceeded (runaway stub control flow)",
                   "<interpreter>", 0);
      return false;
    }
    const exec::Instr& instr = emits.target[static_cast<size_t>(pc)];
    const ast::FunctionDecl* cb = stub.interpreter->FindCallback(instr.op);
    if (cb == nullptr) {
      ctx.FailPath(StrCat("no interpreter semantics for target op ", instr.op->name),
                   "<interpreter>", 0);
      return false;
    }
    int goto_label = -1;
    exec::Evaluator::RunInterpreterOp(ctx, cb, instr, &goto_label);
    if (ctx.status() != PathStatus::kCompleted) {
      return false;
    }
    if (ctx.stub_return_requested) {
      ctx.stub_return_requested = false;
      returned = true;
      break;
    }
    if (goto_label >= 0) {
      const exec::LabelInfo& label = emits.labels[static_cast<size_t>(goto_label)];
      if (label.is_failure) {
        bailed_out = true;
        break;
      }
      if (label.target == exec::kLabelUnbound) {
        ctx.FailPath("jump to an unbound label", "<interpreter>", 0);
        return false;
      }
      pc = label.target;
      continue;
    }
    ++pc;
  }
  // Exit invariants (§4.2): the native stack must be balanced and saved
  // registers restored on *every* exit, including bail-outs.
  Status stack = ctx.machine().CheckStackBalanced(bailed_out ? "bail-out" : "stub exit");
  if (!stack.ok()) {
    ctx.FailPath(stack.message(), "<interpreter>", 0);
    return false;
  }
  // On a successful IC return the output register must hold a boxed Value.
  if (returned) {
    StatusOr<machine::RegVal> out = ctx.machine().ReadReg(
        machine::MachineState::OutputReg(), machine::RegContent::kValue, "stub exit");
    if (!out.ok()) {
      ctx.FailPath(out.status().message(), "<interpreter>", 0);
      return false;
    }
  }
  return true;
}

MetaResult MetaExecutor::Run(const MetaStub& stub) {
  using exec::PathStatus;
  MetaResult result;
  WallTimer timer;
  // One persistent solver across every path — and every Run() — of this
  // executor: the Tseitin encoding and every clause learned on one path
  // carry over to its siblings (paths of a generator share most of their
  // path condition), which is where the CDCL core's cross-query speedup
  // comes from. Repeated runs of the same generator re-mint identical terms
  // (deterministic exploration + per-path fresh-counter reset), so the warm
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

  std::vector<std::vector<bool>> worklist;
  worklist.push_back({});

  while (!worklist.empty()) {
    if (cancel_ != nullptr && cancel_->load(std::memory_order_relaxed)) {
      result.cancelled = true;
      result.inconclusive = true;
      result.limit_notes.push_back(
          StrCat("cancelled (deadline) with ", worklist.size(), " paths unexplored"));
      break;
    }
    if (result.paths_explored >= limits_.max_paths) {
      result.inconclusive = true;
      result.limit_notes.push_back(StrCat("path budget (", limits_.max_paths,
                                          ") exhausted in ", stub.generator->name));
      break;
    }
    std::vector<bool> trace = std::move(worklist.back());
    worklist.pop_back();

    exec::EvalContext ctx(module_, &pool, externs_);
    ctx.set_solver(&solver);
    ctx.set_recording(recording_);
    ctx.set_max_events(static_cast<size_t>(limits_.max_path_events));
    ctx.StartPath(std::move(trace));
    ctx.set_source_emit_hook(
        [&stub](exec::EvalContext& hook_ctx, const exec::Instr& instr) -> Status {
          const ast::FunctionDecl* cb = stub.compiler->FindCallback(instr.op);
          if (cb == nullptr) {
            return Status::Error(
                StrCat("no compiler callback for source op ", instr.op->name));
          }
          exec::Evaluator::RunFunction(hook_ctx, cb, instr.args);
          return Status::Ok();
        });

    ++result.paths_explored;

    // Phase 1: generate.
    WallTimer phase_timer;
    std::vector<exec::Value> args;
    Status input_status = stub.inputs(ctx, &args);
    ICARUS_REQUIRE_MSG(input_status.ok(), input_status.message());
    exec::Value decision;
    if (ctx.status() == PathStatus::kCompleted) {
      obs::ScopedSpan gen_span("meta.generate", stub.generator->name);
      decision = exec::Evaluator::RunFunction(ctx, stub.generator, std::move(args));
    }
    const double gen_wall = phase_timer.ElapsedSeconds();
    const double gen_solve = ctx.solver_seconds();

    // Phase 2: interpret (only when a stub was attached).
    phase_timer.Reset();
    if (ctx.status() == PathStatus::kCompleted) {
      ICARUS_REQUIRE_MSG(decision.term != nullptr, "generator returned no attach decision");
      ICARUS_REQUIRE_MSG(decision.term->kind == sym::Kind::kConstInt,
                         "AttachDecision must be path-concrete");
      if (decision.term->value == stub.attach_index) {
        ++result.paths_attached;
        if (obs::Enabled()) {
          static obs::Histogram* buffer_len = obs::Registry::Global().GetHistogram(
              "icarus_meta_buffer_len", "Target-buffer length per attached path");
          buffer_len->Observe(static_cast<double>(ctx.emits().target.size()));
        }
        Status bound = ctx.emits().CheckAllBound();
        if (!bound.ok()) {
          ctx.FailPath(bound.message(), stub.generator->name, 0);
        } else {
          if (attached_path_hook_) {
            attached_path_hook_(ctx);
          }
          obs::ScopedSpan interp_span("meta.interpret", stub.generator->name);
          RunInterpreterPhase(ctx, stub);
        }
      }
    }
    const double path_solve = ctx.solver_seconds();
    result.gen_seconds += std::max(0.0, gen_wall - gen_solve);
    result.interp_seconds += std::max(0.0, phase_timer.ElapsedSeconds() - (path_solve - gen_solve));
    result.solve_seconds += path_solve;

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
      case PathStatus::kViolation: {
        if (static_cast<int>(result.violations.size()) < limits_.max_violations) {
          exec::Violation v = ctx.violation();
          // Flight recorder: the structured counterexample. Branch decisions
          // identify the path (replayable — path exploration is
          // deterministic re-execution), the op sequences are the stub the
          // path built, and the symbolic-input names anchor the witnesses
          // already captured by CheckAssert to the values the replay harness
          // must pin.
          v.decisions = ctx.trace();
          for (const exec::Instr& i : ctx.emits().source_trace) {
            v.source_ops.push_back(i.op->name);
          }
          for (const exec::Instr& i : ctx.emits().target) {
            v.target_ops.push_back(i.op->name);
          }
          for (const auto& [name, term] : ctx.symbolic_inputs()) {
            v.symbolic_inputs.push_back(name);
          }
          v.events = ctx.events();
          v.events_dropped = ctx.events_dropped();
          // Attach the emitted-stub shape for the (legacy) textual report.
          std::vector<std::string> ops;
          for (const exec::Instr& i : ctx.emits().source_trace) {
            ops.push_back(i.op->name);
          }
          if (!ops.empty()) {
            v.notes.push_back(StrCat("stub (source ops): ", Join(ops, " ; ")));
          }
          ops.clear();
          for (const exec::Instr& i : ctx.emits().target) {
            ops.push_back(i.op->name);
          }
          if (!ops.empty()) {
            v.notes.push_back(StrCat("stub (target ops): ", Join(ops, " ; ")));
          }
          result.violations.push_back(std::move(v));
        }
        break;
      }
    }
    result.paths_forked += static_cast<int>(ctx.pending_alternatives().size());
    for (const std::vector<bool>& alt : ctx.pending_alternatives()) {
      worklist.push_back(alt);
    }
  }

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
  if (obs::Enabled()) {
    static obs::Counter* explored = obs::Registry::Global().GetCounter(
        "icarus_meta_paths_explored_total", "Meta-execution paths explored");
    static obs::Counter* forked = obs::Registry::Global().GetCounter(
        "icarus_meta_paths_forked_total", "Alternative paths enqueued by symbolic branches");
    static obs::Counter* infeasible = obs::Registry::Global().GetCounter(
        "icarus_meta_paths_infeasible_total", "Paths pruned as infeasible");
    static obs::Counter* attached = obs::Registry::Global().GetCounter(
        "icarus_meta_paths_attached_total", "Paths on which a stub attached");
    static obs::Counter* limited = obs::Registry::Global().GetCounter(
        "icarus_meta_paths_limited_total", "Paths abandoned on a resource limit");
    explored->Add(result.paths_explored);
    forked->Add(result.paths_forked);
    infeasible->Add(result.paths_infeasible);
    attached->Add(result.paths_attached);
    limited->Add(result.paths_limited);
  }
  return result;
}

}  // namespace icarus::meta
