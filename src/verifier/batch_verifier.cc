#include "src/verifier/batch_verifier.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
#include <thread>

#include "src/meta/path_recorder.h"
#include "src/obs/trace.h"
#include "src/support/str_util.h"
#include "src/support/timing.h"
#include "src/verifier/journal.h"
#include "src/verifier/session.h"
#include "src/verifier/verdict_store.h"

namespace icarus::verifier {

const char* OutcomeName(Outcome outcome) {
  switch (outcome) {
    case Outcome::kVerified:
      return "VERIFIED";
    case Outcome::kRefuted:
      return "COUNTEREXAMPLE";
    case Outcome::kInconclusive:
      return "INCONCLUSIVE";
    case Outcome::kError:
      return "ERROR";
    case Outcome::kInternalError:
      return "INTERNAL_ERROR";
    case Outcome::kCachedSafe:
      return "CACHED_SAFE";
  }
  return "?";
}

bool OutcomeFromName(const std::string& name, Outcome* out) {
  for (Outcome o : {Outcome::kVerified, Outcome::kRefuted, Outcome::kInconclusive,
                    Outcome::kError, Outcome::kInternalError, Outcome::kCachedSafe}) {
    if (name == OutcomeName(o)) {
      *out = o;
      return true;
    }
  }
  return false;
}

bool IsExpectedOutcome(const std::string& generator, Outcome outcome) {
  if (generator.find("_buggy") != std::string::npos) {
    return outcome == Outcome::kRefuted;
  }
  return outcome == Outcome::kVerified || outcome == Outcome::kCachedSafe;
}

int BatchReport::NumWithOutcome(Outcome outcome) const {
  int n = 0;
  for (const GeneratorResult& r : results) {
    n += r.outcome == outcome ? 1 : 0;
  }
  return n;
}

std::string BatchReport::RenderTable() const {
  std::string out = StrFormat("%-44s %-15s %7s %9s %10s\n", "Generator", "Outcome", "Paths",
                              "Queries", "Time (s)");
  out += std::string(88, '-') + "\n";
  for (const GeneratorResult& r : results) {
    if (r.outcome == Outcome::kError || r.outcome == Outcome::kInternalError) {
      out += StrFormat("%-44s %-15s %s\n", r.generator.c_str(), OutcomeName(r.outcome),
                       r.error.c_str());
      continue;
    }
    out += StrFormat("%-44s %-15s %7d %9lld %10.4f\n", r.generator.c_str(),
                     OutcomeName(r.outcome), r.report.meta.paths_explored,
                     static_cast<long long>(r.report.meta.solver_queries), r.seconds);
  }
  out += std::string(88, '-') + "\n";
  out += StrFormat(
      "%d generators: %d verified, %d counterexamples, %d inconclusive, %d errors, "
      "%d internal errors\n",
      static_cast<int>(results.size()), NumWithOutcome(Outcome::kVerified),
      NumWithOutcome(Outcome::kRefuted), NumWithOutcome(Outcome::kInconclusive),
      NumWithOutcome(Outcome::kError), NumWithOutcome(Outcome::kInternalError));
  if (NumWithOutcome(Outcome::kCachedSafe) > 0) {
    out += StrFormat("%d cached safe (unchanged units restored from a stored PASS)\n",
                     NumWithOutcome(Outcome::kCachedSafe));
  }
  out += StrFormat("wall: %.3fs on %d jobs%s%s\n", wall_seconds, jobs,
                   deadline_hit ? "  (deadline hit; stragglers inconclusive)" : "",
                   interrupted ? "  (interrupted; stragglers inconclusive)" : "");
  if (cache.lookups() > 0) {
    out += cache.ToString() + "\n";
  }
  for (const std::string& note : notes) {
    out += StrCat("note: ", note, "\n");
  }
  return out;
}

std::string BatchReport::RenderExplain() const {
  std::string out;
  for (const GeneratorResult& r : results) {
    if (r.outcome != Outcome::kRefuted) {
      continue;
    }
    for (const exec::Violation& v : r.report.meta.violations) {
      out += StrCat("--- ", r.generator, " ---\n");
      out += meta::RenderCounterexample(v);
      out += "\n";
    }
  }
  if (out.empty()) {
    out = "no counterexamples to explain\n";
  }
  return out;
}

std::string BatchReport::RenderStatsTable() const {
  std::string out =
      StrFormat("%-44s %-15s %9s %8s %9s %9s %10s %8s %9s %8s %8s %-9s\n", "Generator",
                "Outcome", "Total(s)", "Gen(s)", "Interp(s)", "Solve(s)", "Decisions", "Queries",
                "Props", "Learned", "Restarts", "Dominant");
  const size_t rule_width = 159;
  out += std::string(rule_width, '-') + "\n";
  double sum_gen = 0.0;
  double sum_interp = 0.0;
  double sum_solve = 0.0;
  long long sum_decisions = 0;
  long long sum_queries = 0;
  long long sum_propagations = 0;
  long long sum_learned = 0;
  long long sum_restarts = 0;
  long long sum_levels_kept = 0;
  long long sum_theory_literals = 0;
  long long sum_exhausted = 0;
  std::vector<double> row_seconds;
  for (const GeneratorResult& r : results) {
    if (r.outcome == Outcome::kError || r.outcome == Outcome::kInternalError) {
      out += StrFormat("%-44s %-15s %s\n", r.generator.c_str(), OutcomeName(r.outcome),
                       r.error.c_str());
      continue;
    }
    const double gen = r.report.meta.gen_seconds;
    const double interp = r.report.meta.interp_seconds;
    const double solve = r.report.meta.solve_seconds;
    const char* dominant = "-";
    double best = 0.0;
    const std::pair<const char*, double> stages[] = {
        {"generate", gen}, {"interpret", interp}, {"solve", solve}};
    for (const auto& [name, seconds] : stages) {
      if (seconds > best) {
        best = seconds;
        dominant = name;
      }
    }
    out += StrFormat(
        "%-44s %-15s %9.4f %8.4f %9.4f %9.4f %10lld %8lld %9lld %8lld %8lld %-9s\n",
        r.generator.c_str(), OutcomeName(r.outcome), r.seconds, gen, interp, solve,
        static_cast<long long>(r.report.meta.solver_decisions),
        static_cast<long long>(r.report.meta.solver_queries),
        static_cast<long long>(r.report.meta.solver_propagations),
        static_cast<long long>(r.report.meta.solver_learned_clauses),
        static_cast<long long>(r.report.meta.solver_restarts), dominant);
    sum_gen += gen;
    sum_interp += interp;
    sum_solve += solve;
    sum_decisions += r.report.meta.solver_decisions;
    sum_queries += r.report.meta.solver_queries;
    sum_propagations += r.report.meta.solver_propagations;
    sum_learned += r.report.meta.solver_learned_clauses;
    sum_restarts += r.report.meta.solver_restarts;
    sum_levels_kept += r.report.meta.solver_levels_kept;
    sum_theory_literals += r.report.meta.solver_theory_literals;
    sum_exhausted += r.report.meta.solver_budget_exhausted;
    row_seconds.push_back(r.seconds);
  }
  out += std::string(rule_width, '-') + "\n";
  double sum_total = 0.0;
  for (double s : row_seconds) {
    sum_total += s;
  }
  out += StrFormat(
      "%-44s %-15s %9.4f %8.4f %9.4f %9.4f %10lld %8lld %9lld %8lld %8lld\n", "TOTAL", "",
      sum_total, sum_gen, sum_interp, sum_solve, sum_decisions, sum_queries, sum_propagations,
      sum_learned, sum_restarts);
  out += StrFormat(
      "solver reuse: %lld assumption levels kept, %lld theory literals read, %lld queries "
      "exhausted their budget\n",
      sum_levels_kept, sum_theory_literals, sum_exhausted);
  SampleStats stats = ComputeStats(row_seconds);
  out += StrFormat("per-generator seconds: p50 %.4f, p90 %.4f, p99 %.4f (n=%d)\n", stats.p50,
                   stats.p90, stats.p99, static_cast<int>(row_seconds.size()));
  if (read_only_cache) {
    out += "persistent cache: READ-ONLY (advisory lock held elsewhere; stores not "
           "written back)\n";
  }
  return out;
}

Outcome OutcomeOf(const VerifyReport& report) {
  if (!report.meta.violations.empty()) {
    return Outcome::kRefuted;
  }
  return report.inconclusive ? Outcome::kInconclusive : Outcome::kVerified;
}

GeneratorResult VerifyOne(const platform::Platform* platform, const std::string& name,
                          const VerifyOptions& options) {
  GeneratorResult result;
  result.generator = name;
  WallTimer timer;
  if (options.cancel != nullptr && options.cancel->Stop()) {
    // Deadline expired before this task started: report it honestly rather
    // than paying for a verification that would be cancelled immediately.
    result.outcome = Outcome::kInconclusive;
    result.report.generator = name;
    result.report.inconclusive = true;
    result.report.meta.inconclusive = true;
    result.report.meta.cancelled = true;
    result.report.meta.limit_notes.push_back("cancelled (deadline) before start");
    result.seconds = timer.ElapsedSeconds();
    return result;
  }
  StatusOr<VerifyReport> report = Verifier(platform).Verify(name, options);
  result.seconds = timer.ElapsedSeconds();
  if (!report.ok()) {
    result.outcome = Outcome::kError;
    result.error = report.status().message();
    return result;
  }
  result.report = report.take();
  result.outcome = OutcomeOf(result.report);
  return result;
}

JournalRecord RecordFromResult(const GeneratorResult& r) {
  JournalRecord rec;
  rec.epoch = kVerifierEpoch;
  rec.generator = r.generator;
  rec.outcome = OutcomeName(r.outcome);
  rec.error = r.error;
  rec.paths = r.report.meta.paths_explored;
  rec.queries = r.report.meta.solver_queries;
  rec.seconds = r.seconds;
  rec.gen_s = r.report.meta.gen_seconds;
  rec.interp_s = r.report.meta.interp_seconds;
  rec.solve_s = r.report.meta.solve_seconds;
  rec.decisions = r.report.meta.solver_decisions;
  rec.propagations = r.report.meta.solver_propagations;
  rec.learned_clauses = r.report.meta.solver_learned_clauses;
  rec.restarts = r.report.meta.solver_restarts;
  rec.paths_attached = r.report.meta.paths_attached;
  rec.paths_infeasible = r.report.meta.paths_infeasible;
  rec.unit_fp = r.unit_fp;
  rec.budget_decisions = r.budget_decisions;
  // Flight recorder: journal the first violation's counterexample (the
  // journal row is flat; additional violations stay in memory and in the
  // explain rendering).
  if (!r.report.meta.violations.empty()) {
    const exec::Violation& v = r.report.meta.violations.front();
    rec.cx_contract = v.message;
    rec.cx_function = v.function;
    rec.cx_line = v.line;
    rec.cx_witnesses = meta::RenderWitnessSummary(v);
    rec.cx_source_ops = Join(v.source_ops, " ; ");
    rec.cx_target_ops = Join(v.target_ops, " ; ");
    rec.cx_decisions = meta::RenderDecisionString(v.decisions);
  }
  return rec;
}

StatusOr<BatchReport> BatchVerifier::VerifyAll(const std::vector<std::string>& generator_names,
                                               const BatchOptions& options) {
  BatchReport report;
  report.jobs = options.jobs > 0
                    ? options.jobs
                    : std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  report.results.resize(generator_names.size());

  StatusOr<std::unique_ptr<Session>> opened = Session::Open(platform_, options);
  if (!opened.ok()) {
    return opened.status();
  }
  std::unique_ptr<Session> session = opened.take();

  // Every unit reads the deadline and the interrupt flag itself, at entry
  // and before each path, so nothing has to poll for them.
  const Cancellation cancel(options.interrupt, options.deadline_seconds > 0.0
                                                  ? DeadlineAfter(options.deadline_seconds)
                                                  : Cancellation::Clock::time_point::max());
  // Each job takes the next unit from one cursor until none is left, so the
  // rows land in input order whatever the schedule.
  std::atomic<size_t> next{0};
  auto work = [&] {
    for (size_t i = next++; i < generator_names.size(); i = next++) {
      try {
        obs::ScopedSpan task_span("batch.task", generator_names[i]);
        report.results[i] = session->Verify(generator_names[i], &cancel);
      } catch (const std::exception& e) {
        // The session contains the unit's pipeline; this catches a fault in
        // the bookkeeping around it (the store, the journal), which must not
        // unwind a job's thread.
        GeneratorResult& row = report.results[i];
        row = GeneratorResult();
        row.generator = generator_names[i];
        row.outcome = Outcome::kInternalError;
        row.error = e.what();
      }
    }
  };
  WallTimer timer;
  // The caller is one job; the others run beside it, never more than there
  // are units.
  std::vector<std::thread> helpers;
  const size_t threads = std::min(static_cast<size_t>(report.jobs), generator_names.size());
  for (size_t t = 1; t < threads; ++t) {
    helpers.emplace_back(work);
  }
  work();
  for (std::thread& helper : helpers) {
    helper.join();
  }
  report.deadline_hit = cancel.deadline_seen();
  report.interrupted = cancel.flag_seen();
  report.wall_seconds = timer.ElapsedSeconds();
  Status journaled = session->journal_status();
  if (!journaled.ok()) {
    // The run finished but its durability contract is broken; fail loudly
    // rather than hand back a journal missing verdicts.
    return journaled;
  }
  if (session->solver_cache() != nullptr) {
    report.cache = session->solver_cache()->Snapshot();
  }
  report.read_only_cache = session->read_only();
  report.notes = session->notes();
  // Save failures are notes: the verdicts are correct and already reported.
  Status saved = session->Close();
  if (!saved.ok()) {
    report.notes.push_back(saved.message());
  }
  return report;
}

StatusOr<BatchReport> BatchVerifier::VerifyEverything(const BatchOptions& options) {
  std::vector<std::string> names;
  for (const ast::FunctionDecl* fn : platform_->module().Generators()) {
    names.emplace_back(fn->name);
  }
  return VerifyAll(names, options);
}

}  // namespace icarus::verifier
