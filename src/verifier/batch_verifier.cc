#include "src/verifier/batch_verifier.h"

#include <atomic>
#include <chrono>
#include <exception>
#include <future>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "src/ast/fingerprint.h"
#include "src/meta/path_recorder.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/support/file_lock.h"
#include "src/support/str_util.h"
#include "src/support/thread_pool.h"
#include "src/support/timing.h"
#include "src/sym/cache_store.h"
#include "src/verifier/journal.h"
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
    out += StrFormat("%d cached safe (unchanged units skipped via the incremental store)\n",
                     NumWithOutcome(Outcome::kCachedSafe));
  }
  if (num_resumed > 0) {
    out += StrFormat("%d verdicts restored from journal\n", num_resumed);
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
      out += StrCat("--- ", r.generator, r.resumed ? " (from journal)" : "", " ---\n");
      out += meta::RenderCounterexample(v);
      // Resumed rows keep pre-rendered context in notes (no live witnesses).
      if (r.resumed) {
        for (const std::string& note : v.notes) {
          out += StrCat("  ", note, "\n");
        }
      }
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
  SampleStats stats = ComputeStats(row_seconds);
  out += StrFormat("per-generator seconds: p50 %.4f, p90 %.4f, p99 %.4f (n=%d)\n", stats.p50,
                   stats.p90, stats.p99, static_cast<int>(row_seconds.size()));
  if (read_only_cache) {
    out += "persistent cache: READ-ONLY (advisory lock held elsewhere; stores not "
           "written back)\n";
  }
  return out;
}

GeneratorResult VerifyOne(const platform::Platform* platform, const std::string& name,
                          const VerifyOptions& options) {
  GeneratorResult result;
  result.generator = name;
  WallTimer timer;
  if (options.cancel != nullptr && options.cancel->load(std::memory_order_relaxed)) {
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
  if (!result.report.meta.violations.empty()) {
    result.outcome = Outcome::kRefuted;
  } else if (result.report.inconclusive) {
    result.outcome = Outcome::kInconclusive;
  } else {
    result.outcome = Outcome::kVerified;
  }
  return result;
}

namespace {

// Containment boundary helper: the INTERNAL_ERROR row for a task that threw.
GeneratorResult ContainedCrash(const std::string& name, const char* what) {
  if (obs::Enabled()) {
    static obs::Counter* contained = obs::Registry::Global().GetCounter(
        "icarus_batch_contained_faults_total",
        "Task crashes contained to an INTERNAL_ERROR row");
    contained->Add(1);
  }
  GeneratorResult result;
  result.generator = name;
  result.outcome = Outcome::kInternalError;
  result.error = what;
  return result;
}

}  // namespace

JournalRecord RecordFromResult(const GeneratorResult& r, const std::string& fingerprint) {
  JournalRecord rec;
  rec.platform = fingerprint;
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

StatusOr<GeneratorResult> ResultFromRecord(const JournalRecord& rec) {
  GeneratorResult r;
  r.generator = rec.generator;
  if (!OutcomeFromName(rec.outcome, &r.outcome)) {
    return Status::Error(StrCat("journal record for '", rec.generator,
                                "' has unknown outcome '", rec.outcome, "'"));
  }
  r.error = rec.error;
  r.seconds = rec.seconds;
  r.resumed = true;
  r.report.generator = rec.generator;
  r.report.meta.paths_explored = static_cast<int>(rec.paths);
  r.report.meta.solver_queries = rec.queries;
  r.report.meta.gen_seconds = rec.gen_s;
  r.report.meta.interp_seconds = rec.interp_s;
  r.report.meta.solve_seconds = rec.solve_s;
  r.report.meta.solver_decisions = rec.decisions;
  r.report.meta.solver_propagations = rec.propagations;
  r.report.meta.solver_learned_clauses = rec.learned_clauses;
  r.report.meta.solver_restarts = rec.restarts;
  r.report.meta.paths_attached = static_cast<int>(rec.paths_attached);
  r.report.meta.paths_infeasible = static_cast<int>(rec.paths_infeasible);
  r.unit_fp = rec.unit_fp;
  r.budget_decisions = rec.budget_decisions;
  // Reconstruct the journaled counterexample so a resumed REFUTED row still
  // renders and reports. The witness summary and decision string come back
  // pre-rendered (the journal stores the wire form, not Witness structs);
  // they land in notes and decisions respectively.
  if (!rec.cx_contract.empty()) {
    exec::Violation v;
    v.message = rec.cx_contract;
    v.function = rec.cx_function;
    v.line = rec.cx_line;
    if (!rec.cx_witnesses.empty()) {
      v.notes.push_back(StrCat("witnesses: ", rec.cx_witnesses));
    }
    if (!rec.cx_source_ops.empty()) {
      v.notes.push_back(StrCat("stub (source ops): ", rec.cx_source_ops));
    }
    if (!rec.cx_target_ops.empty()) {
      v.notes.push_back(StrCat("stub (target ops): ", rec.cx_target_ops));
    }
    v.decisions.reserve(rec.cx_decisions.size());
    for (char c : rec.cx_decisions) {
      v.decisions.push_back(c == 'T');
    }
    r.report.meta.violations.push_back(std::move(v));
  }
  return r;
}

StatusOr<BatchReport> BatchVerifier::VerifyAll(const std::vector<std::string>& generator_names,
                                               const BatchOptions& options) {
  BatchReport report;
  report.jobs = options.jobs > 0 ? options.jobs : ThreadPool::DefaultConcurrency();
  report.results.resize(generator_names.size());

  // Journal plumbing. The fingerprint binds both the records we write and the
  // records we accept to this exact platform.
  std::string fingerprint;
  if (!options.journal_path.empty() || !options.resume_path.empty()) {
    fingerprint = platform_->Fingerprint();
  }
  std::unordered_map<std::string, GeneratorResult> restored;
  if (!options.resume_path.empty()) {
    StatusOr<std::vector<JournalRecord>> records =
        ReadJournal(options.resume_path, fingerprint);
    if (!records.ok()) {
      return records.status();
    }
    for (const JournalRecord& rec : records.value()) {
      if (rec.epoch != kVerifierEpoch) {
        // Earned under other verifier semantics (or written before rows
        // carried an epoch): this build does not vouch for it, so the
        // generator is verified again.
        continue;
      }
      StatusOr<GeneratorResult> r = ResultFromRecord(rec);
      if (!r.ok()) {
        return r.status();
      }
      // Last record wins: a journal may hold several records for one
      // generator if an earlier resume re-verified it.
      restored[rec.generator] = r.take();
    }
  }
  std::unique_ptr<JournalWriter> journal;
  if (!options.journal_path.empty()) {
    StatusOr<std::unique_ptr<JournalWriter>> writer = JournalWriter::Open(options.journal_path);
    if (!writer.ok()) {
      return writer.status();
    }
    journal = writer.take();
  }
  std::mutex journal_mu;
  Status journal_status = Status::Ok();

  // Incremental mode: open the persistent stores and fingerprint every
  // requested unit up front (a cheap serial AST walk). Store problems are
  // notes, not errors — the run simply starts cold.
  VerdictStore store;
  std::vector<std::string> unit_fps(generator_names.size());
  std::string solver_store_path;
  bool persistence_enabled = false;
  bool store_writable = false;
  std::unique_ptr<FileLock> cache_lock;  // Held until the final store save.
  if (options.incremental) {
    Status dir = EnsureCacheDir(options.cache_dir);
    if (!dir.ok()) {
      report.notes.push_back(StrCat(dir.message(), "; running without persistence"));
    } else {
      persistence_enabled = true;
      // Advisory lock on the cache directory: two concurrent writers would
      // race the temp+rename saves and clobber each other's entries. The
      // second arrival degrades to a read-only view — it still warms from
      // the stores but never writes them back.
      FileLock::Result lock = FileLock::TryExclusive(options.cache_dir + "/lock");
      if (lock.state == FileLock::State::kAcquired) {
        store_writable = true;
        cache_lock = std::move(lock.lock);
      } else {
        report.read_only_cache = true;
        report.notes.push_back(
            StrCat(lock.message, "; cache degraded to read-only (stores not written back)"));
        if (obs::Enabled()) {
          static obs::Counter* degraded = obs::Registry::Global().GetCounter(
              "icarus_cache_readonly_degraded_total",
              "Runs degraded to a read-only cache view by advisory-lock contention");
          degraded->Add(1);
        }
      }
      solver_store_path = SolverCacheStorePath(options.cache_dir);
      VerdictStore::LoadResult loaded =
          store.Load(VerdictStorePath(options.cache_dir), kVerifierEpoch);
      if (!loaded.note.empty()) {
        report.notes.push_back(loaded.note);
      }
    }
    for (size_t i = 0; i < generator_names.size(); ++i) {
      StatusOr<ast::Fingerprint> fp =
          ast::UnitFingerprint(platform_->module(), generator_names[i]);
      if (fp.ok()) {
        // An unfingerprintable name stays empty: never skipped, never stored;
        // the task itself reports the (unknown-generator) error.
        unit_fps[i] = fp.value().ToHex();
      }
    }
  }

  std::unique_ptr<sym::SolverCache> cache;
  if (options.use_cache) {
    cache = std::make_unique<sym::SolverCache>();
    if (persistence_enabled) {
      sym::CacheLoadResult loaded =
          sym::LoadSolverCache(solver_store_path, kVerifierEpoch, cache.get());
      if (!loaded.note.empty()) {
        report.notes.push_back(loaded.note);
      }
    }
  }
  std::atomic<bool> cancel{false};
  VerifyOptions vopts;
  vopts.solver_cache = cache.get();
  vopts.solver_limits = options.solver_limits;
  vopts.cancel = &cancel;
  vopts.record = options.record;
  WallTimer timer;
  {
    ThreadPool pool(report.jobs);
    std::vector<std::future<void>> futures;
    std::vector<size_t> submitted;  // results index per future.
    futures.reserve(generator_names.size());
    int journal_appends = 0;  // Guarded by journal_mu; drives checkpoints.
    for (size_t i = 0; i < generator_names.size(); ++i) {
      auto it = restored.find(generator_names[i]);
      if (it != restored.end()) {
        report.results[i] = it->second;
        ++report.num_resumed;
        continue;
      }
      if (options.incremental) {
        const JournalRecord* pass =
            store.FindPass(generator_names[i], unit_fps[i], options.solver_limits);
        if (pass != nullptr) {
          // Unchanged unit, same budget, previously VERIFIED: skip the
          // dispatch outright. The row carries no work counters — nothing
          // ran — only the identity that justified the skip.
          GeneratorResult skip;
          skip.generator = generator_names[i];
          skip.outcome = Outcome::kCachedSafe;
          skip.unit_fp = unit_fps[i];
          skip.budget_decisions = options.solver_limits.max_decisions;
          skip.report.generator = generator_names[i];
          if (obs::Enabled()) {
            static obs::Counter* skips = obs::Registry::Global().GetCounter(
                "icarus_incremental_skips_total",
                "Generators skipped as CACHED_SAFE by the persistent verdict store");
            skips->Add(1);
          }
          if (journal != nullptr) {
            std::lock_guard<std::mutex> lock(journal_mu);
            Status st = journal->Append(RecordFromResult(skip, fingerprint));
            if (!st.ok() && journal_status.ok()) {
              journal_status = st;
            }
          }
          report.results[i] = std::move(skip);
          continue;
        }
      }
      submitted.push_back(i);
      WallTimer queue_timer;  // Copied into the task: measures submit → start.
      futures.push_back(pool.Submit([this, &generator_names, &options, &vopts, &report,
                                     &journal, &journal_mu, &journal_status, &journal_appends,
                                     &fingerprint, &unit_fps, &solver_store_path, store_writable,
                                     cache_ptr = cache.get(), queue_timer, i]() {
        if (obs::Enabled()) {
          static obs::Histogram* queue_wait = obs::Registry::Global().GetHistogram(
              "icarus_batch_queue_wait_seconds",
              "Delay between task submission and a worker picking it up");
          queue_wait->Observe(queue_timer.ElapsedSeconds());
        }
        obs::ScopedSpan task_span("batch.task", generator_names[i]);
        // Containment boundary: a crash in one generator's pipeline (an
        // ICARUS_REQUIRE/ICARUS_BUG violation or an injected fault) becomes
        // that generator's INTERNAL_ERROR row; the fleet keeps running.
        GeneratorResult result;
        try {
          result = VerifyOne(platform_, generator_names[i], vopts);
        } catch (const std::exception& e) {
          result = ContainedCrash(generator_names[i], e.what());
        }
        if (options.incremental) {
          result.unit_fp = unit_fps[i];
          result.budget_decisions = options.solver_limits.max_decisions;
        }
        if (journal != nullptr) {
          std::lock_guard<std::mutex> lock(journal_mu);
          Status st = journal->Append(RecordFromResult(result, fingerprint));
          if (!st.ok() && journal_status.ok()) {
            journal_status = st;
          }
          // Journal checkpoint: periodically flush the solver cache so a run
          // killed mid-fleet still warms the next one. Best-effort — a failed
          // checkpoint never fails the run (the final save reports instead).
          if (store_writable && !solver_store_path.empty() && cache_ptr != nullptr &&
              ++journal_appends % 8 == 0) {
            (void)sym::SaveSolverCache(*cache_ptr, solver_store_path, kVerifierEpoch,
                                       options.cache_max_mb * 1024 * 1024);
          }
        }
        report.results[i] = std::move(result);
      }));
    }
    if (options.deadline_seconds > 0.0 || options.interrupt != nullptr) {
      bool deadline_active = options.deadline_seconds > 0.0;
      auto deadline = DeadlineAfter(deadline_active ? options.deadline_seconds : 0.0);
      // Poll in short slices so an external interrupt (SIGINT/SIGTERM flag)
      // is noticed within ~50ms even while futures are far from done. Once
      // either trigger fires, flip the flag once and stop polling: every
      // running task stops at its next path boundary and every queued task
      // returns inconclusive on entry.
      bool cancelled = false;
      for (std::future<void>& f : futures) {
        while (!cancelled) {
          if (options.interrupt != nullptr &&
              options.interrupt->load(std::memory_order_relaxed)) {
            cancel.store(true, std::memory_order_relaxed);
            report.interrupted = true;
            cancelled = true;
            break;
          }
          if (deadline_active && std::chrono::steady_clock::now() >= deadline) {
            cancel.store(true, std::memory_order_relaxed);
            report.deadline_hit = true;
            cancelled = true;
            break;
          }
          if (f.wait_for(std::chrono::milliseconds(50)) == std::future_status::ready) {
            break;
          }
        }
        if (cancelled) {
          break;
        }
      }
    }
    for (size_t k = 0; k < futures.size(); ++k) {
      try {
        futures[k].get();
      } catch (const std::exception& e) {
        // The task body is already contained, so an exception here means the
        // fault fired before the body ran (e.g. the pool-task fail point).
        // Contain it the same way; note it is not journaled — a resumed run
        // re-verifies this generator, which is the correct recovery.
        report.results[submitted[k]] = ContainedCrash(generator_names[submitted[k]], e.what());
      }
    }
  }
  report.wall_seconds = timer.ElapsedSeconds();
  if (!journal_status.ok()) {
    // The run finished but its durability contract is broken; fail loudly
    // rather than hand back a journal missing verdicts.
    return journal_status;
  }
  if (cache != nullptr) {
    report.cache = cache->Snapshot();
  }
  if (options.incremental && persistence_enabled && store_writable) {
    // Write back: fresh PASSes enter the verdict store (keyed by generator;
    // the record carries the unit fingerprint and budget that earned them),
    // then both stores land on disk atomically. Failures are notes — the
    // verdicts themselves are correct and already reported.
    for (const GeneratorResult& r : report.results) {
      if (r.outcome == Outcome::kVerified) {
        store.Put(RecordFromResult(r, kVerifierEpoch));
      }
    }
    Status saved = store.Save(VerdictStorePath(options.cache_dir));
    if (!saved.ok()) {
      report.notes.push_back(saved.message());
    }
    if (cache != nullptr) {
      Status cache_saved = sym::SaveSolverCache(*cache, solver_store_path, kVerifierEpoch,
                                                options.cache_max_mb * 1024 * 1024);
      if (!cache_saved.ok()) {
        report.notes.push_back(cache_saved.message());
      }
    }
  }
  return report;
}

StatusOr<BatchReport> BatchVerifier::VerifyEverything(const BatchOptions& options) {
  std::vector<std::string> names;
  for (const ast::FunctionDecl* fn : platform_->module().Generators()) {
    names.push_back(fn->name);
  }
  return VerifyAll(names, options);
}

}  // namespace icarus::verifier
