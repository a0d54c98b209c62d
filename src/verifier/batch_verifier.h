// Parallel verification driver: verifies a fleet of generators concurrently
// on a FIFO thread pool, with a shared solver-result cache, a per-query
// decision budget and a fleet-level deadline.
//
// Each generator is one task; tasks are independent (each owns its ExprPool
// and machine state; the Platform is shared read-only), so verdicts are
// deterministic and identical to the serial driver's. The shared SolverCache
// lets tasks reuse solver work across paths, runs, and generators that share
// CacheIR prefixes. A fleet deadline flips a cancel flag that running tasks
// observe between paths, degrading stragglers to "inconclusive" instead of
// hanging the batch. See docs/ARCHITECTURE.md §"Batch driver".
#ifndef ICARUS_VERIFIER_BATCH_VERIFIER_H_
#define ICARUS_VERIFIER_BATCH_VERIFIER_H_

#include <atomic>
#include <string>
#include <vector>

#include "src/sym/solver.h"
#include "src/sym/solver_cache.h"
#include "src/verifier/journal.h"
#include "src/verifier/verifier.h"

namespace icarus::verifier {

// Knobs for one batch run.
struct BatchOptions {
  // Worker threads; <= 0 selects ThreadPool::DefaultConcurrency().
  int jobs = 0;
  // Share one solver-result cache across all tasks.
  bool use_cache = true;
  // Fleet-level wall-clock deadline in seconds; 0 = none. On expiry, running
  // tasks stop at their next path boundary and unfinished generators are
  // reported inconclusive — never silently dropped.
  double deadline_seconds = 0.0;
  // Per-query solver decision budget applied inside every task. A query
  // over budget degrades its generator to INCONCLUSIVE.
  sym::Solver::Limits solver_limits;
  // When non-empty, append each verdict to this JSONL journal as it lands
  // (fsync'd per record; see journal.h). A run killed mid-flight loses at
  // most the record being written.
  std::string journal_path;
  // When non-empty, read this journal first and skip every generator it
  // already holds a verdict for, restoring the journaled rows. Refused when
  // the journal's platform fingerprint differs from the loaded platform.
  // Rows from another verifier epoch (kVerifierEpoch) are not restored.
  std::string resume_path;
  // Flight recorder: keep bounded per-path event logs, attached to any
  // violation found (consumed by `verify-all --explain`). The structured
  // counterexample is captured either way.
  bool record = false;
  // Incremental mode: consult and maintain the persistent stores under
  // `cache_dir` (verdict store + solver-result cache; see
  // verdict_store.h / sym/cache_store.h). A generator whose verification-
  // unit fingerprint and solver budget match a stored PASS is skipped and
  // reported CACHED_SAFE; everything else verifies normally and fresh PASSes
  // are written back. Store load problems degrade to a cold run with a note
  // in BatchReport::notes, never an error.
  bool incremental = false;
  std::string cache_dir = ".icarus-cache";
  // Size bound (MiB) for the persisted solver cache; LRU-evicted at save
  // time. <= 0 means unbounded.
  int64_t cache_max_mb = 64;
  // External interruption (SIGINT/SIGTERM in the CLI): when non-null and it
  // becomes true, the fleet is cancelled exactly like a deadline expiry —
  // running tasks stop at their next path boundary, unfinished generators
  // report INCONCLUSIVE, and every verdict that landed is already fsync'd in
  // the journal, so the run can be resumed with --resume. The pointee must
  // outlive VerifyAll; it may be flipped from a signal handler.
  const std::atomic<bool>* interrupt = nullptr;
};

// How one generator's verification concluded.
enum class Outcome {
  kVerified,       // All paths proven safe.
  kRefuted,        // A counterexample was found.
  kInconclusive,   // A budget or the fleet deadline prevented a verdict.
  kError,          // Pipeline error (unknown generator, malformed platform).
  kInternalError,  // The task crashed (bug or injected fault) and was contained.
  kCachedSafe,     // Incremental skip: a stored PASS for an unchanged unit
                   // under the same solver budget (stands for kVerified).
};

// Renders e.g. "VERIFIED" / "COUNTEREXAMPLE" / "INCONCLUSIVE" / "ERROR" /
// "INTERNAL_ERROR" / "CACHED_SAFE".
const char* OutcomeName(Outcome outcome);

// Inverse of OutcomeName; returns false for an unknown token.
bool OutcomeFromName(const std::string& name, Outcome* out);

// One row of the batch report.
struct GeneratorResult {
  std::string generator;
  Outcome outcome = Outcome::kError;
  std::string error;    // Set when outcome is kError / kInternalError.
  VerifyReport report;  // Valid unless outcome is kError / kInternalError.
  double seconds = 0.0; // Wall-clock for this task (queue wait excluded).
  bool resumed = false; // Row restored from a journal, not recomputed.
  // Incremental verification: the unit's content fingerprint (hex; empty in
  // non-incremental runs) and the decision budget the run was configured with.
  // Journaled (schema v4) and matched by the verdict store.
  std::string unit_fp;
  int64_t budget_decisions = 0;
};

// Aggregate result of BatchVerifier::VerifyAll.
struct BatchReport {
  std::vector<GeneratorResult> results;  // Same order as the input list.
  int jobs = 1;
  double wall_seconds = 0.0;  // End-to-end batch wall clock.
  bool deadline_hit = false;
  bool interrupted = false;  // BatchOptions::interrupt fired mid-run.
  int num_resumed = 0;  // Rows restored from the resume journal.
  sym::SolverCacheStats cache;  // Zero-valued when the cache was disabled.
  // Another process held the advisory cache lock: this run warmed from the
  // persistent stores but could not write them back. Surfaced in --stats and
  // as an obs counter so fleet tooling can detect silently-cold writers.
  bool read_only_cache = false;
  // Incremental-mode diagnostics (store load notes, save failures). Rendered
  // after the table; empty outside --incremental runs.
  std::vector<std::string> notes;

  // Outcome counts over `results`.
  int NumWithOutcome(Outcome outcome) const;
  // Multi-line summary table: one row per generator plus aggregate footer.
  std::string RenderTable() const;
  // Flight-recorder rendering: one explain block (see
  // meta::RenderCounterexample) per violation of every refuted row. Resumed
  // rows render from their journaled counterexample fields.
  std::string RenderExplain() const;
  // Cost-attribution table: per-generator stage breakdown (generate,
  // interpret, solver), decision/query counts, and the dominant
  // stage, plus aggregate and tail-percentile footers. Stage columns are 0
  // for rows resumed from a schema-1 journal (written before the breakdown
  // existed).
  std::string RenderStatsTable() const;
};

// Verifies one generator and maps the report to its row: the per-unit path
// shared by the batch driver's tasks and the daemon's workers. If
// `options.cancel` is already set on entry, the row is INCONCLUSIVE and
// nothing runs. A pipeline error becomes an ERROR row; exceptions propagate
// to the caller's containment boundary.
GeneratorResult VerifyOne(const platform::Platform* platform, const std::string& name,
                          const VerifyOptions& options);

// Converts one batch row to its journal record (stamped with
// kVerifierEpoch, including the flight-recorder counterexample fields for
// refuted rows) and back. Public because `verify-all --report` renders its
// in-memory results without round-tripping through a journal file.
JournalRecord RecordFromResult(const GeneratorResult& r, const std::string& fingerprint);
StatusOr<GeneratorResult> ResultFromRecord(const JournalRecord& rec);

// Drives Verifier over many generators concurrently. Thread-compatible: use
// one BatchVerifier per batch run.
//
// Fault containment: each generator task runs inside a containment boundary —
// a pipeline Status error becomes an ERROR row and a thrown exception
// (ICARUS_REQUIRE/ICARUS_BUG violations, injected faults) becomes an
// INTERNAL_ERROR row. One crashing generator never takes down the fleet; the
// remaining tasks run to completion. See docs/ARCHITECTURE.md §"Failure
// domains".
class BatchVerifier {
 public:
  // `platform` must outlive the batch verifier.
  explicit BatchVerifier(const platform::Platform* platform) : platform_(platform) {}

  // Verifies every generator in `generator_names` (order of the report rows
  // matches the input order regardless of scheduling). Errors only on
  // journal problems (unreadable/corrupt/mismatched resume journal,
  // unwritable journal path) — per-generator failures are report rows, never
  // errors.
  StatusOr<BatchReport> VerifyAll(const std::vector<std::string>& generator_names,
                                  const BatchOptions& options = BatchOptions());

  // Convenience: every generator declared by the platform (Figure-12 set,
  // extensions, and the buggy/fixed study pairs).
  StatusOr<BatchReport> VerifyEverything(const BatchOptions& options = BatchOptions());

 private:
  const platform::Platform* platform_;
};

}  // namespace icarus::verifier

#endif  // ICARUS_VERIFIER_BATCH_VERIFIER_H_
