// Verdict journal for resumable batch runs.
//
// Format: JSON Lines — one self-contained JSON object per verdict, appended
// and fsync'd as each generator finishes, so a run killed mid-flight loses at
// most the verdict being written (a torn final line, which the reader
// tolerates). Every record carries the schema version and the platform
// fingerprint (Platform::Fingerprint()); resuming against a journal written
// by a different platform or schema is refused rather than silently mixing
// verdicts from different universes. Every row also carries the verifier
// epoch (kVerifierEpoch, verdict_store.h); a row from another epoch, or from
// before rows carried one, is never restored: resume and the daemon's replay
// verify that generator again.
//
// The record holds exactly what the batch report renders for a finished
// generator (outcome, path/query counts, wall seconds), so a resumed run
// reproduces the interrupted run's rows byte-for-byte without re-verifying.
#ifndef ICARUS_VERIFIER_JOURNAL_H_
#define ICARUS_VERIFIER_JOURNAL_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/support/status.h"

namespace icarus::verifier {

// Journal wire format version; bump on any incompatible record change.
// History:
//   1 — initial format (outcome, paths, queries, seconds, attempts).
//   2 — adds the per-stage cost breakdown (cfa_s/gen_s/interp_s/solve_s/
//       decisions). Strictly additive: a v1 record reads fine with the new
//       fields defaulting to 0, so resuming a v1 journal is still allowed
//       (kJournalMinReadSchemaVersion); its rows simply render zero costs.
//   3 — adds the flight-recorder counterexample (cx_contract/cx_function/
//       cx_line/cx_witnesses/cx_source_ops/cx_target_ops/cx_decisions, only
//       present on REFUTED rows) and the path-outcome counters
//       (paths_attached/paths_infeasible). Additive again: the parser skips
//       unknown keys, so v1/v2 records read fine with empty counterexamples.
//   4 — adds the incremental-verification fields: the verification unit's
//       content fingerprint (unit_fp, ast::Fingerprint::ToHex) and the solver
//       budget the run used (decision and wall-clock budgets). These are what
//       the persistent verdict store matches on before skipping a generator
//       as CACHED_SAFE. Additive: older rows read fine with an empty
//       fingerprint, which simply never matches (so they are re-verified).
//   5 — adds the CDCL solver counters (propagations/learned_clauses/
//       restarts), rendered by `verify-all --stats`. Additive: older rows
//       read fine with the counters defaulting to 0.
//   6 — added per-worker attribution (`worker`), written only by the
//       multi-process worker fleet, since removed. Readers now skip the key
//       like any other unknown one, so v6 rows (with or without it) still
//       parse and resume.
//   7 — added a merged-joins counter, written only by the ite-based
//       path-merging executor, since removed. Readers now skip the key like
//       any other unknown one, so v7 rows (with or without it) still parse
//       and resume; new rows are still stamped 7.
//   Still 7 — rows stopped carrying `attempts` (budget-escalation retries
//       were removed) and the wall-clock budget (the per-query wall-clock
//       budget was removed; `budget_decisions` is the whole solver budget).
//       Readers skip both keys like any other unknown one, so older v7 rows
//       still parse, resume, and match in the verdict store.
//   Still 7 — rows stopped carrying `cfa_s` (no verification builds the
//       CFA any more; readers skip the key) and started carrying `epoch`,
//       the verifier epoch that produced the verdict. Additive: older
//       readers skip it. This build restores a row only when its epoch is
//       kVerifierEpoch, so every older row above still parses but is
//       re-verified on resume, not trusted.
inline constexpr int kJournalSchemaVersion = 7;
inline constexpr int kJournalMinReadSchemaVersion = 1;

// One journaled verdict. `outcome` is the OutcomeName() token (e.g.
// "VERIFIED", "INTERNAL_ERROR") — a string, not the enum, so the journal
// stays readable and diffable with standard tools.
struct JournalRecord {
  int schema = kJournalSchemaVersion;
  std::string platform;   // Platform::Fingerprint() of the writing process.
  std::string epoch;      // kVerifierEpoch of the writing process (empty in old rows).
  std::string generator;  // DSL generator name (row key for resume).
  std::string outcome;    // OutcomeName() token.
  std::string error;      // Diagnostic for ERROR / INTERNAL_ERROR rows.
  int64_t paths = 0;      // meta.paths_explored.
  int64_t queries = 0;    // meta.solver_queries.
  double seconds = 0.0;   // Per-task wall clock.
  // Per-stage cost attribution (schema >= 2; 0 in resumed v1 rows).
  double gen_s = 0.0;      // Meta-execution phase 1, minus solver time.
  double interp_s = 0.0;   // Meta-execution phase 2, minus solver time.
  double solve_s = 0.0;    // Wall time inside Solver::Solve.
  int64_t decisions = 0;   // Branching decisions across the task's queries.
  // CDCL solver counters (schema >= 5; 0 in older rows).
  int64_t propagations = 0;     // Literals assigned by unit propagation.
  int64_t learned_clauses = 0;  // 1-UIP clauses + theory lemmas learned.
  int64_t restarts = 0;         // Luby restarts.
  // Path-outcome counters (schema >= 3; 0 in older rows).
  int64_t paths_attached = 0;
  int64_t paths_infeasible = 0;
  // Incremental verification (schema >= 4; empty/0 in older rows).
  std::string unit_fp;          // ast::UnitFingerprint(...).ToHex() of the unit.
  int64_t budget_decisions = 0; // Solver::Limits the verdict was earned under.
  // Flight-recorder counterexample (schema >= 3). Present — cx_contract
  // non-empty — only on rows whose verdict carries a violation. The journal
  // stays a *flat* object: list-valued data is pre-rendered with "; " (ops)
  // or as a T/F string (decisions), which is what the reports consume.
  std::string cx_contract;    // Violated contract / assertion text.
  std::string cx_function;    // Function containing the violated check.
  int cx_line = 0;
  std::string cx_witnesses;   // "gen_mode = 1; run_val = unconstrained" form.
  std::string cx_source_ops;  // Source ops on the failing path, "; "-joined.
  std::string cx_target_ops;  // Target buffer on the failing path.
  std::string cx_decisions;   // Branch decisions as a T/F string, e.g. "TTF".

  // Renders the record as a single JSON line (no trailing newline).
  std::string ToJsonLine() const;
};

// Appends records to a JSONL journal file, durably: each Append writes one
// line, flushes, and fsyncs, so a verdict that was reported is on disk even
// if the process dies immediately after.
class JournalWriter {
 public:
  // Opens `path` for appending (creating it if absent).
  static StatusOr<std::unique_ptr<JournalWriter>> Open(const std::string& path);
  ~JournalWriter();

  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  // Durably appends one record. Thread-compatible: callers serialize.
  Status Append(const JournalRecord& record);

 private:
  explicit JournalWriter(std::FILE* file) : file_(file) {}
  std::FILE* file_;
};

// Parses one JSONL journal line into `rec`. Returns false on malformed
// input. Exposed for the persistent verdict store (verdict_store.h), which
// reuses the journal's record format and parser but applies a tolerant
// corruption policy instead of ReadJournal's strict one.
bool ParseJournalLine(std::string_view line, JournalRecord* rec);

// Reads every complete record from a journal at `path`.
//
// A torn final line (the crash case: the process died mid-append) is dropped
// silently; a malformed line anywhere *before* the last is corruption and an
// error. When `expect_platform` is non-empty, a record whose platform
// fingerprint differs fails the read — resuming would mix verdicts across
// different platform sources. A record with an unknown schema version also
// fails the read.
StatusOr<std::vector<JournalRecord>> ReadJournal(const std::string& path,
                                                 const std::string& expect_platform);

}  // namespace icarus::verifier

#endif  // ICARUS_VERIFIER_JOURNAL_H_
