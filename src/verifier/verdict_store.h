// The verdict store: the one index that decides when a stored verdict
// stands in for a run.
//
// The store maps a generator to the last PASS it earned, together with the
// content fingerprint of its verification unit (ast/fingerprint.h), the
// solver decision budget the pass ran under and the verifier epoch. A
// verification session (session.h) consults it before running a unit. One
// rule decides, and Put applies it to every row that enters: a row restores
// only if it is VERIFIED or CACHED_SAFE and its epoch equals this build's;
// FindPass then matches it only on an equal unit fingerprint and budget. A
// match means a cold run would reproduce the same VERIFIED verdict, so the
// unit is reported CACHED_SAFE instead.
//
// Matching is deliberately strict:
//   - Fingerprint equality is the soundness condition: the unit fingerprint
//     covers every DSL declaration the verdict depends on, so equality means
//     "same semantics as when the pass was earned".
//   - Budget equality (not >=) is the fidelity condition: a pass earned under
//     a larger budget might have been INCONCLUSIVE under the requested one,
//     and a restored verdict promises what a cold run would report.
//   - Epoch equality covers the C++ side: kVerifierEpoch names the solver,
//     meta-executor and extern semantics the verdict assumed.
//   - Only PASSes restore. A COUNTEREXAMPLE, INCONCLUSIVE, ERROR or
//     INTERNAL_ERROR row is verified again: a refuted unit costs well under
//     a millisecond and comes back with a live counterexample.
//
// Rows reach the index from two files of journal records (journal.h): the
// store file under `--cache-dir` (Load, `--incremental`) and a run journal
// (`--journal`), whose rows the session Puts after the load.
//
// The store file's corruption policy matches the solver-cache store
// (sym/cache_store.h): any anomaly — malformed line, unknown schema, a row
// of another epoch — degrades to an empty store with a note; never a crash,
// never a wrong verdict. Save is crash-safe via write-temp-then-rename.
#ifndef ICARUS_VERIFIER_VERDICT_STORE_H_
#define ICARUS_VERIFIER_VERDICT_STORE_H_

#include <cstddef>
#include <map>
#include <string>

#include "src/support/status.h"
#include "src/sym/solver.h"
#include "src/verifier/journal.h"

namespace icarus::verifier {

// Names the C++-side verification semantics the stored verdicts assume.
// Persisted stores written under a different epoch are discarded wholesale.
// Bumped to v2 when the CDCL core replaced the decide-only solver (same
// verdicts, but budget semantics — what a given decision budget can decide —
// changed, so pre-CDCL PASSes must not short-circuit re-verification).
// Bumped to v3 when a stale conflict-analysis mark that let the warm CDCL
// core answer UNSAT on satisfiable queries was fixed: PASSes and cached
// UNSAT answers from the unsound core must be re-earned.
inline constexpr char kVerifierEpoch[] = "icarus-cdcl-v3";

// Canonical file layout under a --cache-dir directory.
std::string VerdictStorePath(const std::string& cache_dir);
std::string SolverCacheStorePath(const std::string& cache_dir);

// Creates `cache_dir` if it does not exist (one level; parents must exist).
Status EnsureCacheDir(const std::string& cache_dir);

class VerdictStore {
 public:
  struct LoadResult {
    size_t entries = 0;  // Records loaded.
    // Empty on a clean load (including "file absent"); otherwise the reason
    // the store was discarded and the run starts cold.
    std::string note;
  };

  // Replaces the index with the store at `path`, whose rows must all carry
  // `epoch`, and makes `epoch` the one Put accepts (kVerifierEpoch until
  // then). Tolerant: any anomaly yields an empty store with a note (see
  // header comment). Rows enter through Put, so later rows for the same
  // generator win.
  LoadResult Load(const std::string& path, const std::string& epoch);

  // Returns the stored PASS for `generator` iff its fingerprint equals
  // `unit_fp` and its decision budget equals `limits.max_decisions`; null
  // otherwise.
  const JournalRecord* FindPass(const std::string& generator, const std::string& unit_fp,
                                const sym::Solver::Limits& limits) const;

  // True when `rec` can restore: VERIFIED or CACHED_SAFE, with a unit
  // fingerprint and the store's epoch.
  bool Restores(const JournalRecord& rec) const;

  // Indexes `rec` if it can restore; other rows are ignored. Last Put per
  // generator wins. Returns true when the Put changed what FindPass matches:
  // a new generator, or its fingerprint or budget.
  bool Put(const JournalRecord& rec);

  // Rewrites the store at `path` (crash-safe temp+rename). Errors only on
  // I/O failure.
  Status Save(const std::string& path) const;

  size_t size() const { return by_generator_.size(); }

 private:
  std::string epoch_ = kVerifierEpoch;
  std::map<std::string, JournalRecord> by_generator_;
};

}  // namespace icarus::verifier

#endif  // ICARUS_VERIFIER_VERDICT_STORE_H_
