// Persistent verdict store for incremental cross-run verification.
//
// The store maps a generator to the last PASS (VERIFIED) it earned, together
// with the content fingerprint of its verification unit (ast/fingerprint.h)
// and the solver decision budget the pass ran under. `verify-all --incremental`
// consults it before dispatching a generator: a stored PASS whose fingerprint
// matches the generator's current unit fingerprint *and* whose budget equals
// the requested budget means a cold run would reproduce the same VERIFIED
// verdict — the generator is skipped and reported as CACHED_SAFE.
//
// Matching is deliberately strict:
//   - Fingerprint equality is the soundness condition: the unit fingerprint
//     covers every DSL declaration the verdict depends on, so equality means
//     "same semantics as when the pass was earned".
//   - Budget equality (not >=) is the fidelity condition: a pass earned under
//     a larger budget might have been INCONCLUSIVE under the requested one,
//     and incremental mode promises verdicts identical to a cold run.
//   - Only PASSes are stored. Failures are cheap to rediscover, and
//     re-running them keeps counterexample reporting live.
//
// On disk the store is a JSONL file of journal records (journal.h wire
// format, schema v4) whose `platform` field holds the *verifier epoch* — a
// constant naming the C++-side semantics (solver, meta-executor, extern host
// bindings) rather than Platform::Fingerprint(), which any declaration's
// edit moves and would defeat per-unit invalidation. Bump the epoch when a
// C++ change invalidates old verdicts wholesale.
//
// Corruption policy matches the solver-cache store (sym/cache_store.h): any
// anomaly — malformed line, epoch mismatch, unknown outcome — degrades to an
// empty store with a note; never a crash, never a wrong verdict. Save is
// crash-safe via write-temp-then-rename.
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

  // Loads the store at `path` written under `epoch`. Tolerant: any anomaly
  // yields an empty store with a note (see header comment). Later records
  // for the same generator win (append-style updates are allowed, though
  // Save rewrites the file compactly).
  LoadResult Load(const std::string& path, const std::string& epoch);

  // Returns the stored PASS for `generator` iff its fingerprint equals
  // `unit_fp` and its decision budget equals `limits.max_decisions`; null
  // otherwise.
  const JournalRecord* FindPass(const std::string& generator, const std::string& unit_fp,
                                const sym::Solver::Limits& limits) const;

  // Records a PASS (callers only Put VERIFIED rows; rows with other outcomes
  // or an empty unit_fp are ignored). Last Put per generator wins. Returns
  // true when the Put changed what FindPass matches: the generator's stored
  // outcome, fingerprint or budget.
  bool Put(const JournalRecord& rec);

  // Rewrites the store at `path` (crash-safe temp+rename). Errors only on
  // I/O failure.
  Status Save(const std::string& path) const;

  size_t size() const { return by_generator_.size(); }

 private:
  std::map<std::string, JournalRecord> by_generator_;
};

}  // namespace icarus::verifier

#endif  // ICARUS_VERIFIER_VERDICT_STORE_H_
