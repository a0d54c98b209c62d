// On-disk persistence for the solver-result cache (SolverCache).
//
// Format: a single versioned binary file ("ICSC" magic + format version +
// store fingerprint + entry records). The fingerprint is an opaque string the
// caller binds the store to — the incremental pipeline passes the verifier
// epoch (see src/verifier/verdict_store.h) so a store written by an
// incompatible verifier is discarded wholesale. The file is a local,
// same-machine cache: integers are written in native byte order and the file
// is never shipped anywhere.
//
// Crash safety: Save writes `<path>.tmp`, fsyncs it, then renames it over
// `path` — readers see either the old complete store or the new complete
// store, never a torn one.
//
// Corruption policy: Load treats *any* anomaly (missing file, short read,
// bad magic, unknown version, fingerprint mismatch, garbage lengths) as an
// empty store and reports the reason in CacheLoadResult::note. A damaged
// cache can cost a warm start; it must never crash the verifier or change a
// verdict.
//
// Size bound: Save evicts least-recently-used entries (smallest
// SolverCache::Entry::tick first) until the serialized size fits
// `max_bytes`, implementing `verify-all --cache-max-mb`.
#ifndef ICARUS_SYM_CACHE_STORE_H_
#define ICARUS_SYM_CACHE_STORE_H_

#include <cstdint>
#include <string>

#include "src/sym/solver_cache.h"
#include "src/support/status.h"

namespace icarus::sym {

// Current on-disk format version; bump on any layout or key change. Version 2
// dropped the per-entry budget stamps when kUnknown entries stopped being
// cached; version 3 keys entries by the summed set hash (QueryFold) instead
// of a hash chained over the sorted conjunct hashes. An older store is
// discarded with the unknown-version note.
inline constexpr uint32_t kCacheStoreVersion = 3;

struct CacheLoadResult {
  size_t entries = 0;  // Entries preloaded into the cache.
  // Empty on a clean load (including "file absent" on a true first run);
  // otherwise the human-readable reason the store was discarded.
  std::string note;
};

// Preloads `cache` from the store at `path`, if it exists, is intact, and was
// written under `expected_fingerprint`. Never fails: anomalies degrade to a
// cold start with a note (see header comment).
CacheLoadResult LoadSolverCache(const std::string& path, const std::string& expected_fingerprint,
                                SolverCache* cache);

// Persists a snapshot of `cache` to `path`, bound to `fingerprint`,
// LRU-evicting down to `max_bytes` (<= 0 means unbounded). Crash-safe via
// write-temp-then-rename. Errors only on I/O failure.
Status SaveSolverCache(const SolverCache& cache, const std::string& path,
                       const std::string& fingerprint, int64_t max_bytes);

}  // namespace icarus::sym

#endif  // ICARUS_SYM_CACHE_STORE_H_
