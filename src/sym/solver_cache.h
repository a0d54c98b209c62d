// Concurrency-safe cache of solver results, shared across verification
// pipelines.
//
// Keying: a query is a conjunction of hash-consed boolean terms; its
// fingerprint is a set hash of the *canonical structural hashes* of the
// conjuncts (Node::chash): two mixed 64-bit lanes summed over the distinct
// hashes, each finished with their count, 128 bits in all. A sum folds one
// conjunct at a time, so a Solver keys a query by folding only the conjuncts
// past the prefix it shares with the previous one (QueryFold). Two
// structurally identical conjunctions — even ones built in different
// ExprPools by different worker threads — map to the same key, and structural
// identity implies identical satisfiability, so a hit is sound (up to 128-bit
// hash collision). This is what lets generators that share CacheIR prefixes
// and helpers reuse each other's solver work.
//
// Entries are pool-independent: verdict plus the pre-rendered model text for
// kSat (counterexample reports only ever consume the rendered form). Only
// decisive (kSat/kUnsat) answers are stored: they are truths about the query,
// whereas a kUnknown is only a fact about the budget that produced it.
//
// Thread safety: the table is sharded (mutex per shard) and the statistics
// counters are atomics; Lookup/Insert may be called concurrently from any
// number of Solver instances.
#ifndef ICARUS_SYM_SOLVER_CACHE_H_
#define ICARUS_SYM_SOLVER_CACHE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/sym/expr.h"
#include "src/sym/solver.h"

namespace icarus::sym {

// 128-bit fingerprint of a conjunct set (order- and duplicate-insensitive).
struct QueryKey {
  uint64_t lo = 0;
  uint64_t hi = 0;
  bool operator==(const QueryKey& o) const { return lo == o.lo && hi == o.hi; }
};

// The fold behind a QueryKey. Add each distinct conjunct hash once, in any
// order; Finish gives the key.
struct QueryFold {
  uint64_t lo = 0;
  uint64_t hi = 0;
  uint64_t count = 0;
  void Add(uint64_t chash);
  QueryKey Finish() const;
};

// Computes the canonical fingerprint of the conjunction of `conjuncts`, from
// scratch: the fold of its distinct conjunct hashes.
QueryKey FingerprintQuery(const std::vector<ExprRef>& conjuncts);

// Monotonic counters; snapshot with SolverCache::Snapshot().
struct SolverCacheStats {
  int64_t hits = 0;        // Lookups served from a resident entry.
  int64_t misses = 0;      // Lookups that found nothing usable.
  int64_t insertions = 0;  // Entries stored by Insert.
  int64_t upgrades = 0;    // Model-free kSat entries upgraded with a model.
  int64_t preloads = 0;    // Entries restored from a persisted store.

  int64_t lookups() const { return hits + misses; }
  // Fraction of lookups answered from the cache; 0.0 when no lookups have
  // occurred (ToString renders the rate as `-` in that case).
  double HitRate() const;
  std::string ToString() const;
};

class SolverCache {
 public:
  // A cached decisive result. `model_text` is the rendered model for kSat
  // entries stored with `has_model` set; it is pool-independent by
  // construction.
  // kSat entries inserted by model-free callers (feasibility checks) have
  // has_model == false: they answer verdict-only lookups, and a lookup that
  // needs the model re-solves and upgrades the entry.
  struct Entry {
    Verdict verdict = Verdict::kUnknown;
    bool has_model = false;
    std::string model_text;
    // Per-variable witness values for kSat entries stored with a model.
    // Witnesses carry no ExprRefs, so they are pool-independent like
    // model_text and can feed counterexample reports from cached hits.
    std::vector<Witness> witnesses;
    // Recency stamp maintained by Lookup/Insert; the persistent store evicts
    // lowest-tick-first when trimming to --cache-max-mb (LRU).
    uint64_t tick = 0;
  };

  SolverCache();
  SolverCache(const SolverCache&) = delete;
  SolverCache& operator=(const SolverCache&) = delete;

  // Returns the cached entry for `key`, if present and usable, updating hit
  // statistics. With `need_model` set, a kSat entry stored without a model is
  // reported as a miss (the caller must re-solve; see Insert on upgrading).
  std::optional<Entry> Lookup(const QueryKey& key, bool need_model = false);

  // Stores `entry` under `key`; a kUnknown entry stores nothing. First writer
  // wins — a concurrent duplicate insert (same structural query solved by two
  // threads) is dropped — except that an entry carrying a model upgrades a
  // resident model-free entry.
  void Insert(const QueryKey& key, Entry entry);

  // Bulk-loads one entry from a persisted snapshot (cache_store.h). Counts
  // as a preload, not an insertion; never overwrites a resident entry; keeps
  // the entry's persisted recency tick and advances the internal clock past
  // it so new activity always ranks as more recent.
  void Preload(const QueryKey& key, Entry entry);

  // Point-in-time copy of every resident entry, for persistence.
  std::vector<std::pair<QueryKey, Entry>> Export() const;

  // Number of resident entries (approximate under concurrent mutation).
  size_t size() const;

  // Point-in-time copy of the counters.
  SolverCacheStats Snapshot() const;

 private:
  struct KeyHash {
    size_t operator()(const QueryKey& k) const { return static_cast<size_t>(k.lo ^ (k.hi * 0x9e3779b97f4a7c15ULL)); }
  };
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<QueryKey, Entry, KeyHash> map;
  };
  static constexpr size_t kNumShards = 16;

  Shard& ShardFor(const QueryKey& key) { return shards_[key.lo % kNumShards]; }
  const Shard& ShardFor(const QueryKey& key) const { return shards_[key.lo % kNumShards]; }

  Shard shards_[kNumShards];
  std::atomic<int64_t> hits_{0};
  std::atomic<int64_t> misses_{0};
  std::atomic<int64_t> insertions_{0};
  std::atomic<int64_t> upgrades_{0};
  std::atomic<int64_t> preloads_{0};
  // Logical clock for Entry::tick (LRU recency). Starts at 1 so a zero tick
  // unambiguously means "never touched".
  std::atomic<uint64_t> tick_{1};
};

}  // namespace icarus::sym

#endif  // ICARUS_SYM_SOLVER_CACHE_H_
