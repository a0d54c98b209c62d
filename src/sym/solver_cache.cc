#include "src/sym/solver_cache.h"

#include <algorithm>

#include "src/support/failpoint.h"
#include "src/support/str_util.h"

namespace icarus::sym {

namespace {

uint64_t Mix(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  return h;
}

}  // namespace

void QueryFold::Add(uint64_t chash) {
  // Two independent lanes: same input, different seeds and round constants.
  lo += Mix(0x6a09e667f3bcc908ULL, chash);
  hi += Mix(0xbb67ae8584caa73bULL, chash ^ 0xa5a5a5a5a5a5a5a5ULL);
  ++count;
}

QueryKey QueryFold::Finish() const { return QueryKey{Mix(lo, count), Mix(hi, count + 1)}; }

QueryKey FingerprintQuery(const std::vector<ExprRef>& conjuncts) {
  // Drop duplicate hashes so that the fingerprint is insensitive to conjunct
  // repetition — a path condition is a *set* of facts; the sum makes it
  // insensitive to order.
  std::vector<uint64_t> hashes;
  hashes.reserve(conjuncts.size());
  for (ExprRef c : conjuncts) {
    hashes.push_back(c->chash);
  }
  std::sort(hashes.begin(), hashes.end());
  hashes.erase(std::unique(hashes.begin(), hashes.end()), hashes.end());
  QueryFold fold;
  for (uint64_t h : hashes) {
    fold.Add(h);
  }
  return fold.Finish();
}

double SolverCacheStats::HitRate() const {
  int64_t total = lookups();
  return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
}

std::string SolverCacheStats::ToString() const {
  // With zero lookups a percentage is meaningless (and used to render as a
  // confusing "0.0%"): show `-` instead.
  std::string rate = lookups() == 0 ? "-" : StrFormat("%.1f%%", HitRate() * 100.0);
  return StrFormat("cache: %lld hits, %lld misses (%s hit rate), %lld upgrades",
                   static_cast<long long>(hits), static_cast<long long>(misses), rate.c_str(),
                   static_cast<long long>(upgrades));
}

SolverCache::SolverCache() = default;

std::optional<SolverCache::Entry> SolverCache::Lookup(const QueryKey& key, bool need_model) {
  ICARUS_FAILPOINT(failpoint::kCacheLookup);
  Shard& shard = ShardFor(key);
  std::optional<Entry> found;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(key);
    if (it != shard.map.end()) {
      const Entry& resident = it->second;
      if (!(need_model && resident.verdict == Verdict::kSat && !resident.has_model)) {
        it->second.tick = tick_.fetch_add(1, std::memory_order_relaxed);
        found = it->second;
      }
    }
  }
  (found.has_value() ? hits_ : misses_).fetch_add(1, std::memory_order_relaxed);
  return found;
}

void SolverCache::Insert(const QueryKey& key, Entry entry) {
  if (entry.verdict == Verdict::kUnknown) {
    return;
  }
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  // The fail point fires while the shard lock is held, before any mutation:
  // an injected fault here must unwind leaving the shard untouched and
  // unlocked (lock_guard unlocks on unwind), never with a torn entry.
  ICARUS_FAILPOINT(failpoint::kCacheInsert);
  entry.tick = tick_.fetch_add(1, std::memory_order_relaxed);
  auto [it, inserted] = shard.map.emplace(key, entry);
  if (inserted) {
    insertions_.fetch_add(1, std::memory_order_relaxed);
  } else if (entry.has_model && !it->second.has_model) {
    // Upgrade: a model-needing caller re-solved a query originally cached by
    // a verdict-only caller; keep the richer entry.
    it->second = std::move(entry);
    upgrades_.fetch_add(1, std::memory_order_relaxed);
  }
}

void SolverCache::Preload(const QueryKey& key, Entry entry) {
  uint64_t restored_tick = entry.tick;
  Shard& shard = ShardFor(key);
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto [it, inserted] = shard.map.emplace(key, std::move(entry));
    (void)it;
    if (!inserted) {
      return;  // A live entry always outranks a persisted one.
    }
  }
  preloads_.fetch_add(1, std::memory_order_relaxed);
  // Keep the clock ahead of every restored tick so fresh activity ranks as
  // more recent than anything from the previous process.
  uint64_t now = tick_.load(std::memory_order_relaxed);
  while (now <= restored_tick &&
         !tick_.compare_exchange_weak(now, restored_tick + 1, std::memory_order_relaxed)) {
  }
}

std::vector<std::pair<QueryKey, SolverCache::Entry>> SolverCache::Export() const {
  std::vector<std::pair<QueryKey, Entry>> out;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (const auto& [key, entry] : shard.map) {
      out.emplace_back(key, entry);
    }
  }
  return out;
}

size_t SolverCache::size() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.map.size();
  }
  return total;
}

SolverCacheStats SolverCache::Snapshot() const {
  SolverCacheStats stats;
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  stats.insertions = insertions_.load(std::memory_order_relaxed);
  stats.upgrades = upgrades_.load(std::memory_order_relaxed);
  stats.preloads = preloads_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace icarus::sym
