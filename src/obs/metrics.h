// Lock-cheap metrics registry for the verification pipeline.
//
// Three instrument kinds, Prometheus-flavoured:
//   - Counter: monotonically increasing 64-bit count, sharded per thread so
//     concurrent increments from pool workers never contend on one cache
//     line (each shard is cache-line padded; a thread hashes to a shard once
//     and then only ever touches that line with relaxed fetch_add).
//   - Gauge: a single settable value (last-writer-wins semantics make
//     sharding meaningless; Set/Add are one relaxed atomic op).
//   - Histogram: fixed log-scale buckets shared by every histogram — powers
//     of two from 2^-20 (~1 microsecond, when observing seconds) up to 2^15,
//     37 buckets plus overflow — sharded like counters. One fixed scheme
//     keeps exposition trivially mergeable across runs and avoids per-site
//     bucket bikeshedding; it covers both sub-second latencies and small
//     integral quantities (buffer lengths, path counts) with <2x relative
//     error, which is all a "where did the time go" profile needs.
//
// Shards are aggregated only on scrape (RenderPrometheus / RenderJson /
// Value()), so the hot path never takes a lock and never writes a shared
// line. Registration returns stable pointers; the idiomatic call site caches
// the pointer in a function-local static:
//
//   if (obs::Enabled()) {
//     static auto* c = obs::Registry::Global().GetCounter(
//         "icarus_solver_queries_total", "Solver queries issued");
//     c->Add(1);
//   }
//
// Cost discipline (same as src/support/failpoint.h): when the runtime flag
// is off, the instrumentation is one relaxed atomic load.
#ifndef ICARUS_OBS_METRICS_H_
#define ICARUS_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace icarus::obs {

namespace internal {
extern std::atomic<bool> g_enabled;
}  // namespace internal
// The hot-path guard: one relaxed atomic load.
inline bool Enabled() { return internal::g_enabled.load(std::memory_order_relaxed); }
// Flips the runtime flag (CLI --metrics/--trace/--stats, tests).
void SetEnabled(bool on);

// Number of per-thread shards per instrument. A thread is assigned a shard
// on first use (round-robin); more threads than shards just share lines.
inline constexpr int kNumShards = 16;

// Shard index for the calling thread (stable for the thread's lifetime).
int ThisThreadShard();

namespace internal {
struct alignas(64) PaddedCount {
  std::atomic<int64_t> v{0};
};
}  // namespace internal

class Counter {
 public:
  // Relaxed add on this thread's shard; never contends across threads that
  // hash to different shards.
  void Add(int64_t n = 1) {
    shards_[ThisThreadShard()].v.fetch_add(n, std::memory_order_relaxed);
  }
  // Scrape-time aggregate over shards.
  int64_t Value() const;

  const std::string& name() const { return name_; }
  const std::string& help() const { return help_; }

 private:
  friend class Registry;
  Counter(std::string name, std::string help)
      : name_(std::move(name)), help_(std::move(help)) {}
  void Reset();

  std::string name_;
  std::string help_;
  internal::PaddedCount shards_[kNumShards];
};

class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

  const std::string& name() const { return name_; }
  const std::string& help() const { return help_; }

 private:
  friend class Registry;
  Gauge(std::string name, std::string help)
      : name_(std::move(name)), help_(std::move(help)) {}
  void Reset() { value_.store(0, std::memory_order_relaxed); }

  std::string name_;
  std::string help_;
  std::atomic<int64_t> value_{0};
};

class Histogram {
 public:
  // Fixed log-scale bucket scheme: bucket i holds values <= 2^(i-20); the
  // final (overflow) bucket holds everything larger. 2^-20 ≈ 9.5e-7 ≈ 1us.
  static constexpr int kNumBuckets = 37;           // Finite upper bounds.
  static constexpr int kBucketExponentBias = -20;  // Bound(0) = 2^-20.

  // Upper bound of finite bucket `i`.
  static double BucketBound(int i);
  // Index of the bucket `value` falls into (kNumBuckets = overflow).
  static int BucketFor(double value);

  // Records one observation: bumps the bucket count and the running sum on
  // this thread's shard (all relaxed; BucketFor is a handful of flops).
  void Observe(double value);

  // Scrape-time aggregates.
  int64_t Count() const;
  double Sum() const;
  // Cumulative count of observations <= BucketBound(i); index kNumBuckets
  // returns Count() (the +Inf bucket).
  int64_t CumulativeCount(int bucket) const;

  const std::string& name() const { return name_; }
  const std::string& help() const { return help_; }

 private:
  friend class Registry;
  Histogram(std::string name, std::string help)
      : name_(std::move(name)), help_(std::move(help)) {}
  void Reset();

  struct alignas(64) Shard {
    std::atomic<int64_t> buckets[kNumBuckets + 1] = {};
    std::atomic<int64_t> count{0};
    // Sum in nanounits (value * 1e9, truncated) so the hot path stays a
    // fetch_add instead of a CAS loop on a double.
    std::atomic<int64_t> sum_nano{0};
  };

  std::string name_;
  std::string help_;
  Shard shards_[kNumShards];
};

// Process-global instrument registry. Get* is idempotent per name (the first
// registration's help string wins) and returns pointers that stay valid for
// the process lifetime. Names follow Prometheus conventions
// (`icarus_<stage>_<what>_<unit|total>`); see docs/ARCHITECTURE.md
// §"Observability" for the catalogue.
class Registry {
 public:
  static Registry& Global();

  Counter* GetCounter(std::string_view name, std::string_view help);
  Gauge* GetGauge(std::string_view name, std::string_view help);
  Histogram* GetHistogram(std::string_view name, std::string_view help);

  // Prometheus text exposition format (scrape endpoint / --metrics out.prom).
  std::string RenderPrometheus() const;
  // The same data as one JSON object (--metrics out.json), via obs::JsonWriter.
  std::string RenderJson() const;

  // Zeroes every instrument (tests; instruments stay registered).
  void ResetAll();

 private:
  Registry() = default;

  mutable std::mutex mu_;
  // Sorted rendering wants deterministic order; registration order is fine
  // and stable, so keep insertion-ordered vectors plus name lookup.
  std::vector<std::unique_ptr<Counter>> counters_;
  std::vector<std::unique_ptr<Gauge>> gauges_;
  std::vector<std::unique_ptr<Histogram>> histograms_;
};

}  // namespace icarus::obs

#endif  // ICARUS_OBS_METRICS_H_
