#include "src/obs/metrics.h"

#include <algorithm>
#include <cmath>

#include "src/obs/json.h"
#include "src/support/str_util.h"

namespace icarus::obs {

namespace internal {
std::atomic<bool> g_enabled{false};
}  // namespace internal

void SetEnabled(bool on) { internal::g_enabled.store(on, std::memory_order_relaxed); }

int ThisThreadShard() {
  static std::atomic<int> next{0};
  thread_local int shard = next.fetch_add(1, std::memory_order_relaxed) % kNumShards;
  return shard;
}

// ---------------------------------------------------------------------------
// Counter
// ---------------------------------------------------------------------------

int64_t Counter::Value() const {
  int64_t total = 0;
  for (const internal::PaddedCount& s : shards_) {
    total += s.v.load(std::memory_order_relaxed);
  }
  return total;
}

void Counter::Reset() {
  for (internal::PaddedCount& s : shards_) {
    s.v.store(0, std::memory_order_relaxed);
  }
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

double Histogram::BucketBound(int i) {
  return std::ldexp(1.0, i + kBucketExponentBias);
}

int Histogram::BucketFor(double value) {
  if (!(value > 0.0)) {
    return 0;  // Zero, negative, and NaN all land in the smallest bucket.
  }
  // Smallest i with value <= 2^(i-20), i.e. ceil(log2(value)) + 20.
  int exp = 0;
  double frac = std::frexp(value, &exp);  // value = frac * 2^exp, frac in [0.5, 1).
  int i = (frac > 0.5 ? exp : exp - 1) - kBucketExponentBias;
  return std::clamp(i, 0, kNumBuckets);
}

void Histogram::Observe(double value) {
  Shard& s = shards_[ThisThreadShard()];
  s.buckets[BucketFor(value)].fetch_add(1, std::memory_order_relaxed);
  s.count.fetch_add(1, std::memory_order_relaxed);
  s.sum_nano.fetch_add(static_cast<int64_t>(value * 1e9), std::memory_order_relaxed);
}

int64_t Histogram::Count() const {
  int64_t total = 0;
  for (const Shard& s : shards_) {
    total += s.count.load(std::memory_order_relaxed);
  }
  return total;
}

double Histogram::Sum() const {
  int64_t nano = 0;
  for (const Shard& s : shards_) {
    nano += s.sum_nano.load(std::memory_order_relaxed);
  }
  return static_cast<double>(nano) * 1e-9;
}

int64_t Histogram::CumulativeCount(int bucket) const {
  int64_t total = 0;
  int upto = std::min(bucket, kNumBuckets);
  for (const Shard& s : shards_) {
    for (int i = 0; i <= upto; ++i) {
      total += s.buckets[i].load(std::memory_order_relaxed);
    }
  }
  return total;
}

void Histogram::Reset() {
  for (Shard& s : shards_) {
    for (auto& b : s.buckets) {
      b.store(0, std::memory_order_relaxed);
    }
    s.count.store(0, std::memory_order_relaxed);
    s.sum_nano.store(0, std::memory_order_relaxed);
  }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

Registry& Registry::Global() {
  // Leaked singleton: instrument pointers handed out to function-local
  // statics must stay valid through static destruction.
  static Registry* g = new Registry();
  return *g;
}

Counter* Registry::GetCounter(std::string_view name, std::string_view help) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& c : counters_) {
    if (c->name() == name) {
      return c.get();
    }
  }
  counters_.emplace_back(new Counter(std::string(name), std::string(help)));
  return counters_.back().get();
}

Gauge* Registry::GetGauge(std::string_view name, std::string_view help) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& g : gauges_) {
    if (g->name() == name) {
      return g.get();
    }
  }
  gauges_.emplace_back(new Gauge(std::string(name), std::string(help)));
  return gauges_.back().get();
}

Histogram* Registry::GetHistogram(std::string_view name, std::string_view help) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& h : histograms_) {
    if (h->name() == name) {
      return h.get();
    }
  }
  histograms_.emplace_back(new Histogram(std::string(name), std::string(help)));
  return histograms_.back().get();
}

std::string Registry::RenderPrometheus() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const auto& c : counters_) {
    out += StrCat("# HELP ", c->name(), " ", c->help(), "\n");
    out += StrCat("# TYPE ", c->name(), " counter\n");
    out += StrFormat("%s %lld\n", c->name().c_str(), static_cast<long long>(c->Value()));
  }
  for (const auto& g : gauges_) {
    out += StrCat("# HELP ", g->name(), " ", g->help(), "\n");
    out += StrCat("# TYPE ", g->name(), " gauge\n");
    out += StrFormat("%s %lld\n", g->name().c_str(), static_cast<long long>(g->Value()));
  }
  for (const auto& h : histograms_) {
    out += StrCat("# HELP ", h->name(), " ", h->help(), "\n");
    out += StrCat("# TYPE ", h->name(), " histogram\n");
    for (int i = 0; i < Histogram::kNumBuckets; ++i) {
      out += StrFormat("%s_bucket{le=\"%.9g\"} %lld\n", h->name().c_str(),
                       Histogram::BucketBound(i),
                       static_cast<long long>(h->CumulativeCount(i)));
    }
    out += StrFormat("%s_bucket{le=\"+Inf\"} %lld\n", h->name().c_str(),
                     static_cast<long long>(h->Count()));
    out += StrFormat("%s_sum %.9g\n", h->name().c_str(), h->Sum());
    out += StrFormat("%s_count %lld\n", h->name().c_str(),
                     static_cast<long long>(h->Count()));
  }
  return out;
}

std::string Registry::RenderJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  JsonWriter w;
  w.BeginObject();
  w.Key("counters").BeginObject();
  for (const auto& c : counters_) {
    w.Key(c->name()).Int(c->Value());
  }
  w.EndObject();
  w.Key("gauges").BeginObject();
  for (const auto& g : gauges_) {
    w.Key(g->name()).Int(g->Value());
  }
  w.EndObject();
  w.Key("histograms").BeginObject();
  for (const auto& h : histograms_) {
    w.Key(h->name()).BeginObject();
    w.Key("count").Int(h->Count());
    w.Key("sum").Double(h->Sum());
    w.Key("buckets").BeginArray();
    // Sparse: only buckets whose cumulative count changed, as [le, cum] pairs.
    int64_t prev = 0;
    for (int i = 0; i < Histogram::kNumBuckets; ++i) {
      int64_t cum = h->CumulativeCount(i);
      if (cum != prev) {
        w.BeginArray().Double(Histogram::BucketBound(i)).Int(cum).EndArray();
        prev = cum;
      }
    }
    if (h->Count() != prev) {
      w.BeginArray().Null().Int(h->Count()).EndArray();  // +Inf bucket.
    }
    w.EndArray();
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  return w.Take();
}

void Registry::ResetAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& c : counters_) {
    c->Reset();
  }
  for (const auto& g : gauges_) {
    g->Reset();
  }
  for (const auto& h : histograms_) {
    h->Reset();
  }
}

}  // namespace icarus::obs
