#include "src/obs/trace.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>

#include "src/obs/json.h"
#include "src/support/str_util.h"

namespace icarus::obs {

namespace {

using Clock = std::chrono::steady_clock;

// Per-thread ring of finished spans. The owning thread is the only writer;
// the exporter is a concurrent reader, so pushes and snapshots take the
// buffer's own mutex (uncontended for the owner in the common case).
struct RingBuffer {
  static constexpr size_t kCapacity = 16384;

  std::mutex mu;
  std::vector<SpanEvent> events;  // Grows to kCapacity, then wraps.
  size_t next = 0;                // Overwrite position once full.
  int64_t dropped = 0;
  int tid = 0;

  void Push(SpanEvent e) {
    std::lock_guard<std::mutex> lock(mu);
    if (events.size() < kCapacity) {
      events.push_back(std::move(e));
      return;
    }
    events[next] = std::move(e);
    next = (next + 1) % kCapacity;
    ++dropped;
  }

  void Clear() {
    std::lock_guard<std::mutex> lock(mu);
    events.clear();
    next = 0;
    dropped = 0;
  }
};

struct TraceState {
  std::mutex mu;
  std::vector<std::shared_ptr<RingBuffer>> buffers;  // Keeps exited threads' data.
  std::atomic<int> next_tid{1};
  Clock::time_point epoch = Clock::now();
};

TraceState& State() {
  static TraceState* g = new TraceState();
  return *g;
}

RingBuffer& ThisThreadBuffer() {
  thread_local std::shared_ptr<RingBuffer> buffer = [] {
    auto b = std::make_shared<RingBuffer>();
    TraceState& s = State();
    b->tid = s.next_tid.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(s.mu);
    s.buffers.push_back(b);
    return b;
  }();
  return *buffer;
}

double NowMicros() {
  return std::chrono::duration<double, std::micro>(Clock::now() - State().epoch).count();
}

// Span ids: pid in the high bits, a process-local counter in the low 31.
// Linux pids fit in 22 bits (pid_max <= 2^22), so ids stay within 53 bits
// and survive a round-trip through a JSON double exactly.
int64_t NextSpanId() {
  static std::atomic<int64_t> counter{0};
  static const int64_t base = static_cast<int64_t>(::getpid()) << 31;
  return base | (counter.fetch_add(1, std::memory_order_relaxed) & 0x7fffffff);
}

thread_local int t_depth = 0;
// The enclosing-span stack for parent ids (mirrors t_depth; small — spans
// nest as deep as the C++ scopes that open them).
thread_local std::vector<int64_t> t_span_stack;

}  // namespace

namespace internal {
std::atomic<bool> g_tracing{false};
}  // namespace internal

void StartTracing() {
  TraceState& s = State();
  {
    std::lock_guard<std::mutex> lock(s.mu);
    for (const auto& b : s.buffers) {
      b->Clear();
    }
    s.epoch = Clock::now();
  }
  internal::g_tracing.store(true, std::memory_order_relaxed);
}

void StopTracing() { internal::g_tracing.store(false, std::memory_order_relaxed); }

ScopedSpan::ScopedSpan(const char* name) {
  if (TracingActive()) {
    Begin(name, {});
  }
}

ScopedSpan::ScopedSpan(const char* name, std::string_view detail) {
  if (TracingActive()) {
    Begin(name, detail);
  }
}

void ScopedSpan::Begin(const char* name, std::string_view detail) {
  active_ = true;
  name_ = detail.empty() ? std::string(name) : StrCat(name, ":", detail);
  depth_ = t_depth++;
  id_ = NextSpanId();
  t_span_stack.push_back(id_);
  start_us_ = NowMicros();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) {
    return;
  }
  --t_depth;
  t_span_stack.pop_back();
  SpanEvent e;
  e.name = std::move(name_);
  e.start_us = start_us_;
  e.dur_us = NowMicros() - start_us_;
  e.depth = depth_;
  e.id = id_;
  e.parent = t_span_stack.empty() ? 0 : t_span_stack.back();
  RingBuffer& buffer = ThisThreadBuffer();
  e.tid = buffer.tid;
  buffer.Push(std::move(e));
}

std::vector<SpanEvent> SnapshotSpans() {
  TraceState& s = State();
  std::vector<std::shared_ptr<RingBuffer>> buffers;
  {
    std::lock_guard<std::mutex> lock(s.mu);
    buffers = s.buffers;
  }
  std::vector<SpanEvent> all;
  for (const auto& b : buffers) {
    std::lock_guard<std::mutex> lock(b->mu);
    all.insert(all.end(), b->events.begin(), b->events.end());
  }
  return all;
}

int64_t DroppedSpans() {
  TraceState& s = State();
  std::lock_guard<std::mutex> lock(s.mu);
  int64_t total = 0;
  for (const auto& b : s.buffers) {
    std::lock_guard<std::mutex> inner(b->mu);
    total += b->dropped;
  }
  return total;
}

std::string ExportChromeTrace() {
  std::vector<SpanEvent> events = SnapshotSpans();
  std::sort(events.begin(), events.end(), [](const SpanEvent& a, const SpanEvent& b) {
    if (a.start_us != b.start_us) {
      return a.start_us < b.start_us;
    }
    // Equal timestamps: parents (smaller depth) first, so the viewer and the
    // nesting validator both see enclosing spans before their children.
    return a.depth < b.depth;
  });
  JsonWriter w;
  w.BeginObject();
  w.Key("traceEvents").BeginArray();
  for (const SpanEvent& e : events) {
    w.BeginObject();
    w.Key("name").String(e.name);
    w.Key("cat").String("icarus");
    w.Key("ph").String("X");
    w.Key("ts").Double(e.start_us);
    w.Key("dur").Double(e.dur_us);
    w.Key("pid").Int(1);
    w.Key("tid").Int(e.tid);
    w.Key("args").BeginObject();
    w.Key("depth").Int(e.depth);
    w.Key("id").Int(e.id);
    if (e.parent != 0) {
      w.Key("parent").Int(e.parent);
    }
    w.EndObject();
    w.EndObject();
  }
  w.EndArray();
  w.Key("displayTimeUnit").String("ms");
  w.Key("otherData").BeginObject();
  w.Key("dropped_spans").Int(DroppedSpans());
  w.EndObject();
  w.EndObject();
  return w.Take();
}

}  // namespace icarus::obs
