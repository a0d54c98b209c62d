// Pipeline tracing: scoped spans recorded into per-thread ring buffers and
// exported as Chrome `trace_event` JSON, loadable in about:tracing and
// Perfetto (https://ui.perfetto.dev).
//
// A span is an RAII scope: construction stamps the start, destruction stamps
// the duration and pushes one complete ("ph":"X") event into the calling
// thread's ring buffer. Nesting is the C++ scope structure itself — spans on
// one thread form a stack by construction, which is exactly the containment
// the Chrome viewer reconstructs from timestamps. Each event also records
// its stack depth so tests can validate well-formed nesting without a JSON
// parser.
//
// Span identity: every recorded span gets an id — the process id in the high
// bits, a process-local counter in the low 31 (53 bits total, so ids survive
// a round-trip through JSON doubles) — and records the id of the enclosing
// span on the same thread as its parent.
//
// Ring buffers: fixed capacity per thread, oldest events overwritten, so a
// path-exploding generator cannot OOM the tracer — you lose the oldest
// spans and the exporter reports how many were dropped. Buffers are owned by
// a global registry (shared_ptr), so events survive thread exit — a batch
// joins its extra job threads before the CLI exports.
//
// Cost: when tracing is inactive, constructing a ScopedSpan is one relaxed
// atomic load (the same discipline as fail points). StartTracing and
// StopTracing are the only switch.
#ifndef ICARUS_OBS_TRACE_H_
#define ICARUS_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace icarus::obs {

// One finished span, as stored in the ring buffers and exposed to tests.
struct SpanEvent {
  std::string name;     // e.g. "solver.solve", "verify:GetProp".
  double start_us = 0;  // Microseconds since StartTracing().
  double dur_us = 0;
  int tid = 0;    // Small stable per-thread id (not the OS tid).
  int depth = 0;  // Nesting depth at span start (0 = top level).
  int64_t id = 0;      // Span id ((pid << 31) | counter).
  int64_t parent = 0;  // Enclosing span's id; 0 = top level.
};

namespace internal {
extern std::atomic<bool> g_tracing;
}  // namespace internal
// The hot-path guard: one relaxed atomic load.
inline bool TracingActive() { return internal::g_tracing.load(std::memory_order_relaxed); }
// Clears all buffers, restarts the epoch, and begins recording.
void StartTracing();
void StopTracing();

// Records the span [construction, destruction) on the calling thread when
// tracing is active at construction time. `detail`, when given, is appended
// to the name as "name:detail" (e.g. per-generator task spans).
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name);
  ScopedSpan(const char* name, std::string_view detail);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  // This span's id, 0 when tracing was inactive at construction.
  int64_t id() const { return id_; }

 private:
  void Begin(const char* name, std::string_view detail);

  bool active_ = false;
  double start_us_ = 0;
  int depth_ = 0;
  int64_t id_ = 0;
  std::string name_;
};

// Every recorded span across all thread buffers, in no particular order.
// Safe to call while tracing is active (per-buffer locking).
std::vector<SpanEvent> SnapshotSpans();

// Total spans overwritten by ring-buffer wraparound since StartTracing().
int64_t DroppedSpans();

// Renders the Chrome trace_event JSON document ({"traceEvents":[...]}).
// Events are sorted by start time; dropped-span counts are reported in
// metadata so a truncated trace is never mistaken for a complete one.
std::string ExportChromeTrace();

}  // namespace icarus::obs

#endif  // ICARUS_OBS_TRACE_H_
