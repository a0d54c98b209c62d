// In-memory span recorder for the benchmark's traced runs.
//
// Spans are recorded only in the benchmark's own files, around calls into a
// layer's public functions (Platform::Load, Verifier::Verify,
// Interpreter::Run, ...); the library itself is not instrumented. Spans nest
// by call order: a span begun while another is open is its child. They stay
// in memory and are written out once, when the run ends.
//
// A span's self time is its duration minus the durations of its direct
// children. Per-pass figures come from grouping spans under each root span.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/obs/json.h"

namespace perfbench {

class Tracer {
 public:
  struct Span {
    const char* name;  // Static string.
    int parent;        // Index of the parent span, -1 for a root.
    int64_t start_ns;
    int64_t end_ns;
  };
  // Aggregate of one span name under one root: summed self time and the
  // longest single span.
  struct NameStats {
    double self_ms = 0.0;
    double max_ms = 0.0;
    int count = 0;
  };

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  // Returns the span id, or -1 when tracing is off.
  int Begin(const char* name);
  void End(int id);

  // For the most recent root span named `root`: per span name in its
  // subtree (the root included), summed self time and longest span.
  std::map<std::string, NameStats> LastRootStats(const char* root) const;

  // Appends a JSON array of {"name","parent","start_us","dur_us"}, start
  // relative to the first span.
  void WriteJson(icarus::obs::JsonWriter* json) const;

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// RAII span; a no-op when the tracer is off.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name) : tracer_(tracer), id_(tracer->Begin(name)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
