#include "trace.h"

#include <algorithm>
#include <cstring>

#include "bench.h"

namespace perfbench {

int Tracer::Begin(const char* name) {
  if (!enabled_) {
    return -1;
  }
  int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({name, parent, WallNs(), 0});
  int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void Tracer::End(int id) {
  if (id < 0) {
    return;
  }
  spans_[static_cast<size_t>(id)].end_ns = WallNs();
  // Spans close in LIFO order (ScopedSpan); tolerate a mismatch by unwinding
  // to the span being closed.
  while (!open_.empty()) {
    int top = open_.back();
    open_.pop_back();
    if (top == id) {
      break;
    }
  }
}

std::map<std::string, Tracer::NameStats> Tracer::LastRootStats(const char* root) const {
  std::map<std::string, NameStats> out;
  int root_id = -1;
  for (int i = static_cast<int>(spans_.size()) - 1; i >= 0; --i) {
    const Span& s = spans_[static_cast<size_t>(i)];
    if (s.parent < 0 && std::strcmp(s.name, root) == 0) {
      root_id = i;
      break;
    }
  }
  if (root_id < 0) {
    return out;
  }
  // Children always follow their parent, so one forward sweep from the root
  // visits the whole subtree (it ends at the next root).
  std::vector<int64_t> child_ns(spans_.size() - static_cast<size_t>(root_id), 0);
  size_t end = static_cast<size_t>(root_id) + 1;
  while (end < spans_.size() && spans_[end].parent >= 0) {
    ++end;
  }
  for (size_t i = static_cast<size_t>(root_id) + 1; i < end; ++i) {
    const Span& s = spans_[i];
    child_ns[static_cast<size_t>(s.parent - root_id)] += s.end_ns - s.start_ns;
  }
  for (size_t i = static_cast<size_t>(root_id); i < end; ++i) {
    const Span& s = spans_[i];
    double dur_ms = static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    double self_ms = static_cast<double>(s.end_ns - s.start_ns -
                                         child_ns[i - static_cast<size_t>(root_id)]) /
                     1e6;
    NameStats& stats = out[s.name];
    stats.self_ms += self_ms;
    stats.max_ms = std::max(stats.max_ms, dur_ms);
    ++stats.count;
  }
  return out;
}

void Tracer::WriteJson(icarus::obs::JsonWriter* json) const {
  int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  json->BeginArray();
  for (const Span& s : spans_) {
    json->BeginObject()
        .Key("name").String(s.name)
        .Key("parent").Int(s.parent)
        .Key("start_us").Double(static_cast<double>(s.start_ns - origin) / 1e3)
        .Key("dur_us").Double(static_cast<double>(s.end_ns - s.start_ns) / 1e3)
        .EndObject();
  }
  json->EndArray();
}

}  // namespace perfbench
