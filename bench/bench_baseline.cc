#include "bench/bench_baseline.h"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>

#include "src/obs/json.h"
#include "src/support/str_util.h"

namespace icarus::bench {

namespace {

// Minimal parser for the two-level shape WriteBenchJson emits. Like the
// journal's LineParser it is intentionally not a general JSON parser: the
// only producer is our own writer, so we accept exactly strings, numbers,
// `null` (the writer's rendering of non-finite doubles), and the one
// object/array nesting the format uses.
class BenchJsonParser {
 public:
  explicit BenchJsonParser(std::string_view text)
      : p_(text.data()), end_(text.data() + text.size()) {}

  Status Parse(BenchRun* run) {
    SkipWs();
    if (!Consume('{')) {
      return Err("expected '{'");
    }
    SkipWs();
    if (Consume('}')) {
      return Status::Ok();
    }
    while (true) {
      std::string key;
      if (!ParseString(&key)) {
        return Err("expected object key");
      }
      SkipWs();
      if (!Consume(':')) {
        return Err("expected ':'");
      }
      SkipWs();
      if (key == "bench") {
        if (!ParseString(&run->bench)) {
          return Err("expected string for \"bench\"");
        }
      } else if (key == "entries") {
        Status st = ParseEntries(run);
        if (!st.ok()) {
          return st;
        }
      } else {
        Status st = SkipValue();
        if (!st.ok()) {
          return st;
        }
      }
      SkipWs();
      if (Consume(',')) {
        SkipWs();
        continue;
      }
      break;
    }
    if (!Consume('}')) {
      return Err("expected '}'");
    }
    SkipWs();
    return p_ == end_ ? Status::Ok() : Err("trailing data after document");
  }

 private:
  Status Err(const char* what) const {
    return Status::Error(StrCat("bench JSON malformed: ", what, " at offset ",
                                static_cast<long long>(p_ - start_)));
  }
  void SkipWs() {
    while (p_ < end_ && (*p_ == ' ' || *p_ == '\t' || *p_ == '\n' || *p_ == '\r')) {
      ++p_;
    }
  }
  bool Consume(char c) {
    if (p_ < end_ && *p_ == c) {
      ++p_;
      return true;
    }
    return false;
  }

  bool ParseString(std::string* out) {
    if (!Consume('"')) {
      return false;
    }
    out->clear();
    while (p_ < end_ && *p_ != '"') {
      char c = *p_++;
      if (c == '\\') {
        if (p_ >= end_) {
          return false;
        }
        char e = *p_++;
        switch (e) {
          case '"': out->push_back('"'); break;
          case '\\': out->push_back('\\'); break;
          case '/': out->push_back('/'); break;
          case 'n': out->push_back('\n'); break;
          case 'r': out->push_back('\r'); break;
          case 't': out->push_back('\t'); break;
          case 'u': {
            if (end_ - p_ < 4) {
              return false;
            }
            char hex[5] = {p_[0], p_[1], p_[2], p_[3], '\0'};
            char* hex_end = nullptr;
            long cp = std::strtol(hex, &hex_end, 16);
            if (hex_end != hex + 4) {
              return false;
            }
            p_ += 4;
            out->push_back(static_cast<char>(cp & 0xff));
            break;
          }
          default:
            return false;
        }
      } else {
        out->push_back(c);
      }
    }
    return Consume('"');
  }

  bool ParseNumber(double* out) {
    // The writer renders non-finite doubles as null; read them back as 0.
    if (end_ - p_ >= 4 && std::string_view(p_, 4) == "null") {
      p_ += 4;
      *out = 0.0;
      return true;
    }
    const char* num_start = p_;
    while (p_ < end_ && (std::isdigit(static_cast<unsigned char>(*p_)) != 0 || *p_ == '-' ||
                         *p_ == '+' || *p_ == '.' || *p_ == 'e' || *p_ == 'E')) {
      ++p_;
    }
    if (p_ == num_start) {
      return false;
    }
    std::string text(num_start, p_);
    char* num_end = nullptr;
    errno = 0;
    double v = std::strtod(text.c_str(), &num_end);
    if (errno != 0 || num_end != text.c_str() + text.size()) {
      return false;
    }
    *out = v;
    return true;
  }

  // Skips a scalar value under an unknown key (additive evolution).
  Status SkipValue() {
    if (p_ < end_ && *p_ == '"') {
      std::string ignored;
      return ParseString(&ignored) ? Status::Ok() : Err("bad string value");
    }
    double ignored = 0.0;
    return ParseNumber(&ignored) ? Status::Ok() : Err("unsupported value under unknown key");
  }

  Status ParseEntries(BenchRun* run) {
    if (!Consume('[')) {
      return Err("expected '[' for \"entries\"");
    }
    SkipWs();
    if (Consume(']')) {
      return Status::Ok();
    }
    while (true) {
      BenchEntry entry;
      Status st = ParseEntry(&entry);
      if (!st.ok()) {
        return st;
      }
      run->entries.push_back(std::move(entry));
      SkipWs();
      if (Consume(',')) {
        SkipWs();
        continue;
      }
      break;
    }
    return Consume(']') ? Status::Ok() : Err("expected ']'");
  }

  Status ParseEntry(BenchEntry* entry) {
    if (!Consume('{')) {
      return Err("expected '{' for entry");
    }
    SkipWs();
    if (Consume('}')) {
      return Status::Ok();
    }
    while (true) {
      std::string key;
      if (!ParseString(&key)) {
        return Err("expected entry key");
      }
      SkipWs();
      if (!Consume(':')) {
        return Err("expected ':' in entry");
      }
      SkipWs();
      if (key == "name") {
        if (!ParseString(&entry->name)) {
          return Err("expected string for entry \"name\"");
        }
      } else {
        double v = 0.0;
        if (p_ < end_ && *p_ == '"') {
          std::string ignored;  // Unknown string-valued key.
          if (!ParseString(&ignored)) {
            return Err("bad string in entry");
          }
        } else if (!ParseNumber(&v)) {
          return Err("expected number in entry");
        } else if (key == "mean_ms") {
          entry->mean_ms = v;
        } else if (key == "median_ms") {
          entry->median_ms = v;
        } else if (key == "stddev_ms") {
          entry->stddev_ms = v;
        } else if (key == "runs") {
          entry->runs = static_cast<int>(v);
        }
      }
      SkipWs();
      if (Consume(',')) {
        SkipWs();
        continue;
      }
      break;
    }
    return Consume('}') ? Status::Ok() : Err("expected '}' for entry");
  }

  const char* p_;
  const char* end_;
  const char* start_ = p_;
};

// The figure of merit for one entry: median when present, mean otherwise.
double EntryMs(const BenchEntry& e) {
  return e.median_ms > 0.0 ? e.median_ms : e.mean_ms;
}

}  // namespace

Status WriteBenchJson(const std::string& path, std::string_view bench_name,
                      const std::vector<BenchEntry>& entries) {
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("bench").String(bench_name);
  w.Key("entries").BeginArray();
  for (const BenchEntry& e : entries) {
    w.BeginObject();
    w.Key("name").String(e.name);
    w.Key("mean_ms").Double(e.mean_ms);
    w.Key("median_ms").Double(e.median_ms);
    w.Key("stddev_ms").Double(e.stddev_ms);
    w.Key("runs").Int(e.runs);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::Error(
        StrCat("cannot open '", path, "' for bench JSON: ", std::strerror(errno)));
  }
  const std::string& doc = w.str();
  size_t written = std::fwrite(doc.data(), 1, doc.size(), f);
  int newline = std::fputc('\n', f);
  int closed = std::fclose(f);
  if (written != doc.size() || newline == EOF || closed != 0) {
    return Status::Error(StrCat("short write to bench JSON '", path, "'"));
  }
  return Status::Ok();
}

StatusOr<BenchRun> ParseBenchJson(std::string_view text) {
  BenchRun run;
  Status st = BenchJsonParser(text).Parse(&run);
  if (!st.ok()) {
    return st;
  }
  return run;
}

StatusOr<BenchRun> ReadBenchJsonFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::Error(StrCat("cannot read bench JSON '", path, "'"));
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  StatusOr<BenchRun> run = ParseBenchJson(buf.str());
  if (!run.ok()) {
    return Status::Error(StrCat(run.status().message(), " (in '", path, "')"));
  }
  return run;
}

BenchComparison CompareBenchRuns(const BenchRun& baseline, const BenchRun& current,
                                 double threshold_pct, double noise_floor_ms) {
  BenchComparison cmp;
  cmp.threshold_pct = threshold_pct;
  std::map<std::string, const BenchEntry*> base_by_name;
  for (const BenchEntry& e : baseline.entries) {
    base_by_name[e.name] = &e;
  }
  std::map<std::string, bool> seen;
  for (const BenchEntry& e : current.entries) {
    auto it = base_by_name.find(e.name);
    if (it == base_by_name.end()) {
      cmp.added.push_back(e.name);
      continue;
    }
    seen[e.name] = true;
    BenchDelta d;
    d.name = e.name;
    d.baseline_ms = EntryMs(*it->second);
    d.current_ms = EntryMs(e);
    if (d.baseline_ms > 0.0) {
      d.delta_pct = (d.current_ms - d.baseline_ms) / d.baseline_ms * 100.0;
      d.regressed = d.delta_pct > threshold_pct &&
                    d.current_ms - d.baseline_ms > noise_floor_ms;
    }
    cmp.regressed = cmp.regressed || d.regressed;
    cmp.deltas.push_back(std::move(d));
  }
  for (const BenchEntry& e : baseline.entries) {
    if (seen.find(e.name) == seen.end()) {
      cmp.removed.push_back(e.name);
    }
  }
  return cmp;
}

std::string BenchComparison::Render() const {
  std::string out = StrFormat("%-44s %12s %12s %9s\n", "Entry", "Baseline(ms)", "Current(ms)",
                              "Delta");
  out += std::string(82, '-') + "\n";
  for (const BenchDelta& d : deltas) {
    out += StrFormat("%-44s %12.3f %12.3f %+8.1f%%%s\n", d.name.c_str(), d.baseline_ms,
                     d.current_ms, d.delta_pct, d.regressed ? "  REGRESSED" : "");
  }
  for (const std::string& name : added) {
    out += StrFormat("%-44s %12s %12s   (new entry, no baseline)\n", name.c_str(), "-", "-");
  }
  for (const std::string& name : removed) {
    out += StrFormat("%-44s %12s %12s   (removed from current run)\n", name.c_str(), "-", "-");
  }
  out += std::string(82, '-') + "\n";
  int n_regressed = 0;
  for (const BenchDelta& d : deltas) {
    n_regressed += d.regressed ? 1 : 0;
  }
  out += StrFormat("%s: %d/%d entries within +%.0f%% of baseline", regressed ? "FAIL" : "PASS",
                   static_cast<int>(deltas.size()) - n_regressed,
                   static_cast<int>(deltas.size()), threshold_pct);
  if (n_regressed > 0) {
    out += StrFormat(" (%d regressed)", n_regressed);
  }
  out.push_back('\n');
  return out;
}

}  // namespace icarus::bench
