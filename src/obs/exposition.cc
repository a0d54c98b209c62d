#include "src/obs/exposition.h"

#include <cmath>
#include <cstdlib>

#include "src/obs/metrics.h"
#include "src/support/str_util.h"

namespace icarus::obs {

namespace {

// Splits one text line into [first-token, rest].
std::string_view FirstToken(std::string_view line, std::string_view* rest) {
  size_t space = line.find(' ');
  if (space == std::string_view::npos) {
    *rest = {};
    return line;
  }
  *rest = line.substr(space + 1);
  return line.substr(0, space);
}

template <typename T>
T* FindByName(std::vector<T>& items, std::string_view name) {
  for (T& item : items) {
    if (item.name == name) {
      return &item;
    }
  }
  return nullptr;
}

template <typename T>
const T* FindByName(const std::vector<T>& items, std::string_view name) {
  for (const T& item : items) {
    if (item.name == name) {
      return &item;
    }
  }
  return nullptr;
}

bool ParseDouble(std::string_view text, double* out) {
  std::string buf(text);
  char* end = nullptr;
  *out = std::strtod(buf.c_str(), &end);
  return end == buf.c_str() + buf.size() && !buf.empty();
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() && s.substr(s.size() - suffix.size()) == suffix;
}

}  // namespace

double ExpositionHistogram::Quantile(double q) const {
  if (count <= 0 || cumulative.empty()) {
    return 0;
  }
  if (q < 0) {
    q = 0;
  }
  if (q > 1) {
    q = 1;
  }
  double target = q * static_cast<double>(count);
  int64_t prev = 0;
  for (size_t i = 0; i < cumulative.size(); ++i) {
    if (static_cast<double>(cumulative[i]) >= target) {
      double lo = i == 0 ? 0.0 : Histogram::BucketBound(static_cast<int>(i) - 1);
      double hi = Histogram::BucketBound(static_cast<int>(i));
      int64_t in_bucket = cumulative[i] - prev;
      if (in_bucket <= 0) {
        return hi;
      }
      double frac = (target - static_cast<double>(prev)) / static_cast<double>(in_bucket);
      return lo + (hi - lo) * frac;
    }
    prev = cumulative[i];
  }
  // Overflow bucket: everything we know is "past the largest finite bound".
  return Histogram::BucketBound(static_cast<int>(cumulative.size()) - 1);
}

const ExpositionScalar* Exposition::FindCounter(std::string_view name) const {
  return FindByName(counters, name);
}

const ExpositionScalar* Exposition::FindGauge(std::string_view name) const {
  return FindByName(gauges, name);
}

const ExpositionHistogram* Exposition::FindHistogram(std::string_view name) const {
  return FindByName(histograms, name);
}

StatusOr<Exposition> ParsePrometheus(std::string_view text) {
  Exposition exp;
  // name → (help, type) gathered from comment lines; samples consult it.
  struct Declared {
    std::string help;
    std::string type;
  };
  std::vector<std::pair<std::string, Declared>> declared;
  auto find_declared = [&](std::string_view name) -> Declared* {
    for (auto& [n, d] : declared) {
      if (n == name) {
        return &d;
      }
    }
    return nullptr;
  };
  auto histogram_for = [&](std::string_view name) -> ExpositionHistogram* {
    ExpositionHistogram* h = FindByName(exp.histograms, name);
    if (h == nullptr) {
      exp.histograms.push_back({});
      h = &exp.histograms.back();
      h->name = std::string(name);
      if (Declared* d = find_declared(name)) {
        h->help = d->help;
      }
      h->cumulative.assign(Histogram::kNumBuckets, 0);
    }
    return h;
  };

  size_t pos = 0;
  int line_no = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    std::string_view line =
        text.substr(pos, eol == std::string_view::npos ? std::string_view::npos : eol - pos);
    pos = eol == std::string_view::npos ? text.size() : eol + 1;
    ++line_no;
    if (line.empty()) {
      continue;
    }
    if (line[0] == '#') {
      // "# HELP name text..." / "# TYPE name kind"; other comments skipped.
      std::string_view rest;
      FirstToken(line, &rest);  // "#"
      std::string_view kind = FirstToken(rest, &rest);
      std::string_view name = FirstToken(rest, &rest);
      if (kind == "HELP" || kind == "TYPE") {
        Declared* d = find_declared(name);
        if (d == nullptr) {
          declared.emplace_back(std::string(name), Declared{});
          d = &declared.back().second;
        }
        if (kind == "HELP") {
          d->help = std::string(rest);
        } else {
          d->type = std::string(rest);
        }
      }
      continue;
    }
    // Sample line: "name value" or "name_bucket{le=\"bound\"} value".
    std::string_view rest;
    std::string_view name = FirstToken(line, &rest);
    double value = 0;
    if (!ParseDouble(rest, &value)) {
      return Status::Error(StrFormat("exposition line %d: bad sample value", line_no));
    }
    size_t brace = name.find('{');
    if (brace != std::string_view::npos) {
      std::string_view base = name.substr(0, brace);
      std::string_view labels = name.substr(brace);
      if (!EndsWith(base, "_bucket") || labels.substr(0, 5) != "{le=\"" ||
          !EndsWith(labels, "\"}")) {
        return Status::Error(
            StrFormat("exposition line %d: unsupported labelled sample", line_no));
      }
      std::string_view hist_name = base.substr(0, base.size() - 7);
      std::string_view le = labels.substr(5, labels.size() - 7);
      ExpositionHistogram* h = histogram_for(hist_name);
      if (le == "+Inf") {
        h->count = static_cast<int64_t>(value);
        continue;
      }
      double bound = 0;
      if (!ParseDouble(le, &bound)) {
        return Status::Error(StrFormat("exposition line %d: bad le bound", line_no));
      }
      // %.9g can round a bound either way; a bound rounded UP lands one
      // bucket high in BucketFor, so snap back when the previous bucket's
      // bound is within tolerance.
      int bucket = Histogram::BucketFor(bound);
      if (bucket > 0 && std::fabs(Histogram::BucketBound(bucket - 1) - bound) <=
                            1e-6 * Histogram::BucketBound(bucket - 1)) {
        --bucket;
      }
      if (bucket < 0 || bucket >= Histogram::kNumBuckets ||
          std::fabs(Histogram::BucketBound(bucket) - bound) >
              1e-6 * Histogram::BucketBound(bucket)) {
        return Status::Error(StrFormat(
            "exposition line %d: le bound %g is not in the shared bucket scheme", line_no,
            bound));
      }
      h->cumulative[bucket] = static_cast<int64_t>(value);
      continue;
    }
    if (EndsWith(name, "_sum") && find_declared(name.substr(0, name.size() - 4)) != nullptr &&
        find_declared(name.substr(0, name.size() - 4))->type == "histogram") {
      histogram_for(name.substr(0, name.size() - 4))->sum = value;
      continue;
    }
    if (EndsWith(name, "_count") && find_declared(name.substr(0, name.size() - 6)) != nullptr &&
        find_declared(name.substr(0, name.size() - 6))->type == "histogram") {
      histogram_for(name.substr(0, name.size() - 6))->count = static_cast<int64_t>(value);
      continue;
    }
    Declared* d = find_declared(name);
    ExpositionScalar scalar;
    scalar.name = std::string(name);
    scalar.value = value;
    if (d != nullptr) {
      scalar.help = d->help;
    }
    if (d != nullptr && d->type == "gauge") {
      exp.gauges.push_back(std::move(scalar));
    } else {
      exp.counters.push_back(std::move(scalar));
    }
  }
  return exp;
}

}  // namespace icarus::obs
