#include "src/verifier/report.h"

#include <algorithm>
#include <cmath>

#include "src/support/str_util.h"

namespace icarus::verifier {

std::string HtmlEscape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      case '\'': out += "&#39;"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

namespace {

const char kCss[] = R"css(
body { font-family: -apple-system, 'Segoe UI', Roboto, sans-serif; margin: 2em auto;
       max-width: 1100px; color: #1a1a2e; background: #fafafc; padding: 0 1em; }
h1 { font-size: 1.5em; } h2 { font-size: 1.15em; margin-top: 2em; }
.meta { color: #666; font-size: 0.85em; }
.tiles { display: flex; gap: 1em; flex-wrap: wrap; margin: 1.2em 0; }
.tile { border-radius: 8px; padding: 0.7em 1.2em; background: #fff;
        box-shadow: 0 1px 3px rgba(0,0,0,0.12); min-width: 7em; }
.tile .n { font-size: 1.6em; font-weight: 700; }
.tile .l { font-size: 0.75em; color: #666; text-transform: uppercase; }
table { border-collapse: collapse; width: 100%; background: #fff; font-size: 0.85em;
        box-shadow: 0 1px 3px rgba(0,0,0,0.12); }
th, td { padding: 0.45em 0.7em; text-align: left; border-bottom: 1px solid #eee; }
th { background: #f0f0f5; font-size: 0.8em; text-transform: uppercase; color: #555; }
td.num { text-align: right; font-variant-numeric: tabular-nums; }
.badge { display: inline-block; padding: 0.1em 0.55em; border-radius: 9px;
         font-size: 0.85em; font-weight: 600; }
.ok   { background: #e3f6e8; color: #19692c; }
.cached { background: #e3f6e8; color: #19692c; border: 1px dashed #19692c; }
.bad  { background: #fde8e8; color: #9b1c1c; }
.warn { background: #fdf6dd; color: #8a6d1a; }
.err  { background: #ece9fd; color: #4c3a9b; }
.stack { display: flex; height: 10px; width: 160px; border-radius: 5px;
         overflow: hidden; background: #eee; }
.stack div { height: 100%; }
.s-gen { background: #6fa8dc; } .s-interp { background: #93c47d; }
.s-solve { background: #e06666; }
.legend span { font-size: 0.75em; margin-right: 1em; }
.legend i { display: inline-block; width: 10px; height: 10px; border-radius: 2px;
            margin-right: 0.3em; }
.hist { background: #fff; padding: 1em; box-shadow: 0 1px 3px rgba(0,0,0,0.12);
        font-size: 0.8em; }
.hrow { display: flex; align-items: center; gap: 0.6em; margin: 2px 0; }
.hlabel { width: 11em; text-align: right; color: #555;
          font-variant-numeric: tabular-nums; }
.hbar { height: 12px; background: #6fa8dc; border-radius: 2px; }
.hcount { color: #555; }
details.cx { margin: 0.2em 0; }
details.cx pre, details.metrics pre { background: #23233b; color: #e8e8f0;
  padding: 0.8em; border-radius: 6px; overflow-x: auto; font-size: 0.95em; }
.cxgrid dt { font-weight: 600; margin-top: 0.4em; font-size: 0.85em; }
.cxgrid dd { margin: 0.1em 0 0 0; font-family: monospace; font-size: 0.9em; }
.note { color: #8a6d1a; background: #fdf6dd; padding: 0.5em 0.8em;
        border-radius: 6px; font-size: 0.85em; }
)css";

const char* BadgeClass(const std::string& outcome) {
  if (outcome == "VERIFIED") {
    return "ok";
  }
  if (outcome == "CACHED_SAFE") {
    return "cached";
  }
  if (outcome == "COUNTEREXAMPLE") {
    return "bad";
  }
  if (outcome == "INCONCLUSIVE") {
    return "warn";
  }
  return "err";
}

void AppendTile(int64_t n, const char* label, std::string* out) {
  *out += StrFormat("<div class=\"tile\"><div class=\"n\">%lld</div><div class=\"l\">%s</div></div>\n",
                    static_cast<long long>(n), label);
}

// Renders a simple count histogram over `values` with `n_buckets` equal-width
// buckets, as stacked horizontal bars. `unit` labels the bucket bounds.
void AppendHistogram(const std::vector<double>& values, int n_buckets, const char* unit,
                     int precision, std::string* out) {
  *out += "<div class=\"hist\">\n";
  if (values.empty()) {
    *out += "<em>no data</em></div>\n";
    return;
  }
  double lo = *std::min_element(values.begin(), values.end());
  double hi = *std::max_element(values.begin(), values.end());
  if (hi <= lo) {
    hi = lo + 1.0;  // All-equal data: one bucket holding everything.
  }
  std::vector<int> counts(static_cast<size_t>(n_buckets), 0);
  for (double v : values) {
    int b = static_cast<int>((v - lo) / (hi - lo) * n_buckets);
    b = std::min(b, n_buckets - 1);
    ++counts[static_cast<size_t>(b)];
  }
  int max_count = *std::max_element(counts.begin(), counts.end());
  for (int b = 0; b < n_buckets; ++b) {
    double b_lo = lo + (hi - lo) * b / n_buckets;
    double b_hi = lo + (hi - lo) * (b + 1) / n_buckets;
    int width = max_count > 0 ? counts[static_cast<size_t>(b)] * 360 / max_count : 0;
    *out += StrFormat(
        "<div class=\"hrow\"><div class=\"hlabel\">%.*f&ndash;%.*f %s</div>"
        "<div class=\"hbar\" style=\"width:%dpx\"></div>"
        "<div class=\"hcount\">%d</div></div>\n",
        precision, b_lo, precision, b_hi, unit, width, counts[static_cast<size_t>(b)]);
  }
  *out += "</div>\n";
}

void AppendStageBar(const JournalRecord& r, double max_stage_total, std::string* out) {
  const double total = r.gen_s + r.interp_s + r.solve_s;
  if (total <= 0.0 || max_stage_total <= 0.0) {
    *out += "<div class=\"stack\"></div>";
    return;
  }
  // Bars share one scale across rows so lengths compare between generators.
  const double scale = 160.0 * (total / max_stage_total) / total;
  *out += "<div class=\"stack\">";
  const std::pair<const char*, double> stages[] = {
      {"s-gen", r.gen_s}, {"s-interp", r.interp_s}, {"s-solve", r.solve_s}};
  for (const auto& [cls, seconds] : stages) {
    int px = static_cast<int>(std::lround(seconds * scale));
    if (px > 0) {
      *out += StrFormat("<div class=\"%s\" style=\"width:%dpx\"></div>", cls, px);
    }
  }
  *out += "</div>";
}

void AppendCounterexample(const JournalRecord& r, std::string* out) {
  *out += "<details class=\"cx\"><summary>counterexample</summary><dl class=\"cxgrid\">\n";
  *out += StrFormat("<dt>violated contract</dt><dd>%s</dd>\n",
                    HtmlEscape(r.cx_contract).c_str());
  *out += StrFormat("<dt>location</dt><dd>%s:%d</dd>\n", HtmlEscape(r.cx_function).c_str(),
                    r.cx_line);
  if (!r.cx_decisions.empty()) {
    *out += StrFormat("<dt>path decisions</dt><dd>%s</dd>\n",
                      HtmlEscape(r.cx_decisions).c_str());
  }
  if (!r.cx_witnesses.empty()) {
    *out += StrFormat("<dt>witness values</dt><dd>%s</dd>\n",
                      HtmlEscape(r.cx_witnesses).c_str());
  }
  if (!r.cx_source_ops.empty()) {
    *out += StrFormat("<dt>source ops</dt><dd>%s</dd>\n",
                      HtmlEscape(r.cx_source_ops).c_str());
  }
  if (!r.cx_target_ops.empty()) {
    *out += StrFormat("<dt>target ops</dt><dd>%s</dd>\n",
                      HtmlEscape(r.cx_target_ops).c_str());
  }
  *out += "</dl></details>\n";
}

}  // namespace

std::string RenderHtmlReport(const ReportInput& input) {
  const std::string title =
      input.title.empty() ? std::string("Icarus verification report") : input.title;
  std::string out = "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n";
  out += StrFormat("<title>%s</title>\n<style>%s</style>\n</head>\n<body>\n",
                   HtmlEscape(title).c_str(), kCss);
  out += StrFormat("<h1>%s</h1>\n", HtmlEscape(title).c_str());
  if (!input.fingerprint.empty()) {
    out += StrFormat("<p class=\"meta\">platform: %s</p>\n",
                     HtmlEscape(input.fingerprint).c_str());
  }

  // Outcome tiles.
  int64_t verified = 0;
  int64_t cached_safe = 0;
  int64_t refuted = 0;
  int64_t inconclusive = 0;
  int64_t errors = 0;
  for (const JournalRecord& r : input.rows) {
    if (r.outcome == "VERIFIED") {
      ++verified;
    } else if (r.outcome == "CACHED_SAFE") {
      ++cached_safe;
    } else if (r.outcome == "COUNTEREXAMPLE") {
      ++refuted;
    } else if (r.outcome == "INCONCLUSIVE") {
      ++inconclusive;
    } else {
      ++errors;
    }
  }
  out += "<div class=\"tiles\">\n";
  AppendTile(static_cast<int64_t>(input.rows.size()), "generators", &out);
  AppendTile(verified, "verified", &out);
  if (cached_safe > 0) {
    AppendTile(cached_safe, "cached safe", &out);
  }
  AppendTile(refuted, "counterexamples", &out);
  AppendTile(inconclusive, "inconclusive", &out);
  AppendTile(errors, "errors", &out);
  out += "</div>\n";

  if (input.trace_dropped_spans > 0) {
    out += StrFormat(
        "<p class=\"note\">trace ring buffer overflowed: %lld spans dropped "
        "&mdash; the attached trace is truncated.</p>\n",
        static_cast<long long>(input.trace_dropped_spans));
  }

  // Verdict table.
  out += "<h2>Verdicts</h2>\n";
  out += "<p class=\"legend\"><span><i class=\"s-gen\"></i>generate</span>"
         "<span><i class=\"s-interp\"></i>interpret</span>"
         "<span><i class=\"s-solve\"></i>solve</span></p>\n";
  out += "<table>\n<tr><th>Generator</th><th>Outcome</th><th>Paths</th>"
         "<th>Attached</th><th>Infeasible</th><th>Queries</th>"
         "<th>Time (s)</th><th>Stage costs</th></tr>\n";
  double max_stage_total = 0.0;
  for (const JournalRecord& r : input.rows) {
    max_stage_total = std::max(max_stage_total, r.gen_s + r.interp_s + r.solve_s);
  }
  for (const JournalRecord& r : input.rows) {
    out += StrFormat("<tr><td>%s", HtmlEscape(r.generator).c_str());
    if (!r.cx_contract.empty()) {
      AppendCounterexample(r, &out);
    }
    if (!r.error.empty()) {
      out += StrFormat("<div class=\"meta\">%s</div>", HtmlEscape(r.error).c_str());
    }
    out += StrFormat("</td><td><span class=\"badge %s\">%s</span></td>",
                     BadgeClass(r.outcome), HtmlEscape(r.outcome).c_str());
    out += StrFormat(
        "<td class=\"num\">%lld</td><td class=\"num\">%lld</td>"
        "<td class=\"num\">%lld</td><td class=\"num\">%lld</td>"
        "<td class=\"num\">%.4f</td><td>",
        static_cast<long long>(r.paths), static_cast<long long>(r.paths_attached),
        static_cast<long long>(r.paths_infeasible), static_cast<long long>(r.queries),
        r.seconds);
    AppendStageBar(r, max_stage_total, &out);
    out += "</td></tr>\n";
  }
  out += "</table>\n";

  // Distribution panels.
  std::vector<double> path_counts;
  std::vector<double> solve_times;
  for (const JournalRecord& r : input.rows) {
    if (r.outcome == "ERROR" || r.outcome == "INTERNAL_ERROR") {
      continue;
    }
    path_counts.push_back(static_cast<double>(r.paths));
    solve_times.push_back(r.solve_s * 1000.0);
  }
  out += "<h2>Paths per generator</h2>\n";
  AppendHistogram(path_counts, 8, "paths", 0, &out);
  out += "<h2>Solver time per generator</h2>\n";
  AppendHistogram(solve_times, 8, "ms", 2, &out);

  if (!input.cache_summary.empty()) {
    out += StrFormat("<p class=\"meta\">%s</p>\n", HtmlEscape(input.cache_summary).c_str());
  }
  if (!input.metrics_json.empty()) {
    out += "<h2>Metrics snapshot</h2>\n<details class=\"metrics\"><summary>registry dump"
           "</summary><pre>";
    out += HtmlEscape(input.metrics_json);
    out += "</pre></details>\n";
  }
  out += "</body>\n</html>\n";
  return out;
}

}  // namespace icarus::verifier
