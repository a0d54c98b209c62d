// HTML run report: aggregates a verification run (journal rows) plus an
// optional metrics snapshot into one self-contained dashboard file.
//
// The emitter lives in obs/, below the verifier layer, so its input is an
// obs-local row type mirroring the flat journal record rather than the
// verifier's result structs — verifier code converts into it (see
// verifier::ReportRowFromRecord), never the other way around. The output is
// a single HTML document with inline CSS and zero external assets (no
// scripts, no fonts, no CDN), so it can be archived next to the journal and
// opened anywhere, including from CI artifacts.
#ifndef ICARUS_OBS_REPORT_H_
#define ICARUS_OBS_REPORT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace icarus::obs {

// One generator's verdict row, pre-flattened (list-valued counterexample
// data arrives pre-rendered, the same wire form journal schema v3 stores).
struct ReportRow {
  std::string generator;
  std::string outcome;  // OutcomeName token: "VERIFIED", "COUNTEREXAMPLE", ...
  std::string error;    // Diagnostic for ERROR / INTERNAL_ERROR rows.
  int64_t paths = 0;
  int64_t paths_attached = 0;
  int64_t paths_infeasible = 0;
  int64_t queries = 0;
  int64_t decisions = 0;
  double seconds = 0.0;
  double cfa_s = 0.0;
  double gen_s = 0.0;
  double interp_s = 0.0;
  double solve_s = 0.0;
  // Counterexample drill-down (empty cx_contract = none).
  std::string cx_contract;
  std::string cx_function;
  int cx_line = 0;
  std::string cx_witnesses;
  std::string cx_source_ops;
  std::string cx_target_ops;
  std::string cx_decisions;
};

// Everything the dashboard renders.
struct ReportInput {
  std::string title;        // Page heading; defaults applied when empty.
  std::string fingerprint;  // Platform fingerprint of the run (may be empty).
  std::vector<ReportRow> rows;
  // Raw metrics-registry JSON text (ExportJson()); embedded verbatim in a
  // collapsible section when non-empty.
  std::string metrics_json;
  // Optional pre-rendered solver-cache summary line.
  std::string cache_summary;
  // Ring-buffer drop count from the trace exporter; < 0 = no trace attached.
  int64_t trace_dropped_spans = -1;
};

// Escapes `&<>"'` for safe embedding in HTML text and attribute positions.
std::string HtmlEscape(std::string_view text);

// Renders the full dashboard. Always returns a complete, well-formed
// document (an empty run renders an empty table, not an error).
std::string RenderHtmlReport(const ReportInput& input);

}  // namespace icarus::obs

#endif  // ICARUS_OBS_REPORT_H_
