// HTML run report: aggregates a verification run (journal records) into one
// self-contained dashboard file.
//
// Rows are the journal's own records, so `icarus report` renders a journal
// as read and `verify-all --report` renders RecordFromResult() of its
// in-memory rows. The output is a single HTML document with inline CSS and
// zero external assets (no scripts, no fonts, no CDN), so it can be archived
// next to the journal and opened anywhere, including from CI artifacts.
#ifndef ICARUS_VERIFIER_REPORT_H_
#define ICARUS_VERIFIER_REPORT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/verifier/journal.h"

namespace icarus::verifier {

// Everything the dashboard renders.
struct ReportInput {
  std::string title;  // Page heading; defaults applied when empty.
  std::vector<JournalRecord> rows;  // One per generator, in display order.
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

}  // namespace icarus::verifier

#endif  // ICARUS_VERIFIER_REPORT_H_
