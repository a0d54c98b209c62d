// HTML fleet-report tests: well-formed self-contained output, escaping of
// hostile row content, and counterexample drill-downs, over the journal
// records `icarus report` reads.
#include <gtest/gtest.h>

#include <string>

#include "src/verifier/journal.h"
#include "src/verifier/report.h"

namespace icarus::verifier {
namespace {

JournalRecord VerifiedRow(const std::string& name) {
  JournalRecord row;
  row.generator = name;
  row.outcome = "VERIFIED";
  row.paths = 12;
  row.paths_attached = 10;
  row.paths_infeasible = 2;
  row.queries = 40;
  row.decisions = 900;
  row.seconds = 0.25;
  row.gen_s = 0.05;
  row.interp_s = 0.07;
  row.solve_s = 0.1;
  return row;
}

JournalRecord RefutedRow() {
  JournalRecord row = VerifiedRow("bug1685925_buggy");
  row.outcome = "COUNTEREXAMPLE";
  row.cx_contract = "assert idx < numFixedSlots(shape)";
  row.cx_function = "emitGuardShape";
  row.cx_line = 17;
  row.cx_witnesses = "gen_mode = 1; run_val = unconstrained";
  row.cx_source_ops = "GuardToInt32 ; LoadFixedSlot";
  row.cx_target_ops = "branchTestNumber ; loadFixedSlot";
  row.cx_decisions = "TTF";
  return row;
}

TEST(HtmlEscapeTest, EscapesMarkupMetacharacters) {
  EXPECT_EQ(HtmlEscape("<script>&\"'x"), "&lt;script&gt;&amp;&quot;&#39;x");
  EXPECT_EQ(HtmlEscape("plain"), "plain");
}

TEST(HtmlReport, CompleteDocumentEvenWhenEmpty) {
  std::string html = RenderHtmlReport(ReportInput{});
  EXPECT_EQ(html.rfind("<!DOCTYPE html>", 0), 0u) << html.substr(0, 40);
  EXPECT_NE(html.find("</html>"), std::string::npos);
  EXPECT_NE(html.find("<style>"), std::string::npos);
}

TEST(HtmlReport, RendersRowsVerdictsAndCounterexampleDrilldown) {
  ReportInput input;
  input.rows.push_back(VerifiedRow("tryAttachCompareInt32"));
  input.rows.push_back(RefutedRow());
  input.cache_summary = "solver cache: 10 lookups, 50.0% hit rate, 0 upgrades";
  std::string html = RenderHtmlReport(input);
  EXPECT_NE(html.find("tryAttachCompareInt32"), std::string::npos);
  EXPECT_NE(html.find("bug1685925_buggy"), std::string::npos);
  EXPECT_NE(html.find("VERIFIED"), std::string::npos);
  EXPECT_NE(html.find("COUNTEREXAMPLE"), std::string::npos);
  // The counterexample details are embedded (escaped form of the contract).
  EXPECT_NE(html.find("idx &lt; numFixedSlots(shape)"), std::string::npos);
  EXPECT_NE(html.find("TTF"), std::string::npos);
  EXPECT_NE(html.find("50.0% hit rate"), std::string::npos);
  // No verification builds the CFA, so the report draws no CFA stage or
  // section.
  EXPECT_EQ(html.find("cfa"), std::string::npos);
  EXPECT_EQ(html.find("CFA"), std::string::npos);
}

TEST(HtmlReport, SelfContainedNoExternalReferences) {
  ReportInput input;
  input.rows.push_back(RefutedRow());
  std::string html = RenderHtmlReport(input);
  EXPECT_EQ(html.find("http://"), std::string::npos);
  EXPECT_EQ(html.find("https://"), std::string::npos);
  EXPECT_EQ(html.find("src="), std::string::npos);
  EXPECT_EQ(html.find("<script"), std::string::npos);
  EXPECT_EQ(html.find("<link"), std::string::npos);
  EXPECT_EQ(html.find("@import"), std::string::npos);
}

TEST(HtmlReport, HostileRowContentIsEscapedEverywhere) {
  JournalRecord evil = RefutedRow();
  evil.generator = "<script>alert(1)</script>";
  evil.error = "boom <img>";
  evil.outcome = "ERROR";
  evil.cx_witnesses = "x = \"<b>\"";
  ReportInput input;
  input.title = "run & <title>";
  input.rows.push_back(evil);
  std::string html = RenderHtmlReport(input);
  EXPECT_EQ(html.find("<script>alert"), std::string::npos);
  EXPECT_NE(html.find("&lt;script&gt;alert(1)&lt;/script&gt;"), std::string::npos);
  EXPECT_EQ(html.find("<img>"), std::string::npos);
  EXPECT_NE(html.find("run &amp; &lt;title&gt;"), std::string::npos);
}

TEST(HtmlReport, TruncatedTraceIsCalledOut) {
  ReportInput input;
  input.rows.push_back(VerifiedRow("g"));
  input.trace_dropped_spans = 7;
  std::string with_drops = RenderHtmlReport(input);
  EXPECT_NE(with_drops.find("7 spans dropped"), std::string::npos);
  input.trace_dropped_spans = -1;
  std::string without = RenderHtmlReport(input);
  EXPECT_EQ(without.find("spans dropped"), std::string::npos);
}

}  // namespace
}  // namespace icarus::verifier
