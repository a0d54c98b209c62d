// Tracing tests: span recording with correct parent/child nesting depths,
// multi-thread buffers surviving thread exit, ring-buffer overwrite
// accounting, and a structurally-validated Chrome trace_event export.
#include "src/obs/trace.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

namespace icarus::obs {
namespace {

class ObsTraceTest : public ::testing::Test {
 protected:
  void SetUp() override { StartTracing(); }
  void TearDown() override { StopTracing(); }
};

const SpanEvent* FindSpan(const std::vector<SpanEvent>& spans, const std::string& name) {
  for (const SpanEvent& s : spans) {
    if (s.name == name) {
      return &s;
    }
  }
  return nullptr;
}

TEST_F(ObsTraceTest, NestedSpansRecordDepthAndContainment) {
  {
    ScopedSpan outer("outer");
    {
      ScopedSpan mid("mid", "detail");
      ScopedSpan inner("inner");
    }
  }
  std::vector<SpanEvent> spans = SnapshotSpans();
  const SpanEvent* outer = FindSpan(spans, "outer");
  const SpanEvent* mid = FindSpan(spans, "mid:detail");
  const SpanEvent* inner = FindSpan(spans, "inner");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(mid, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->depth, 0);
  EXPECT_EQ(mid->depth, 1);
  EXPECT_EQ(inner->depth, 2);
  EXPECT_EQ(outer->tid, mid->tid);
  // Children are contained in the parent's interval (RAII guarantees it;
  // the timestamps must agree).
  EXPECT_GE(mid->start_us, outer->start_us);
  EXPECT_LE(mid->start_us + mid->dur_us, outer->start_us + outer->dur_us + 1.0);
  EXPECT_GE(inner->start_us, mid->start_us);
}

TEST_F(ObsTraceTest, SpansSurviveThreadExit) {
  std::thread worker([] { ScopedSpan span("worker.span"); });
  worker.join();
  std::vector<SpanEvent> spans = SnapshotSpans();
  const SpanEvent* s = FindSpan(spans, "worker.span");
  ASSERT_NE(s, nullptr) << "span recorded on a dead thread must still export";
  // Worker threads get their own tid, distinct from this thread's spans.
  ScopedSpan here("main.span");
  (void)here;
}

TEST_F(ObsTraceTest, DistinctThreadsGetDistinctTids) {
  { ScopedSpan main_span("tid.main"); }
  std::thread worker([] { ScopedSpan span("tid.worker"); });
  worker.join();
  std::vector<SpanEvent> spans = SnapshotSpans();
  const SpanEvent* a = FindSpan(spans, "tid.main");
  const SpanEvent* b = FindSpan(spans, "tid.worker");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_NE(a->tid, b->tid);
}

TEST_F(ObsTraceTest, InactiveTracingRecordsNothing) {
  StopTracing();
  { ScopedSpan span("not.recorded"); }
  StartTracing();  // StartTracing clears buffers; spans before it are gone.
  { ScopedSpan span("recorded"); }
  std::vector<SpanEvent> spans = SnapshotSpans();
  EXPECT_EQ(FindSpan(spans, "not.recorded"), nullptr);
  EXPECT_NE(FindSpan(spans, "recorded"), nullptr);
}

TEST_F(ObsTraceTest, RingBufferOverwriteIsCounted) {
  // Push far past one buffer's capacity on a single thread; the oldest spans
  // are overwritten and the loss is accounted, never silent.
  constexpr int kSpans = 20000;  // > kCapacity (16384).
  for (int i = 0; i < kSpans; ++i) {
    ScopedSpan span("spin");
  }
  std::vector<SpanEvent> spans = SnapshotSpans();
  int64_t dropped = DroppedSpans();
  EXPECT_GT(dropped, 0);
  int recorded = static_cast<int>(
      std::count_if(spans.begin(), spans.end(),
                    [](const SpanEvent& s) { return s.name == "spin"; }));
  EXPECT_EQ(recorded + dropped, kSpans);
}

TEST_F(ObsTraceTest, ChromeTraceExportIsWellFormed) {
  {
    ScopedSpan outer("export.outer");
    ScopedSpan inner("export.inner", "gen");
  }
  StopTracing();
  std::string json = ExportChromeTrace();
  // Chrome trace_event envelope with complete events. (Structural checks;
  // the CLI acceptance run loads the same output in Perfetto.)
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"export.outer\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"export.inner:gen\""), std::string::npos);
  EXPECT_NE(json.find("\"dropped_spans\""), std::string::npos);
  // Events are sorted by start time: the outer span must appear before the
  // inner one in the serialized array.
  EXPECT_LT(json.find("export.outer"), json.find("export.inner"));
}

TEST_F(ObsTraceTest, SpanIdsCarryPidAndLocalParent) {
  int64_t outer_id = 0;
  {
    ScopedSpan outer("id.outer");
    outer_id = outer.id();
    ScopedSpan inner("id.inner");
  }
  ASSERT_NE(outer_id, 0);
  std::vector<SpanEvent> spans = SnapshotSpans();
  const SpanEvent* outer = FindSpan(spans, "id.outer");
  const SpanEvent* inner = FindSpan(spans, "id.inner");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->id, outer_id);
  EXPECT_EQ(outer->parent, 0);
  EXPECT_EQ(inner->parent, outer_id);
  // The high bits carry the producing pid...
  EXPECT_EQ(outer->id >> 31, static_cast<int64_t>(::getpid()));
  // ...and the whole id still fits a JSON double exactly.
  EXPECT_LT(outer->id, int64_t{1} << 53);
}

}  // namespace
}  // namespace icarus::obs
