// Bench-baseline store and regression-gate tests, including the drill the
// gate exists for: a synthetic 2x slowdown must fail the comparison.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_baseline.h"

namespace icarus::bench {
namespace {

BenchEntry Entry(const std::string& name, double median_ms, double mean_ms = 0.0) {
  BenchEntry e;
  e.name = name;
  e.median_ms = median_ms;
  e.mean_ms = mean_ms > 0.0 ? mean_ms : median_ms;
  e.runs = 10;
  return e;
}

BenchRun MakeRun(std::vector<BenchEntry> entries, double calibration_ms = 0.0) {
  BenchRun run;
  run.bench = "bench_fig12";
  run.entries = std::move(entries);
  run.calibration_ms = calibration_ms;
  return run;
}

// A calibration with the minimum number of real kernel timings.
Calibration Calibrated() {
  Calibration cal;
  for (int i = 0; i < kMinCalibrationSamples; ++i) {
    cal.Sample();
  }
  return cal;
}

TEST(BenchBaseline, ParsesWriterOutput) {
  std::string path = ::testing::TempDir() + "/bench_parse.json";
  Calibration cal = Calibrated();
  ASSERT_TRUE(WriteBenchJson(path, "bench_fig12", {Entry("a", 1.5), Entry("b", 2.0)}, cal).ok());
  auto run = ReadBenchJsonFile(path);
  ASSERT_TRUE(run.ok()) << run.status().message();
  EXPECT_EQ(run.value().bench, "bench_fig12");
  ASSERT_EQ(run.value().entries.size(), 2u);
  EXPECT_DOUBLE_EQ(run.value().entries[0].median_ms, 1.5);
  EXPECT_GT(run.value().calibration_ms, 0.0);
  EXPECT_DOUBLE_EQ(run.value().calibration_ms, cal.median_ms());
  std::remove(path.c_str());
}

TEST(BenchBaseline, WriterWantsEnoughCalibrationTimings) {
  std::string path = ::testing::TempDir() + "/bench_uncalibrated.json";
  Calibration cal;
  for (int i = 0; i + 1 < kMinCalibrationSamples; ++i) {
    cal.Sample();
  }
  EXPECT_FALSE(WriteBenchJson(path, "bench_fig12", {Entry("a", 1.5)}, cal).ok());
  std::remove(path.c_str());
}

// A host that runs everything at half speed slows the calibration kernel
// as much as the bench: compared as ratios, nothing regressed.
TEST(BenchBaseline, EntriesAndCalibrationTwiceAsSlowPass) {
  BenchRun base = MakeRun({Entry("a", 10.0), Entry("b", 5.0)}, 0.8);
  BenchRun slow_host = MakeRun({Entry("a", 20.0), Entry("b", 10.0)}, 1.6);
  BenchComparison cmp = CompareBenchRuns(base, slow_host, 75.0);
  EXPECT_TRUE(cmp.calibrated);
  EXPECT_DOUBLE_EQ(cmp.scale, 0.5);
  EXPECT_FALSE(cmp.regressed) << cmp.Render();
  ASSERT_EQ(cmp.deltas.size(), 2u);
  EXPECT_NEAR(cmp.deltas[0].delta_pct, 0.0, 1e-9);
}

// The same slowdown with the host as fast as before is the code's doing.
TEST(BenchBaseline, EntriesTwiceAsSlowAtTheSameCalibrationFail) {
  BenchRun base = MakeRun({Entry("a", 10.0), Entry("b", 5.0)}, 0.8);
  BenchRun slow_code = MakeRun({Entry("a", 20.0), Entry("b", 10.0)}, 0.8);
  BenchComparison cmp = CompareBenchRuns(base, slow_code, 75.0);
  EXPECT_TRUE(cmp.calibrated);
  EXPECT_TRUE(cmp.regressed) << cmp.Render();
  EXPECT_NEAR(cmp.deltas[0].delta_pct, 100.0, 1e-9);
}

// Without a calibration on both sides the comparison is on raw times.
TEST(BenchBaseline, OneSidedCalibrationComparesRawTimes) {
  BenchRun base = MakeRun({Entry("a", 10.0)});
  BenchRun current = MakeRun({Entry("a", 20.0)}, 1.6);
  BenchComparison cmp = CompareBenchRuns(base, current, 75.0);
  EXPECT_FALSE(cmp.calibrated);
  EXPECT_TRUE(cmp.regressed);
}

TEST(BenchBaseline, MalformedJsonIsAnErrorWithOffset) {
  auto run = ParseBenchJson("{\"bench\": \"x\", \"entries\": [{]}");
  ASSERT_FALSE(run.ok());
  EXPECT_NE(run.status().message().find("offset"), std::string::npos)
      << run.status().message();
  EXPECT_FALSE(ReadBenchJsonFile("/nonexistent/bench.json").ok());
}

TEST(BenchBaseline, UnknownEntryKeysAreSkipped) {
  auto run = ParseBenchJson(
      "{\"bench\":\"b\",\"entries\":[{\"name\":\"a\",\"median_ms\":2.5,"
      "\"p99_ms\":9.0,\"note\":\"future field\"}]}");
  ASSERT_TRUE(run.ok()) << run.status().message();
  ASSERT_EQ(run.value().entries.size(), 1u);
  EXPECT_DOUBLE_EQ(run.value().entries[0].median_ms, 2.5);
}

TEST(BenchBaseline, IdenticalRunsPass) {
  BenchRun base = MakeRun({Entry("a", 10.0), Entry("b", 5.0)});
  BenchComparison cmp = CompareBenchRuns(base, base, 50.0);
  EXPECT_FALSE(cmp.regressed);
  ASSERT_EQ(cmp.deltas.size(), 2u);
  EXPECT_DOUBLE_EQ(cmp.deltas[0].delta_pct, 0.0);
  EXPECT_NE(cmp.Render().find("PASS"), std::string::npos) << cmp.Render();
}

// Acceptance criterion: the gate fails on a synthetic 2x slowdown.
TEST(BenchBaseline, TwoXSlowdownFailsTheGate) {
  BenchRun base = MakeRun({Entry("a", 10.0), Entry("b", 5.0)});
  BenchRun slow = MakeRun({Entry("a", 20.0), Entry("b", 5.0)});
  BenchComparison cmp = CompareBenchRuns(base, slow, 50.0);
  EXPECT_TRUE(cmp.regressed);
  ASSERT_EQ(cmp.deltas.size(), 2u);
  EXPECT_TRUE(cmp.deltas[0].regressed);
  EXPECT_NEAR(cmp.deltas[0].delta_pct, 100.0, 1e-9);
  EXPECT_FALSE(cmp.deltas[1].regressed);
  std::string table = cmp.Render();
  EXPECT_NE(table.find("REGRESSED"), std::string::npos) << table;
  EXPECT_NE(table.find("FAIL"), std::string::npos) << table;
}

TEST(BenchBaseline, SpeedupsAndJitterWithinThresholdPass) {
  BenchRun base = MakeRun({Entry("a", 10.0)});
  EXPECT_FALSE(CompareBenchRuns(base, MakeRun({Entry("a", 4.0)}), 50.0).regressed);
  EXPECT_FALSE(CompareBenchRuns(base, MakeRun({Entry("a", 14.9)}), 50.0).regressed);
  EXPECT_TRUE(CompareBenchRuns(base, MakeRun({Entry("a", 15.1)}), 50.0).regressed);
}

TEST(BenchBaseline, AddedAndRemovedEntriesAreNotRegressions) {
  BenchRun base = MakeRun({Entry("kept", 10.0), Entry("gone", 3.0)});
  BenchRun current = MakeRun({Entry("kept", 10.0), Entry("brandnew", 99.0)});
  BenchComparison cmp = CompareBenchRuns(base, current, 50.0);
  EXPECT_FALSE(cmp.regressed);
  ASSERT_EQ(cmp.added.size(), 1u);
  EXPECT_EQ(cmp.added[0], "brandnew");
  ASSERT_EQ(cmp.removed.size(), 1u);
  EXPECT_EQ(cmp.removed[0], "gone");
  std::string table = cmp.Render();
  EXPECT_NE(table.find("new entry"), std::string::npos) << table;
  EXPECT_NE(table.find("removed from current"), std::string::npos) << table;
}

TEST(BenchBaseline, NoiseFloorShieldsMicrosecondEntries) {
  // A 0.03ms entry tripling is 200% relative but 0.06ms absolute — scheduler
  // jitter, not a regression. The same relative slip on a 10ms entry flags.
  BenchRun base = MakeRun({Entry("micro", 0.03)});
  EXPECT_FALSE(CompareBenchRuns(base, MakeRun({Entry("micro", 0.09)}), 50.0).regressed);
  // An absolute slip above the floor still flags, however small the entry.
  EXPECT_TRUE(CompareBenchRuns(base, MakeRun({Entry("micro", 0.50)}), 50.0).regressed);
  // A caller may disable the floor outright.
  EXPECT_TRUE(
      CompareBenchRuns(base, MakeRun({Entry("micro", 0.09)}), 50.0, 0.0).regressed);
}

TEST(BenchBaseline, ZeroBaselineNeverFlags) {
  // Sub-resolution timings round to 0; a 0 -> 0.2ms "regression" is noise,
  // not an infinite-percent slip.
  BenchRun base = MakeRun({Entry("tiny", 0.0, /*mean_ms=*/0.0)});
  base.entries[0].mean_ms = 0.0;
  BenchRun current = MakeRun({Entry("tiny", 0.2)});
  EXPECT_FALSE(CompareBenchRuns(base, current, 50.0).regressed);
}

TEST(BenchBaseline, MedianPreferredMeanFallback) {
  BenchEntry median_only = Entry("m", 10.0, 30.0);  // median 10, mean 30
  BenchEntry mean_only;
  mean_only.name = "m";
  mean_only.mean_ms = 12.0;  // no median reported (single-run bench)
  BenchComparison cmp =
      CompareBenchRuns(MakeRun({median_only}), MakeRun({mean_only}), 50.0);
  ASSERT_EQ(cmp.deltas.size(), 1u);
  EXPECT_DOUBLE_EQ(cmp.deltas[0].baseline_ms, 10.0);
  EXPECT_DOUBLE_EQ(cmp.deltas[0].current_ms, 12.0);
}

TEST(BenchJson, WriterReaderRoundTrip) {
  std::vector<BenchEntry> entries;
  BenchEntry a;
  a.name = "tryAttachCompareInt32";
  a.mean_ms = 1.25;
  a.median_ms = 1.125;
  a.stddev_ms = 0.0625;
  a.runs = 10;
  entries.push_back(a);
  BenchEntry b;
  b.name = "weird \"name\" \xe2\x86\x92";
  b.mean_ms = 0.5;
  b.runs = 1;
  entries.push_back(b);

  std::string path = ::testing::TempDir() + "/bench_roundtrip.json";
  ASSERT_TRUE(WriteBenchJson(path, "bench_fig12", entries, Calibrated()).ok());
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good());
  std::ostringstream buf;
  buf << in.rdbuf();
  // The contract under test is that the writer's escaping parses back
  // losslessly.
  auto run = ParseBenchJson(buf.str());
  ASSERT_TRUE(run.ok()) << run.status().message();
  EXPECT_EQ(run.value().bench, "bench_fig12");
  ASSERT_EQ(run.value().entries.size(), 2u);
  EXPECT_EQ(run.value().entries[0].name, "tryAttachCompareInt32");
  EXPECT_DOUBLE_EQ(run.value().entries[0].median_ms, 1.125);
  EXPECT_EQ(run.value().entries[0].runs, 10);
  EXPECT_EQ(run.value().entries[1].name, b.name);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace icarus::bench
