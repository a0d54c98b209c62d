// perfbench: the repository benchmark. Runs one workload at one seed and
// prints every metric by name and unit, then, as the last line of standard
// output, one JSON object:
//
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {name: {value, unit}}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
// the per-layer ones. The full record (host, parameters, samples, spans) goes
// to <out-dir>/<workload>-seed<seed>-trace<t>.json. See README.md.
//
// Usage: perfbench --workload W --seed N --seconds S --trace 0|1
//                  [--commit SHA] [--source-digest HEX] [--out-dir DIR]
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "bench.h"
#include "src/obs/json.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

// Claims of a later change are confirmed on this seed, which no tuning of the
// benchmark or of the code under test may use.
constexpr uint64_t kHeldOutSeed = 7919;

struct MetricDef {
  const char* name;
  const char* unit;
};

// Every per-layer metric, printed by every traced run. A workload that never
// reaches a layer reports 0 for it (README.md says which workload moves what).
constexpr MetricDef kLayerMetrics[] = {
    {"platform.load_ms", "ms"},        {"platform.load_share", "ratio"},
    {"ast.parse_ms", "ms"},            {"ast.resolve_ms", "ms"},
    {"ast.fingerprint_ms", "ms"},      {"verifier.verify_ms", "ms"},
    {"verifier.unit_ms_max", "ms"},    {"meta.gen_ms", "ms"},
    {"meta.interp_ms", "ms"},          {"sym.solve_ms", "ms"},
    {"sym.solve_share", "ratio"},      {"meta.paths", "count"},
    {"meta.paths_merged", "count"},    {"sym.queries", "count"},
    {"sym.decisions", "count"},        {"sym.propagations", "count"},
    {"sym.learned_clauses", "count"},  {"sym.cache_lookups", "count"},
    {"sym.cache_hit_rate", "ratio"},   {"verifier.store_load_ms", "ms"},
    {"verifier.store_save_ms", "ms"},  {"sym.cache_load_ms", "ms"},
    {"sym.cache_save_ms", "ms"},       {"sym.cache_preloads", "count"},
    {"verifier.cached_safe", "count"}, {"verifier.reverified", "count"},
    {"vm.ic_ops", "count"},            {"vm.ic_hits", "count"},
    {"vm.ic_bails", "count"},          {"vm.ic_misses", "count"},
    {"vm.stubs_attached", "count"},    {"vm.attach_calls", "count"},
    {"vm.hit_rate", "ratio"},          {"vm.bails_per_hit", "ratio"},
    {"vm.attach_success", "ratio"},    {"vm.stub_hit_ns", "ns"},
    {"vm.stub_bail_ns", "ns"},         {"vm.attach_us", "us"},
    {"vm.slow_path_ns", "ns"},         {"vm.stub_share", "ratio"},
    {"vm.attach_share", "ratio"},      {"vm.slow_share", "ratio"},
    {"vm.stock_pass_ms", "ms"},        {"vm.noic_pass_ms", "ms"},
    {"vm.icarus_over_stock", "ratio"}, {"trace.pass_ms", "ms"},
    {"trace.overhead_pct", "%"},       {"trace.unattributed_pct", "%"},
    {"host.cpu_over_wall", "ratio"},   {"host.parallelism", "ratio"},
};

// Real parallelism available to this process, measured rather than read
// from hardware_concurrency(): the same spin work on one thread, then on two
// threads at once. 2 * t1 / t2 is about 2 with two free cores and about 1
// when only one core's worth of CPU is granted. Median of 5 alternating
// rounds, taken once per run.
double MeasureParallelism() {
  auto spin = [] {
    volatile uint64_t x = 0;
    for (uint64_t i = 0; i < 30'000'000; ++i) {
      x = x + i;
    }
  };
  auto time_ns = [](auto&& fn) {
    int64_t t0 = WallNs();
    fn();
    return static_cast<double>(WallNs() - t0);
  };
  std::vector<double> ratios;
  for (int round = 0; round < 5; ++round) {
    double one = time_ns(spin);
    double two = time_ns([&] {
      std::thread a(spin);
      std::thread b(spin);
      a.join();
      b.join();
    });
    ratios.push_back(2.0 * one / two);
  }
  return Median(ratios);
}

// Peak resident set of this program image: VmHWM from /proc/self/status.
// (getrusage's ru_maxrss also counts the launching process's image from
// before exec, so it depends on who started the benchmark.)
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // Reported in kB.
    }
  }
  return 0.0;
}

// pass_ms: the run's 1st-percentile pass time. On a shared host a pass takes
// its own CPU work plus whatever the host takes away, and the host's share
// drifts by up to ~1.8x over minutes; the fastest passes are the ones it left
// alone, so they read the cost of the code. (Between seeds the VM workloads'
// median moved 33-55 ms while this held within 3%.) The median and the p90
// are printed and recorded beside it.
double PassMs(const std::vector<double>& wall_ms) { return Percentile(wall_ms, 1); }

// Throughput at pass_ms: operations per pass over pass_ms.
double OpsPerSecond(const Result& result) {
  const size_t passes = result.passes.wall_ms.size();
  if (passes == 0) {
    return 0.0;
  }
  double ops_per_pass = static_cast<double>(result.window_ops) / static_cast<double>(passes);
  return ops_per_pass * 1e3 / PassMs(result.passes.wall_ms);
}

void WriteSeries(const char* key, const std::vector<double>& values,
                 icarus::obs::JsonWriter* json) {
  json->Key(key).BeginArray();
  for (double v : values) {
    json->Double(v);
  }
  json->EndArray();
}

void WriteTimings(const char* key, const Timings& timings, icarus::obs::JsonWriter* json) {
  json->Key(key).BeginObject();
  WriteSeries("wall_ms", timings.wall_ms, json);
  WriteSeries("cpu_over_wall", timings.cpu_over_wall, json);
  json->EndObject();
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload verify-cold|verify-incremental|vm-hot-loop|"
               "vm-fresh-code --seed N --seconds S --trace 0|1\n"
               "                 [--commit SHA] [--source-digest HEX] [--out-dir DIR]\n");
  return 2;
}

int Main(int argc, char** argv) {
  Options options;
  std::string commit = "unknown";
  std::string source_digest = "unknown";
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) {
      return Usage();
    }
    std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--commit") {
      commit = value;
    } else if (flag == "--source-digest") {
      source_digest = value;
    } else if (flag == "--out-dir") {
      options.out_dir = value;
    } else {
      return Usage();
    }
  }
  bool (*run)(const Options&, Tracer*, Result*) = nullptr;
  if (options.workload == "verify-cold") {
    run = RunVerifyCold;
  } else if (options.workload == "verify-incremental") {
    run = RunVerifyIncremental;
  } else if (options.workload == "vm-hot-loop") {
    run = RunVmHotLoop;
  } else if (options.workload == "vm-fresh-code") {
    run = RunVmFreshCode;
  }
  if (run == nullptr || options.seconds <= 0) {
    return Usage();
  }
  std::error_code ec;
  std::filesystem::create_directories(options.out_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", options.out_dir.c_str(), ec.message().c_str());
    return 2;
  }

  Tracer tracer;
  Result result;
  if (!run(options, &tracer, &result)) {
    return 1;
  }
  // Taken after the measurement, so its spinning threads cannot disturb it.
  const double parallelism = MeasureParallelism();
  const std::vector<double>& wall_ms = result.passes.wall_ms;
  const double cpu_over_wall = Median(result.passes.cpu_over_wall);

  // End-to-end metrics (untraced passes).
  std::vector<std::tuple<std::string, double, std::string>> e2e = {
      {"setup_s", Median(result.setups.wall_ms) / 1e3, "s"},
      {"pass_ms", PassMs(wall_ms), "ms"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
      {"ops_per_s", OpsPerSecond(result), "1/s"},
  };
  // Per-layer metrics (traced passes) plus the run-level ones.
  if (options.trace) {
    LayerSamples& l = result.layers;
    double untraced = Median(wall_ms);
    l.Add("trace.overhead_pct", 100.0 * (l.Median("trace.pass_ms") - untraced) / untraced);
    l.Add("host.cpu_over_wall", cpu_over_wall);
    l.Add("host.parallelism", parallelism);
  }

  std::printf("perfbench %s seed=%llu trace=%d build=%s commit=%s source=%s\n",
              options.workload.c_str(), static_cast<unsigned long long>(options.seed),
              options.trace ? 1 : 0, PERFBENCH_BUILD_TYPE, commit.c_str(), source_digest.c_str());
  for (const auto& [key, value] : result.params) {
    std::printf("  %-12s %s\n", key.c_str(), value.c_str());
  }
  std::printf("host.parallelism      %.3f   host.cpu_over_wall %.3f (median of %zu passes)\n",
              parallelism, cpu_over_wall, wall_ms.size());
  for (const auto& [name, value, unit] : e2e) {
    std::printf("%-22s %.6g %s\n", name.c_str(), value, unit.c_str());
  }
  std::printf("%-22s %.6g ms, p90 %.6g ms (%zu passes)\n", "pass_median_ms", Median(wall_ms),
              Percentile(wall_ms, 90), wall_ms.size());
  std::printf("%-22s %lld count\n", "wrong_outputs", static_cast<long long>(result.wrong_outputs));
  std::printf("%-22s %lld count\n", "ops", static_cast<long long>(result.ops));
  std::printf("%-22s %lld count (of %lld attempted)\n", "failed_ops",
              static_cast<long long>(result.failed_ops), static_cast<long long>(result.ops));
  if (options.trace) {
    for (const MetricDef& m : kLayerMetrics) {
      std::printf("%-24s %.6g %s\n", m.name, result.layers.Median(m.name), m.unit);
    }
  }

  // The full record.
  icarus::obs::JsonWriter record;
  record.BeginObject()
      .Key("workload").String(options.workload)
      .Key("seed").Int(static_cast<int64_t>(options.seed))
      .Key("held_out_seed").Int(static_cast<int64_t>(kHeldOutSeed))
      .Key("trace").Bool(options.trace)
      .Key("seconds").Double(options.seconds);
  record.Key("host").BeginObject()
      .Key("build_type").String(PERFBENCH_BUILD_TYPE)
      .Key("commit").String(commit)
      .Key("source_digest").String(source_digest)
      .Key("parallelism").Double(parallelism)
      .EndObject();
  record.Key("params").BeginObject();
  for (const auto& [key, value] : result.params) {
    record.Key(key).String(value);
  }
  record.EndObject();
  WriteTimings("setups", result.setups, &record);
  WriteTimings("passes", result.passes, &record);
  record.Key("pass_median_ms").Double(Median(wall_ms));
  record.Key("pass_p90_ms").Double(Percentile(wall_ms, 90));
  record.Key("wrong_outputs").Int(result.wrong_outputs);
  record.Key("failed_ops").Int(result.failed_ops);
  record.Key("attempted").Int(result.ops);

  // The result line.
  icarus::obs::JsonWriter line;
  line.BeginObject()
      .Key("correct").Bool(result.wrong_outputs == 0)
      .Key("attempted").Int(result.ops)
      .Key("failed").Int(result.failed_ops)
      .Key("metrics").BeginObject();
  record.Key("metrics").BeginObject();
  auto emit = [&](const std::string& name, double value, const std::string& unit) {
    for (icarus::obs::JsonWriter* json : {&line, &record}) {
      json->Key(name).BeginObject().Key("value").Double(value).Key("unit").String(unit).EndObject();
    }
  };
  if (options.trace) {
    for (const MetricDef& m : kLayerMetrics) {
      emit(m.name, result.layers.Median(m.name), m.unit);
    }
  } else {
    for (const auto& [name, value, unit] : e2e) {
      emit(name, value, unit);
    }
  }
  line.EndObject().EndObject();
  record.EndObject();
  if (options.trace) {
    record.Key("spans");
    tracer.WriteJson(&record);
  }
  record.EndObject();

  std::string path = options.out_dir + "/" + options.workload + "-seed" +
                     std::to_string(options.seed) + "-trace" + (options.trace ? "1" : "0") +
                     ".json";
  std::ofstream(path) << record.str() << "\n";
  std::printf("record: %s\n", path.c_str());
  std::printf("%s\n", line.str().c_str());
  std::fflush(stdout);
  return result.wrong_outputs == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
