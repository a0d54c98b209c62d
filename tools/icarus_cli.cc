// icarus — command-line driver for the verification toolchain.
//
// Usage:
//   icarus list                      List every generator in the platform.
//   icarus verify <generator>        Verify one generator; print the report.
//   icarus explain <generator>       Verify one generator with the flight
//                                    recorder on and print the full
//                                    counterexample (witnesses, op sequences,
//                                    event log), then replay it with the
//                                    witness values pinned to confirm it.
//   icarus verify-all [flags]        Verify everything (Fig. 12 + extensions +
//                                    bug studies) on the parallel batch driver.
//                                    See `icarus verify-all --help` for the
//                                    flag list and exit codes.
//   icarus report <journal> [out.html] [--metrics FILE] [--title T]
//                                    Aggregate a verdict journal (and optional
//                                    metrics snapshot) into a self-contained
//                                    HTML dashboard.
//   icarus cfa <generator>           Print the CFA as GraphViz DOT.
//   icarus cfa-dot <generator> [out.dot]
//                                    Same rendering, written to a file (or
//                                    stdout when no path is given).
//   icarus boogie <generator>        Emit the (DCE-sliced) Boogie meta-stub.
//   icarus extract                   Print the extracted C++ header.
//   icarus check <file.icarus>       Parse+resolve extra DSL source against
//                                    the platform (syntax/type checking).
//   icarus client [flags] <op>       Talk to a running icarusd service:
//                                    ping, stats, shutdown, verify GEN...,
//                                    verify-all. See `icarus client --help`.
//   icarus top [flags]               Live daemon introspection: poll stats +
//                                    metrics across running daemons and
//                                    render a refreshing per-daemon table.
//                                    See `icarus top --help`.

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <exception>

#include "src/boogie/boogie_dce.h"
#include "src/daemon/protocol.h"
#include "src/daemon/top.h"
#include "src/boogie/boogie_lower.h"
#include "src/boogie/boogie_printer.h"
#include "src/cfa/cfa.h"
#include "src/extract/cpp_backend.h"
#include "src/meta/path_recorder.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/support/failpoint.h"
#include "src/support/net.h"
#include "src/support/rng.h"
#include "src/support/str_util.h"
#include "src/verifier/batch_verifier.h"
#include "src/verifier/journal.h"
#include "src/verifier/report.h"
#include "src/verifier/verifier.h"

namespace {

using icarus::platform::Platform;

int Usage() {
  std::fprintf(stderr,
               "usage: icarus <list|verify <gen>|explain <gen>|verify-all [flags]|"
               "report <journal> [out.html]|cfa <gen>|"
               "cfa-dot <gen> [out.dot]|boogie <gen>|extract|check <file>|"
               "client [flags] <op>|top [flags]>\n"
               "       icarus verify-all --help   for batch flags and exit codes\n"
               "       icarus client --help       for the icarusd client ops\n"
               "       icarus top --help          for live daemon introspection\n");
  return 2;
}

// SIGINT/SIGTERM during verify-all: flip a flag the batch driver polls. The
// run then winds down exactly like a deadline expiry — running tasks stop at
// their next path boundary — and since the journal is fsync'd per record,
// every verdict that landed before the signal is already durable.
std::atomic<bool> g_interrupt{false};

void OnInterrupt(int) { g_interrupt.store(true, std::memory_order_relaxed); }

// Observability outputs requested on the verify-all command line.
struct ObsFlags {
  bool stats = false;         // Render the per-generator cost table.
  bool explain = false;       // Render flight-recorder counterexamples.
  std::string trace_path;     // Chrome trace_event JSON (Perfetto-loadable).
  std::string metrics_path;   // Metrics export; .json suffix selects JSON.
  std::string report_path;    // Self-contained HTML dashboard.
};

int WriteTextFile(const std::string& path, const std::string& contents, const char* what) {
  std::ofstream out(path, std::ios::binary);
  if (!out || !(out << contents) || !out.flush()) {
    std::fprintf(stderr, "cannot write %s to '%s'\n", what, path.c_str());
    return 2;
  }
  return 0;
}

int VerifyAllHelp() {
  std::printf(
      "icarus verify-all — verify every generator on the parallel batch driver\n"
      "\n"
      "Flags:\n"
      "  --jobs N        Worker threads (default: all cores).\n"
      "  --cache         Share one solver-result cache across tasks (default).\n"
      "  --no-cache      Disable the shared solver-result cache.\n"
      "  --deadline S    Fleet wall-clock deadline in seconds; on expiry,\n"
      "                  unfinished generators degrade to INCONCLUSIVE.\n"
      "  --serial        One generator at a time, no cache\n"
      "                  (equivalent to --jobs 1 --no-cache).\n"
      "  --max-decisions N\n"
      "                  Per-query solver decision budget (default: 2000000);\n"
      "                  exhaustion degrades that generator to INCONCLUSIVE.\n"
      "  --stats         Also render the cost-attribution table: per-generator\n"
      "                  stage breakdown (generate / interpret / solve),\n"
      "                  decision/propagation counts, learned clauses, restarts,\n"
      "                  and the dominant stage. With --trace, also reports the\n"
      "                  span ring-buffer retention/drop count.\n"
      "  --explain       Turn the flight recorder on and, after the table,\n"
      "                  print a full counterexample block for every refuted\n"
      "                  generator: violated contract, branch decisions, the\n"
      "                  emitted op sequences, concrete witness values for each\n"
      "                  symbolic input, and the per-path event log.\n"
      "  --report FILE   Write a self-contained HTML dashboard of the run:\n"
      "                  verdict table with counterexample drill-downs, stage\n"
      "                  cost bars, path/solver histograms.\n"
      "  --trace FILE    Record pipeline spans and write a Chrome trace_event\n"
      "                  JSON file (load in Perfetto or chrome://tracing).\n"
      "                  Enables the observability runtime for the run.\n"
      "  --metrics FILE  Export the metrics registry after the run: Prometheus\n"
      "                  text format, or JSON when FILE ends in .json. Enables\n"
      "                  the observability runtime for the run.\n"
      "  --journal FILE  Append each verdict to FILE as a JSON line, fsync'd as\n"
      "                  it lands, so a killed run can be resumed.\n"
      "  --resume FILE   Skip generators FILE already holds a verdict for,\n"
      "                  restoring their rows. Refused if FILE was written by a\n"
      "                  different platform (fingerprint mismatch). Typically\n"
      "                  used with --journal pointing at the same FILE.\n"
      "  --incremental   Skip generators whose verification unit (the generator\n"
      "                  plus every DSL decl its verdict depends on) is unchanged\n"
      "                  since a previously stored PASS under the same decision\n"
      "                  budget. Skipped rows report CACHED_SAFE — it stands for\n"
      "                  VERIFIED and satisfies the exit code the same way. The\n"
      "                  persistent stores (verdict store + solver-result cache)\n"
      "                  live under --cache-dir and are written back crash-safely\n"
      "                  at the end of the run and on journal checkpoints. A\n"
      "                  missing or corrupt store means a cold run, never an\n"
      "                  error or a wrong verdict.\n"
      "  --cache-dir D   Directory for the incremental stores\n"
      "                  (default: .icarus-cache).\n"
      "  --cache-max-mb N\n"
      "                  Size bound for the persisted solver cache; least-\n"
      "                  recently-used entries are evicted at save time\n"
      "                  (default: 64; <= 0 means unbounded).\n"
      "  --fail SPEC     Arm a fail-point (fault injection, for testing the\n"
      "                  containment machinery). SPEC is one of\n"
      "                    at=SITE:N     fault on exactly the N-th hit of SITE\n"
      "                    after=SITE:N  fault on every hit past the N-th\n"
      "                    p=SITE:P      fault each hit with probability P\n"
      "                  with optional suffixes `,seed=S` (for p=) and\n"
      "                  `,action=abort` (kill the process instead of throwing;\n"
      "                  simulates a crash for journal/resume testing).\n"
      "                  Repeatable. Sites: %s.\n"
      "\n"
      "Exit codes:\n"
      "  0  every generator had its expected outcome (generators named\n"
      "     *_buggy refuted, everything else verified or CACHED_SAFE)\n"
      "  1  at least one unexpected outcome (including INCONCLUSIVE,\n"
      "     ERROR and INTERNAL_ERROR rows)\n"
      "  2  usage error, platform load failure, or journal error\n",
      [] {
        std::string sites;
        for (const std::string& site : icarus::failpoint::AllSites()) {
          if (!sites.empty()) {
            sites += ", ";
          }
          sites += site;
        }
        return sites;
      }()
          .c_str());
  return 0;
}

int ListGenerators(const Platform& platform) {
  for (const auto* fn : platform.module().Generators()) {
    std::printf("%s\n", fn->name.c_str());
  }
  return 0;
}

// A generator's meta-stub and its control-flow automaton (§2.4), the
// paper's artifacts that `verify`, `explain`, `cfa` and `boogie` print or
// lower. Neither feeds a verdict. Errors are printed; nullopt means exit 2.
struct StubAndCfa {
  icarus::meta::MetaStub stub;
  icarus::cfa::Cfa automaton;
};

std::optional<StubAndCfa> BuildStubAndCfa(const Platform& platform, const std::string& name) {
  auto stub = platform.MakeMetaStub(name);
  if (!stub.ok()) {
    std::fprintf(stderr, "%s\n", stub.status().message().c_str());
    return std::nullopt;
  }
  icarus::cfa::CfaBuilder builder(&platform.module(), &platform.externs());
  auto automaton = builder.Build(stub.value());
  if (!automaton.ok()) {
    std::fprintf(stderr, "%s\n", automaton.status().message().c_str());
    return std::nullopt;
  }
  return StubAndCfa{stub.take(), automaton.take()};
}

// `icarus verify`/`explain`: verifies `name` and prints the report, then the
// Fig. 12 call-graph LoC and the §2.4 automaton's size. Returns the report,
// or nullopt (exit 2) after printing the error.
std::optional<icarus::verifier::VerifyReport> VerifyAndPrint(
    const Platform& platform, const std::string& name,
    const icarus::verifier::VerifyOptions& options) {
  std::optional<StubAndCfa> built = BuildStubAndCfa(platform, name);
  if (!built) {
    return std::nullopt;
  }
  auto report = icarus::verifier::Verifier(&platform).Verify(name, options);
  if (!report.ok()) {
    std::fprintf(stderr, "%s\n", report.status().message().c_str());
    return std::nullopt;
  }
  const icarus::cfa::Cfa& automaton = built->automaton;
  std::printf("%s", report.value().Render().c_str());
  std::printf("icarus loc (call graph): %d\n", platform.TotalLoc(name));
  std::printf("cfa: %d nodes, %d edges, %lld feasible instruction sequences\n\n",
              automaton.num_nodes(), automaton.num_edges(),
              static_cast<long long>(automaton.CountPaths(64, 1000000000)));
  return report.take();
}

int Verify(const Platform& platform, const std::string& name, bool expect_verified) {
  auto report = VerifyAndPrint(platform, name, {});
  return !report ? 2 : report->verified == expect_verified ? 0 : 1;
}

// `icarus explain <gen>`: one generator, flight recorder on, full
// counterexample rendering, then a concrete replay that pins every symbolic
// input to its witness value to confirm the counterexample is not spurious.
int Explain(const Platform& platform, const std::string& name) {
  icarus::verifier::VerifyOptions vopts;
  vopts.record = true;
  auto report = VerifyAndPrint(platform, name, vopts);
  if (!report) {
    return 2;
  }
  const icarus::verifier::VerifyReport& rep = *report;
  if (rep.meta.violations.empty()) {
    std::printf("no violation found: nothing to explain%s\n",
                rep.inconclusive ? " (verdict inconclusive — raise budgets and retry)" : "");
    return rep.verified ? 0 : 1;
  }
  for (const icarus::exec::Violation& v : rep.meta.violations) {
    std::printf("%s\n", icarus::meta::RenderCounterexample(v).c_str());
  }
  // Replay phase: re-run the stub with the recorded witness values assumed up
  // front. Reproducing the same violation concretely is the end-to-end check
  // that the extracted model actually triggers the bug.
  auto stub = platform.MakeMetaStub(name);
  if (stub.ok()) {
    icarus::meta::ReplayOutcome outcome = icarus::meta::ReplayWithWitnesses(
        &platform.module(), &platform.externs(), stub.value(), rep.meta.violations.front());
    std::printf("replay with pinned witnesses: %s\n",
                outcome.reproduced
                    ? "violation REPRODUCED (counterexample confirmed concrete)"
                    : "violation NOT reproduced (witness may be incomplete)");
  }
  return 0;
}

// Builds the HTML dashboard input common to `icarus report` (journal-sourced)
// and `verify-all --report` (in-memory results).
int WriteHtmlReport(icarus::verifier::ReportInput input, const std::string& out_path) {
  int rc = WriteTextFile(out_path, icarus::verifier::RenderHtmlReport(input), "HTML report");
  if (rc == 0) {
    std::printf("report written to %s (%zu generators)\n", out_path.c_str(), input.rows.size());
  }
  return rc;
}

// `icarus report <journal> [out.html] [--metrics FILE] [--title T]`: offline
// aggregation — needs no platform, just the journal (any fingerprint).
int ReportCmd(int argc, char** argv) {
  std::string journal_path;
  std::string out_path = "icarus-report.html";
  std::string metrics_path;
  std::string title;
  int positional = 0;
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--metrics" && i + 1 < argc) {
      metrics_path = argv[++i];
    } else if (arg == "--title" && i + 1 < argc) {
      title = argv[++i];
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown report flag: %s\n", arg.c_str());
      return Usage();
    } else if (positional == 0) {
      journal_path = arg;
      ++positional;
    } else if (positional == 1) {
      out_path = arg;
      ++positional;
    } else {
      return Usage();
    }
  }
  if (journal_path.empty()) {
    return Usage();
  }
  auto records = icarus::verifier::ReadJournal(journal_path, /*expect_platform=*/"");
  if (!records.ok()) {
    std::fprintf(stderr, "%s\n", records.status().message().c_str());
    return 2;
  }
  icarus::verifier::ReportInput input;
  if (!title.empty()) {
    input.title = title;
  }
  // Last verdict wins per generator (a resumed journal appends a fresh row),
  // but rows keep first-appearance order so the dashboard is stable.
  std::vector<std::string> order;
  std::map<std::string, icarus::verifier::JournalRecord> latest;
  for (const icarus::verifier::JournalRecord& rec : records.value()) {
    if (latest.find(rec.generator) == latest.end()) {
      order.push_back(rec.generator);
    }
    if (input.fingerprint.empty()) {
      input.fingerprint = rec.platform;
    }
    latest[rec.generator] = rec;
  }
  for (const std::string& name : order) {
    input.rows.push_back(std::move(latest[name]));
  }
  if (!metrics_path.empty()) {
    std::ifstream in(metrics_path, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "cannot read metrics snapshot '%s'\n", metrics_path.c_str());
      return 2;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    input.metrics_json = buf.str();
  }
  return WriteHtmlReport(std::move(input), out_path);
}

int VerifyAll(const Platform& platform, const icarus::verifier::BatchOptions& options,
              const ObsFlags& obs_flags) {
  using icarus::verifier::Outcome;
  icarus::verifier::BatchVerifier batch(&platform);
  auto batch_report = batch.VerifyEverything(options);
  if (!batch_report.ok()) {
    std::fprintf(stderr, "%s\n", batch_report.status().message().c_str());
    return 2;
  }
  const icarus::verifier::BatchReport& report = batch_report.value();
  std::printf("%s", report.RenderTable().c_str());
  if (obs_flags.stats) {
    std::printf("\n%s", report.RenderStatsTable().c_str());
    if (!obs_flags.trace_path.empty()) {
      // Ring-buffer accounting: a drop count > 0 means the trace (and any
      // span-derived statistic) is a suffix of the run, not the whole run.
      std::printf("trace ring buffers: %zu spans retained, %lld overwritten\n",
                  icarus::obs::SnapshotSpans().size(),
                  static_cast<long long>(icarus::obs::DroppedSpans()));
    }
  }
  if (obs_flags.explain) {
    std::printf("\n%s", report.RenderExplain().c_str());
  }
  if (!obs_flags.trace_path.empty()) {
    icarus::obs::StopTracing();
    int rc = WriteTextFile(obs_flags.trace_path, icarus::obs::ExportChromeTrace(), "trace");
    if (rc != 0) {
      return rc;
    }
    long long dropped = icarus::obs::DroppedSpans();
    if (dropped > 0) {
      std::printf("trace written to %s (%lld oldest spans dropped by ring-buffer wraparound)\n",
                  obs_flags.trace_path.c_str(), dropped);
    } else {
      std::printf("trace written to %s\n", obs_flags.trace_path.c_str());
    }
  }
  if (!obs_flags.metrics_path.empty()) {
    const std::string& path = obs_flags.metrics_path;
    bool json = path.size() >= 5 && path.compare(path.size() - 5, 5, ".json") == 0;
    const auto& registry = icarus::obs::Registry::Global();
    int rc = WriteTextFile(path, json ? registry.RenderJson() : registry.RenderPrometheus(),
                           "metrics");
    if (rc != 0) {
      return rc;
    }
    std::printf("metrics written to %s\n", path.c_str());
  }
  if (!obs_flags.report_path.empty()) {
    icarus::verifier::ReportInput input;
    input.fingerprint = platform.Fingerprint();
    for (const icarus::verifier::GeneratorResult& r : report.results) {
      input.rows.push_back(icarus::verifier::RecordFromResult(r, input.fingerprint));
    }
    if (report.cache.lookups() > 0) {
      input.cache_summary = report.cache.ToString();
    }
    if (icarus::obs::Enabled()) {
      input.metrics_json = icarus::obs::Registry::Global().RenderJson();
    }
    if (!obs_flags.trace_path.empty()) {
      input.trace_dropped_spans = icarus::obs::DroppedSpans();
    }
    int rc = WriteHtmlReport(std::move(input), obs_flags.report_path);
    if (rc != 0) {
      return rc;
    }
  }

  // Deliberately-buggy study generators are expected to be refuted; anything
  // else must verify. Inconclusive results (deadline/budget) are reported but
  // also count as unexpected for the exit code. CACHED_SAFE stands for a
  // stored VERIFIED and satisfies the expectation the same way.
  int failures = 0;
  for (const icarus::verifier::GeneratorResult& r : report.results) {
    Outcome expected = r.generator.find("_buggy") == std::string::npos ? Outcome::kVerified
                                                                       : Outcome::kRefuted;
    if (expected == Outcome::kVerified && r.outcome == Outcome::kCachedSafe) {
      continue;
    }
    if (r.outcome != expected) {
      std::printf("UNEXPECTED: %s is %s (expected %s)\n", r.generator.c_str(),
                  icarus::verifier::OutcomeName(r.outcome),
                  icarus::verifier::OutcomeName(expected));
      ++failures;
    }
  }
  std::printf("\n%d unexpected outcomes\n", failures);
  if (report.interrupted) {
    if (!options.journal_path.empty()) {
      std::printf(
          "interrupted: every finished verdict is fsync'd in '%s'; resume with\n"
          "  icarus verify-all --journal %s --resume %s\n",
          options.journal_path.c_str(), options.journal_path.c_str(),
          options.journal_path.c_str());
    } else {
      std::printf(
          "interrupted: run again with --journal FILE to make interrupted runs resumable\n");
    }
  }
  return failures == 0 ? 0 : 1;
}

int DumpCfa(const Platform& platform, const std::string& name, const std::string& out_path) {
  std::optional<StubAndCfa> built = BuildStubAndCfa(platform, name);
  if (!built) {
    return 2;
  }
  std::string dot = built->automaton.ToDot();
  if (out_path.empty()) {
    std::printf("%s", dot.c_str());
    return 0;
  }
  int rc = WriteTextFile(out_path, dot, "CFA DOT");
  if (rc == 0) {
    std::printf("%s: %s\n", out_path.c_str(), built->automaton.Summary().c_str());
  }
  return rc;
}

int EmitBoogie(const Platform& platform, const std::string& name) {
  std::optional<StubAndCfa> built = BuildStubAndCfa(platform, name);
  if (!built) {
    return 2;
  }
  icarus::boogie::LowerOptions options;
  options.host_externs = platform.externs().HostBoundNames();
  auto program = icarus::boogie::LowerToBoogie(platform.module(), built->stub,
                                               built->automaton, options);
  if (!program.ok()) {
    std::fprintf(stderr, "%s\n", program.status().message().c_str());
    return 2;
  }
  icarus::boogie::DeadCodeElim(program.value().get());
  std::printf("%s", icarus::boogie::PrintProgram(*program.value()).c_str());
  return 0;
}

int Extract(const Platform& platform) {
  auto extraction = icarus::extract::ExtractCpp(platform.module());
  if (!extraction.ok()) {
    std::fprintf(stderr, "%s\n", extraction.status().message().c_str());
    return 2;
  }
  std::printf("%s\n// ===== binding skeleton =====\n%s", extraction.value().header.c_str(),
              extraction.value().binding_skeleton.c_str());
  return 0;
}

int ClientUsage() {
  std::fprintf(
      stderr,
      "usage: icarus client [--socket PATH] [--client NAME] [--deadline-ms D]\n"
      "                     [--retries N]\n"
      "                     <ping|stats|shutdown|verify GEN...|verify-all>\n"
      "\n"
      "Talks to a running icarusd over its Unix-domain socket.\n"
      "  --retries N describes load-shed handling: a request the daemon sheds\n"
      "  with OVERLOADED is resent up to N times (default 2), sleeping the\n"
      "  daemon's advertised retry_after_ms (with jitter) between attempts.\n"
      "  ping        Liveness probe; prints the daemon's status token.\n"
      "  stats       Print the daemon's service counters as JSON.\n"
      "  shutdown    Ask the daemon to drain gracefully and exit.\n"
      "  verify GEN...   Verify the named generators on the daemon.\n"
      "  verify-all      Verify every generator the platform declares.\n"
      "\n"
      "Exit codes: 0 expected outcomes, 1 unexpected/refused, 2 usage or\n"
      "connection error.\n");
  return 2;
}

int ClientCmd(int argc, char** argv) {
  using icarus::daemon::Request;
  using icarus::daemon::Response;
  std::string socket_path = "./icarusd.sock";
  std::string client_name = "cli";
  double deadline_ms = 0;
  int retries = 2;
  std::vector<std::string> positional;
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help") {
      ClientUsage();
      return 0;
    } else if (arg == "--socket" && i + 1 < argc) {
      socket_path = argv[++i];
    } else if (arg == "--client" && i + 1 < argc) {
      client_name = argv[++i];
    } else if (arg == "--deadline-ms" && i + 1 < argc) {
      deadline_ms = std::atof(argv[++i]);
    } else if (arg == "--retries" && i + 1 < argc) {
      retries = std::atoi(argv[++i]);
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown client flag: %s\n", arg.c_str());
      return ClientUsage();
    } else {
      positional.push_back(arg);
    }
  }
  if (positional.empty()) {
    return ClientUsage();
  }
  const std::string op = positional[0];

  // Resolve the generator list before connecting: `verify-all` needs the
  // platform (the daemon has no list op), and a load failure should not cost
  // the daemon a connection.
  std::vector<std::string> generators(positional.begin() + 1, positional.end());
  if (op == "verify-all") {
    if (!generators.empty()) {
      return ClientUsage();
    }
    auto loaded = Platform::Load();
    if (!loaded.ok()) {
      std::fprintf(stderr, "platform load failed: %s\n", loaded.status().message().c_str());
      return 2;
    }
    for (const auto* fn : loaded.value()->module().Generators()) {
      generators.push_back(fn->name);
    }
  }

  auto connected = icarus::net::ConnectUnix(socket_path);
  if (!connected.ok()) {
    std::fprintf(stderr, "icarus client: %s\n", connected.status().message().c_str());
    return 2;
  }
  int fd = connected.value();
  icarus::net::LineReader reader(fd);
  int next_id = 0;
  // One request line out, one response line in; `ok` means transport-level
  // success — the response's own status still decides the exit code.
  auto send_once = [&](Request req, Response* resp) -> bool {
    req.client = client_name;
    req.id = std::to_string(++next_id);
    if (!icarus::net::WriteLine(fd, req.ToJsonLine()).ok()) {
      std::fprintf(stderr, "icarus client: cannot write to %s\n", socket_path.c_str());
      return false;
    }
    std::string line;
    std::string error;
    if (reader.ReadLine(&line, &error) != icarus::net::LineReader::Result::kLine) {
      std::fprintf(stderr, "icarus client: connection closed by icarusd%s%s\n",
                   error.empty() ? "" : ": ", error.c_str());
      return false;
    }
    icarus::Status st = icarus::daemon::ParseResponse(line, resp);
    if (!st.ok()) {
      std::fprintf(stderr, "icarus client: %s\n", st.message().c_str());
      return false;
    }
    return true;
  };
  // Load-shed handling: a response the daemon sheds with OVERLOADED carries
  // retry_after_ms; honor it (with jitter, so a herd of shed clients does not
  // return in lockstep) up to --retries resends before surfacing the shed.
  icarus::Rng retry_rng(static_cast<uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count()));
  auto round_trip = [&](const Request& req, Response* resp) -> bool {
    for (int attempt = 0;; ++attempt) {
      if (!send_once(req, resp)) {
        return false;
      }
      if (resp->status != icarus::daemon::kStatusOverloaded || attempt >= retries) {
        return true;
      }
      double delay_ms = resp->retry_after_ms > 0 ? resp->retry_after_ms
                                                 : icarus::daemon::kOverloadedRetryAfterMs;
      delay_ms *= 0.75 + 0.5 * retry_rng.NextDouble();
      std::fprintf(stderr, "icarus client: overloaded, retrying in %.0f ms (%d/%d)\n",
                   delay_ms, attempt + 1, retries);
      std::this_thread::sleep_for(
          std::chrono::milliseconds(static_cast<int64_t>(delay_ms)));
    }
  };

  int rc = 2;
  if (op == "ping" && generators.empty()) {
    Request req;
    req.op = icarus::daemon::kOpPing;
    Response resp;
    if (round_trip(req, &resp)) {
      std::printf("%s\n", resp.status.c_str());
      rc = resp.status == icarus::daemon::kStatusOk ? 0 : 1;
    }
  } else if (op == "stats" && generators.empty()) {
    Request req;
    req.op = icarus::daemon::kOpStats;
    Response resp;
    if (round_trip(req, &resp)) {
      std::printf("%s\n", resp.stats_json.c_str());
      rc = resp.status == icarus::daemon::kStatusOk ? 0 : 1;
    }
  } else if (op == "shutdown" && generators.empty()) {
    Request req;
    req.op = icarus::daemon::kOpShutdown;
    Response resp;
    if (round_trip(req, &resp)) {
      std::printf("shutdown %s\n",
                  resp.status == icarus::daemon::kStatusOk ? "acknowledged" : "refused");
      rc = resp.status == icarus::daemon::kStatusOk ? 0 : 1;
    }
  } else if (op == "verify" || op == "verify-all") {
    if (generators.empty()) {
      icarus::net::CloseFd(fd);
      return ClientUsage();
    }
    using icarus::verifier::Outcome;
    using icarus::verifier::OutcomeName;
    int failures = 0;
    for (const std::string& gen : generators) {
      Request req;
      req.op = icarus::daemon::kOpVerify;
      req.generator = gen;
      req.deadline_ms = deadline_ms;
      Response resp;
      if (!round_trip(req, &resp)) {
        icarus::net::CloseFd(fd);
        return 2;
      }
      bool expect_refuted = gen.find("_buggy") != std::string::npos;
      bool expected =
          resp.status == icarus::daemon::kStatusOk &&
          (expect_refuted
               ? resp.outcome == OutcomeName(Outcome::kRefuted)
               : resp.outcome == OutcomeName(Outcome::kVerified) ||
                     resp.outcome == OutcomeName(Outcome::kCachedSafe));
      if (resp.status == icarus::daemon::kStatusOk) {
        // ERROR/INTERNAL_ERROR outcomes are served (status OK) but carry
        // their diagnostic in `error` — show it, or the row is just a label.
        std::printf("%-44s %-15s%s %10.4f%s%s\n", gen.c_str(), resp.outcome.c_str(),
                    resp.cached ? " (cached)" : "", resp.seconds,
                    resp.error.empty() ? "" : "  ", resp.error.c_str());
      } else {
        std::printf("%-44s %-15s %s%s\n", gen.c_str(), resp.status.c_str(),
                    resp.error.c_str(),
                    resp.retry_after_ms > 0
                        ? icarus::StrFormat(" (retry after %.0f ms)", resp.retry_after_ms).c_str()
                        : "");
      }
      failures += expected ? 0 : 1;
    }
    std::printf("\n%d unexpected outcomes\n", failures);
    rc = failures == 0 ? 0 : 1;
  } else {
    icarus::net::CloseFd(fd);
    return ClientUsage();
  }
  icarus::net::CloseFd(fd);
  return rc;
}

int TopUsage() {
  std::fprintf(
      stderr,
      "usage: icarus top [--socket PATH]... [--interval-ms N] [--iterations N]\n"
      "                  [--no-clear]\n"
      "\n"
      "Live daemon introspection: polls every named daemon with stats+metrics\n"
      "each refresh and renders a per-daemon table — throughput (verdicts/s\n"
      "between polls), queue depth, in-flight count, cache hit rate, queue\n"
      "sheds, and p50/p99 request latency from the daemon's metrics\n"
      "histogram (needs daemons running with --obs; latency columns render\n"
      "'-' otherwise).\n"
      "  --socket PATH   Poll the daemon at PATH. Repeatable.\n"
      "  --interval-ms N Refresh interval (default 1000).\n"
      "  --iterations N  Render N frames then exit (default: until ^C).\n"
      "  --no-clear      No ANSI clear between frames (for piped output).\n"
      "\n"
      "Exit codes: 0 clean exit, 2 usage error or nothing to poll.\n");
  return 2;
}

int TopCmd(int argc, char** argv) {
  icarus::daemon::TopOptions options;
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help") {
      TopUsage();
      return 0;
    } else if (arg == "--socket" && i + 1 < argc) {
      options.sockets.push_back(argv[++i]);
    } else if (arg == "--interval-ms" && i + 1 < argc) {
      options.interval_ms = std::atof(argv[++i]);
    } else if (arg == "--iterations" && i + 1 < argc) {
      options.iterations = std::atoi(argv[++i]);
    } else if (arg == "--no-clear") {
      options.clear = false;
    } else {
      std::fprintf(stderr, "unknown top flag: %s\n", arg.c_str());
      return TopUsage();
    }
  }
  if (!isatty(1)) {
    options.clear = false;  // Piped output: frames append instead of clearing.
  }
  icarus::Status st = icarus::daemon::RunTop(options, stdout);
  if (!st.ok()) {
    std::fprintf(stderr, "icarus top: %s\n", st.message().c_str());
    return 2;
  }
  return 0;
}

int Check(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot read %s\n", path.c_str());
    return 2;
  }
  std::ostringstream text;
  text << in.rdbuf();
  auto loaded = Platform::LoadWithExtra({text.str()});
  if (!loaded.ok()) {
    std::fprintf(stderr, "%s\n", loaded.status().message().c_str());
    return 1;
  }
  std::printf("%s: OK (parsed and type-checked against the platform)\n", path.c_str());
  return 0;
}

}  // namespace

namespace {

int Run(int argc, char** argv) {
  if (argc < 2) {
    return Usage();
  }
  std::string cmd = argv[1];
  if (cmd == "verify-all") {
    for (int i = 2; i < argc; ++i) {
      if (std::strcmp(argv[i], "--help") == 0) {
        return VerifyAllHelp();
      }
    }
    // Enable observability before Platform::Load() so the frontend stages
    // (lex/parse/resolve) land in the trace and metrics too.
    for (int i = 2; i < argc; ++i) {
      if (std::strcmp(argv[i], "--trace") == 0 || std::strcmp(argv[i], "--metrics") == 0) {
        icarus::obs::SetEnabled(true);
      }
      if (std::strcmp(argv[i], "--trace") == 0) {
        icarus::obs::StartTracing();
      }
    }
  }
  if (cmd == "check") {
    if (argc < 3) {
      return Usage();
    }
    return Check(argv[2]);
  }
  if (cmd == "report") {
    if (argc < 3) {
      return Usage();
    }
    return ReportCmd(argc, argv);
  }
  if (cmd == "client") {
    return ClientCmd(argc, argv);
  }
  if (cmd == "top") {
    return TopCmd(argc, argv);  // Pure protocol client; needs no platform.
  }
  auto loaded = Platform::Load();
  if (!loaded.ok()) {
    std::fprintf(stderr, "platform load failed: %s\n", loaded.status().message().c_str());
    return 2;
  }
  auto platform = loaded.take();
  if (cmd == "list") {
    return ListGenerators(*platform);
  }
  if (cmd == "verify-all") {
    icarus::verifier::BatchOptions options;
    ObsFlags obs_flags;
    for (int i = 2; i < argc; ++i) {
      std::string flag = argv[i];
      if (flag == "--stats") {
        obs_flags.stats = true;
      } else if (flag == "--explain") {
        obs_flags.explain = true;
        options.record = true;
      } else if (flag == "--report" && i + 1 < argc) {
        obs_flags.report_path = argv[++i];
      } else if (flag == "--trace" && i + 1 < argc) {
        obs_flags.trace_path = argv[++i];
      } else if (flag == "--metrics" && i + 1 < argc) {
        obs_flags.metrics_path = argv[++i];
      } else if (flag == "--jobs" && i + 1 < argc) {
        options.jobs = std::atoi(argv[++i]);
      } else if (flag == "--cache") {
        options.use_cache = true;
      } else if (flag == "--no-cache") {
        options.use_cache = false;
      } else if (flag == "--deadline" && i + 1 < argc) {
        options.deadline_seconds = std::atof(argv[++i]);
      } else if (flag == "--serial") {
        options.jobs = 1;
        options.use_cache = false;
      } else if (flag == "--max-decisions" && i + 1 < argc) {
        options.solver_limits.max_decisions = std::atoll(argv[++i]);
      } else if (flag == "--journal" && i + 1 < argc) {
        options.journal_path = argv[++i];
      } else if (flag == "--resume" && i + 1 < argc) {
        options.resume_path = argv[++i];
      } else if (flag == "--incremental") {
        options.incremental = true;
      } else if (flag == "--cache-dir" && i + 1 < argc) {
        options.cache_dir = argv[++i];
      } else if (flag == "--cache-max-mb" && i + 1 < argc) {
        options.cache_max_mb = std::atoll(argv[++i]);
      } else if (flag == "--fail" && i + 1 < argc) {
        icarus::Status st = icarus::failpoint::Arm(argv[++i]);
        if (!st.ok()) {
          std::fprintf(stderr, "--fail: %s\n", st.message().c_str());
          return 2;
        }
      } else {
        std::fprintf(stderr, "unknown verify-all flag: %s\n", flag.c_str());
        return Usage();
      }
    }
    // SIGINT/SIGTERM wind the batch down gracefully (verdicts stay fsync'd
    // in the journal and a resume hint is printed) instead of killing the
    // process mid-write.
    options.interrupt = &g_interrupt;
    std::signal(SIGINT, OnInterrupt);
    std::signal(SIGTERM, OnInterrupt);
    return VerifyAll(*platform, options, obs_flags);
  }
  if (cmd == "extract") {
    return Extract(*platform);
  }
  if (argc < 3) {
    return Usage();
  }
  std::string name = argv[2];
  if (cmd == "verify") {
    return Verify(*platform, name, name.find("_buggy") == std::string::npos);
  }
  if (cmd == "explain") {
    return Explain(*platform, name);
  }
  if (cmd == "cfa") {
    return DumpCfa(*platform, name, "");
  }
  if (cmd == "cfa-dot") {
    return DumpCfa(*platform, name, argc > 3 ? argv[3] : "");
  }
  if (cmd == "boogie") {
    return EmitBoogie(*platform, name);
  }
  return Usage();
}

}  // namespace

int main(int argc, char** argv) {
  // Last-resort containment: anything that escapes the per-generator
  // boundaries (e.g. a fault injected outside a batch task) is reported as a
  // tool failure, not a raw terminate.
  try {
    return Run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "icarus: internal error: %s\n", e.what());
    return 2;
  }
}
