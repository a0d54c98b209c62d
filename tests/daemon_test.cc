// Daemon serving-layer suite: wire-protocol round-trips and rejection
// diagnostics, and the ServerCore request lifecycle end to end — real
// verdicts, the warm view, bounded-queue shedding, per-request deadlines
// degrading to INCONCLUSIVE, contained dispatch faults, graceful drain,
// journal replay into a warm restart, and read-only degradation when another
// process holds the cache lock. Everything here is in-process;
// daemon_e2e_test.cc covers the real icarusd binary over a Unix socket.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <sys/stat.h>
#include <thread>
#include <vector>

#include "src/daemon/protocol.h"
#include "src/daemon/server.h"
#include "src/obs/exposition.h"
#include "src/obs/metrics.h"
#include "src/platform/platform.h"
#include "src/support/failpoint.h"
#include "src/support/flat_json.h"
#include "src/support/status.h"
#include "src/verifier/batch_verifier.h"
#include "src/verifier/verdict_store.h"

namespace icarus::daemon {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// --- Wire protocol -------------------------------------------------------

TEST(Protocol, RequestRoundTripsAllFields) {
  Request req;
  req.id = "req-7";
  req.op = kOpVerify;
  req.generator = "tryAttachCompareInt32";
  req.client = "ci \"shard\\3\"\n";  // Quotes, backslash, newline must survive.
  req.deadline_ms = 1500.5;

  Request back;
  Status st = ParseRequest(req.ToJsonLine(), &back);
  ASSERT_TRUE(st.ok()) << st.message();
  EXPECT_EQ(back.v, kProtocolVersion);
  EXPECT_EQ(back.id, req.id);
  EXPECT_EQ(back.op, req.op);
  EXPECT_EQ(back.generator, req.generator);
  EXPECT_EQ(back.client, req.client);
  EXPECT_DOUBLE_EQ(back.deadline_ms, req.deadline_ms);
}

TEST(Protocol, ResponseRoundTripsAllFields) {
  Response resp;
  resp.id = "req-7";
  resp.status = kStatusOk;
  resp.generator = "bug1451976_buggy";
  resp.outcome = "COUNTEREXAMPLE";
  resp.error = "line\ttwo\n";
  resp.cached = true;
  resp.seconds = 0.25;
  resp.paths = 12;
  resp.queries = 34;
  resp.retry_after_ms = 750;
  resp.stats_json = "{\"requests\":3,\"clients\":{\"ci\":{}}}";  // Nested JSON as a string.

  Response back;
  Status st = ParseResponse(resp.ToJsonLine(), &back);
  ASSERT_TRUE(st.ok()) << st.message();
  EXPECT_EQ(back.id, resp.id);
  EXPECT_EQ(back.status, resp.status);
  EXPECT_EQ(back.generator, resp.generator);
  EXPECT_EQ(back.outcome, resp.outcome);
  EXPECT_EQ(back.error, resp.error);
  EXPECT_TRUE(back.cached);
  EXPECT_DOUBLE_EQ(back.seconds, 0.25);
  EXPECT_EQ(back.paths, 12);
  EXPECT_EQ(back.queries, 34);
  EXPECT_DOUBLE_EQ(back.retry_after_ms, 750);
  EXPECT_EQ(back.stats_json, resp.stats_json);
}

TEST(Protocol, ParseRequestRejectsMalformedInput) {
  Request req;
  // Unparseable JSON.
  EXPECT_FALSE(ParseRequest("{\"op\":", &req).ok());
  EXPECT_FALSE(ParseRequest("not json at all", &req).ok());
  // Future protocol version: refuse rather than mis-serve.
  EXPECT_FALSE(ParseRequest("{\"v\":99,\"op\":\"ping\"}", &req).ok());
  // A version past int's range is an unsupported version too; it is never
  // narrowed (which could wrap it onto the version this server speaks).
  Status huge_version = ParseRequest("{\"v\":4294967297,\"op\":\"ping\"}", &req);
  ASSERT_FALSE(huge_version.ok());
  EXPECT_NE(huge_version.message().find("unsupported protocol version"), std::string::npos)
      << huge_version.message();
  // Missing / unknown op (the diagnostic names the supported ops).
  EXPECT_FALSE(ParseRequest("{\"id\":\"x\"}", &req).ok());
  Status unknown_op = ParseRequest("{\"op\":\"frobnicate\"}", &req);
  ASSERT_FALSE(unknown_op.ok());
  EXPECT_NE(unknown_op.message().find("ping"), std::string::npos) << unknown_op.message();
  // verify needs a target.
  EXPECT_FALSE(ParseRequest("{\"op\":\"verify\"}", &req).ok());
  // Negative deadlines are nonsense, not "no deadline".
  EXPECT_FALSE(ParseRequest("{\"op\":\"verify\",\"gen\":\"g\",\"deadline_ms\":-1}", &req).ok());
  // A number past double's range is malformed, not infinity; a huge finite
  // deadline is accepted and means no deadline.
  EXPECT_FALSE(ParseRequest("{\"op\":\"verify\",\"gen\":\"g\",\"deadline_ms\":1e999}", &req).ok());
  EXPECT_TRUE(ParseRequest("{\"op\":\"verify\",\"gen\":\"g\",\"deadline_ms\":1e300}", &req).ok());
}

TEST(Protocol, ParseRequestToleratesOmittedVersionAndUnknownKeys) {
  // A minimal hand-written client line: no v (defaults to current), an
  // unknown key a future client might send (skipped).
  Request req;
  Status st = ParseRequest(
      "{\"op\":\"verify\",\"gen\":\"tryAttachInt32Add\",\"priority\":\"high\",\"nice\":3}", &req);
  ASSERT_TRUE(st.ok()) << st.message();
  EXPECT_EQ(req.v, kProtocolVersion);
  EXPECT_EQ(req.generator, "tryAttachInt32Add");
}

TEST(Protocol, ParseResponseRequiresStatus) {
  Response resp;
  EXPECT_FALSE(ParseResponse("{\"id\":\"x\"}", &resp).ok());
  EXPECT_TRUE(ParseResponse("{\"status\":\"OK\"}", &resp).ok());
  // Integers that do not fit their fields make the line malformed.
  EXPECT_FALSE(ParseResponse("{\"status\":\"OK\",\"paths\":1e19}", &resp).ok());
  EXPECT_FALSE(ParseResponse("{\"status\":\"OK\",\"v\":4294967297}", &resp).ok());
}

TEST(Protocol, MetricsFieldsRoundTrip) {
  Request metrics;
  metrics.op = kOpMetrics;
  metrics.format = "json";
  Request mback;
  ASSERT_TRUE(ParseRequest(metrics.ToJsonLine(), &mback).ok());
  EXPECT_EQ(mback.op, kOpMetrics);
  EXPECT_EQ(mback.format, "json");
  EXPECT_FALSE(ParseRequest("{\"op\":\"metrics\",\"format\":\"xml\"}", &metrics).ok());

  Response resp;
  resp.status = kStatusOk;
  resp.metrics = "# HELP x y\n# TYPE x counter\nx 1\n";
  Response rback;
  ASSERT_TRUE(ParseResponse(resp.ToJsonLine(), &rback).ok());
  EXPECT_EQ(rback.metrics, resp.metrics);
}

// --- ServerCore: the full request lifecycle -------------------------------

class ServerCoreTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    StatusOr<std::unique_ptr<platform::Platform>> loaded = platform::Platform::Load();
    ASSERT_TRUE(loaded.ok()) << loaded.status().message();
    platform_ = loaded.take().release();
  }
  static void TearDownTestSuite() {
    delete platform_;
    platform_ = nullptr;
  }
  void SetUp() override {
    ASSERT_NE(platform_, nullptr);
    failpoint::DisarmAll();
  }
  void TearDown() override { failpoint::DisarmAll(); }

  static Request Verify(const std::string& generator, const std::string& client = "test",
                        double deadline_ms = 0) {
    Request req;
    req.op = kOpVerify;
    req.generator = generator;
    req.client = client;
    req.deadline_ms = deadline_ms;
    return req;
  }

  static platform::Platform* platform_;
};

platform::Platform* ServerCoreTest::platform_ = nullptr;

TEST_F(ServerCoreTest, ControlOpsAnswerInline) {
  ServerCore core(platform_, DaemonOptions{});
  ASSERT_TRUE(core.Start().ok());

  Request ping;
  ping.op = kOpPing;
  ping.id = "p1";
  Response pong = core.Execute(ping);
  EXPECT_EQ(pong.status, kStatusOk);
  EXPECT_EQ(pong.id, "p1");

  Request stats;
  stats.op = kOpStats;
  Response counters = core.Execute(stats);
  EXPECT_EQ(counters.status, kStatusOk);
  EXPECT_NE(counters.stats_json.find("\"requests\":2"), std::string::npos)
      << counters.stats_json;

  Request shutdown;
  shutdown.op = kOpShutdown;
  EXPECT_FALSE(core.shutdown_requested());
  EXPECT_EQ(core.Execute(shutdown).status, kStatusOk);
  EXPECT_TRUE(core.shutdown_requested());
  EXPECT_TRUE(core.FinishDrain().ok());
}

TEST_F(ServerCoreTest, ServesRealVerdictsAndWarmRepeats) {
  ServerCore core(platform_, DaemonOptions{});
  ASSERT_TRUE(core.Start().ok());

  // A healthy generator verifies; a study bug is refuted; an unknown name is
  // an ERROR outcome (served, not a protocol failure).
  Response ok = core.Execute(Verify("tryAttachCompareInt32"));
  EXPECT_EQ(ok.status, kStatusOk);
  EXPECT_EQ(ok.outcome, "VERIFIED");
  EXPECT_FALSE(ok.cached);
  EXPECT_GT(ok.paths, 0);

  Response refuted = core.Execute(Verify("bug1451976_buggy"));
  EXPECT_EQ(refuted.status, kStatusOk);
  EXPECT_EQ(refuted.outcome, "COUNTEREXAMPLE");

  Response unknown = core.Execute(Verify("noSuchGenerator"));
  EXPECT_EQ(unknown.status, kStatusOk);
  EXPECT_EQ(unknown.outcome, "ERROR");
  EXPECT_NE(unknown.error.find("noSuchGenerator"), std::string::npos) << unknown.error;

  // Decisive verdicts are warm: the repeat is served from memory, marked
  // cached, with no queueing and no recomputation.
  Response warm = core.Execute(Verify("tryAttachCompareInt32"));
  EXPECT_EQ(warm.status, kStatusOk);
  EXPECT_EQ(warm.outcome, "VERIFIED");
  EXPECT_TRUE(warm.cached);
  Response warm_refuted = core.Execute(Verify("bug1451976_buggy"));
  EXPECT_TRUE(warm_refuted.cached);
  EXPECT_EQ(warm_refuted.outcome, "COUNTEREXAMPLE");
  // ERROR is not decisive — the retry really retries.
  Response retried = core.Execute(Verify("noSuchGenerator"));
  EXPECT_FALSE(retried.cached);

  DaemonStats stats = core.StatsSnapshot();
  EXPECT_EQ(stats.requests, 6);
  EXPECT_EQ(stats.warm_hits, 2);
  EXPECT_EQ(stats.served, 4);  // Two real verdicts + two ERROR attempts.
  EXPECT_TRUE(core.FinishDrain().ok());
}

TEST_F(ServerCoreTest, OlderClientTraceContextIsParsedAndServed) {
  // Older clients stamp a trace label and a 53-bit parent span id onto
  // verify requests. The daemon no longer reads either key, but such a line
  // must still parse like any other with unknown keys and be served.
  const std::string line =
      "{\"v\":1,\"id\":\"old-1\",\"op\":\"verify\",\"gen\":\"tryAttachCompareInt32\","
      "\"client\":\"old\",\"deadline_ms\":0,\"trace_id\":\"trace-123-456\","
      "\"parent_span\":116653459243050}";
  Request req;
  Status parsed = ParseRequest(line, &req);
  ASSERT_TRUE(parsed.ok()) << parsed.message();
  EXPECT_EQ(req.op, kOpVerify);
  EXPECT_EQ(req.generator, "tryAttachCompareInt32");
  EXPECT_EQ(req.client, "old");
  EXPECT_EQ(req.ToJsonLine().find("trace_id"), std::string::npos);

  ServerCore core(platform_, DaemonOptions{});
  ASSERT_TRUE(core.Start().ok());
  Response resp = core.Execute(req);
  EXPECT_EQ(resp.id, "old-1");
  EXPECT_EQ(resp.status, kStatusOk);
  EXPECT_EQ(resp.outcome, "VERIFIED");
  EXPECT_TRUE(core.FinishDrain().ok());
}

TEST_F(ServerCoreTest, MetricsOpServesAParseableExposition) {
  obs::SetEnabled(true);
  obs::Registry::Global().ResetAll();
  ServerCore core(platform_, DaemonOptions{});
  ASSERT_TRUE(core.Start().ok());
  EXPECT_EQ(core.Execute(Verify("tryAttachInt32Add")).status, kStatusOk);

  Request metrics;
  metrics.op = kOpMetrics;
  Response resp = core.Execute(metrics);
  EXPECT_EQ(resp.status, kStatusOk);
  StatusOr<obs::Exposition> parsed = obs::ParsePrometheus(resp.metrics);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  // The service-time histogram recorded the verify, and quantile queries
  // against the parsed exposition answer something positive — exactly what
  // `icarus top` renders as P50/P99.
  const obs::ExpositionHistogram* request_seconds =
      parsed.value().FindHistogram("icarus_daemon_request_seconds");
  ASSERT_NE(request_seconds, nullptr);
  EXPECT_GE(request_seconds->count, 1);
  EXPECT_GT(request_seconds->Quantile(0.5), 0);
  // Per-op attribution: the verify (and this metrics op itself, admitted
  // before the render) have op-level histograms.
  const obs::ExpositionHistogram* op_verify =
      parsed.value().FindHistogram("icarus_daemon_op_verify_seconds");
  ASSERT_NE(op_verify, nullptr);
  EXPECT_GE(op_verify->count, 1);
  // Queue gauges are exported (occupancy may legitimately be zero by now).
  EXPECT_NE(parsed.value().FindGauge("icarus_daemon_queue_depth"), nullptr);

  Request as_json;
  as_json.op = kOpMetrics;
  as_json.format = "json";
  Response json_resp = core.Execute(as_json);
  EXPECT_EQ(json_resp.status, kStatusOk);
  ASSERT_FALSE(json_resp.metrics.empty());
  EXPECT_EQ(json_resp.metrics.front(), '{');
  EXPECT_NE(json_resp.metrics.find("\"histograms\""), std::string::npos);

  EXPECT_TRUE(core.FinishDrain().ok());
  obs::SetEnabled(false);
}

TEST_F(ServerCoreTest, SlowRequestLogAttributesStageCosts) {
  DaemonOptions options;
  options.slow_ms = 1e-6;  // Every served request is "slow".
  options.slow_log_path = TempPath("slow_log_test.jsonl");
  std::remove(options.slow_log_path.c_str());
  ServerCore core(platform_, options);
  ASSERT_TRUE(core.Start().ok());
  // A hostile (or merely buggy) client name: quote, backslash, newline, and
  // raw control bytes. The log line must carry it loss-free, and a raw
  // newline would tear the JSONL framing.
  const std::string client = std::string("ci\x01\x1f\"\\\n\t") + "shard";
  EXPECT_EQ(core.Execute(Verify("tryAttachCompareInt32", client)).status, kStatusOk);
  // Warm hits skip the service path entirely — no second log line.
  EXPECT_EQ(core.Execute(Verify("tryAttachCompareInt32", client)).status, kStatusOk);
  EXPECT_TRUE(core.FinishDrain().ok());

  std::ifstream in(options.slow_log_path);
  ASSERT_TRUE(in.good()) << "slow log not written";
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    EXPECT_NE(line.find("\"slow_request\":true"), std::string::npos) << line;
    EXPECT_NE(line.find("\"gen\":\"tryAttachCompareInt32\""), std::string::npos);
    EXPECT_NE(line.find("\"outcome\":\"VERIFIED\""), std::string::npos);
    // Control bytes are \u-escaped, and the name parses back intact.
    EXPECT_NE(line.find("\\u0001"), std::string::npos) << line;
    std::string logged;
    EXPECT_TRUE(FlatLineParser(line).Parse(
        [&logged](const std::string& key, std::string value) {
          if (key == "client") {
            logged = std::move(value);
          }
        },
        [](const std::string&, double) {}))
        << line;
    EXPECT_EQ(logged, client);
    // Stage attribution mirrors the journal's breakdown, which has no CFA
    // stage: no verification builds the automaton.
    for (const char* key : {"\"seconds\":", "\"gen_s\":", "\"interp_s\":", "\"solve_s\":",
                            "\"paths\":", "\"queries\":"}) {
      EXPECT_NE(line.find(key), std::string::npos) << key << " missing in " << line;
    }
    EXPECT_EQ(line.find("cfa"), std::string::npos) << line;
  }
  EXPECT_EQ(lines, 1);
}

TEST_F(ServerCoreTest, BoundedQueueShedsUnderConcurrentLoad) {
  DaemonOptions options;
  options.jobs = 1;
  options.queue_limit = 1;
  ServerCore core(platform_, options);
  ASSERT_TRUE(core.Start().ok());

  const std::vector<std::string> generators = {
      "tryAttachInt32Add",   "tryAttachInt32Sub",     "tryAttachInt32Mul",
      "tryAttachInt32Div",   "tryAttachInt32Mod",     "tryAttachInt32Bitwise",
      "tryAttachInt32MinMax", "tryAttachInt32Negation", "tryAttachInt32Not",
      "tryAttachObjectLength", "tryAttachStringLength", "tryAttachDenseElement",
  };
  std::vector<Response> responses(generators.size());
  std::vector<std::thread> clients;
  for (size_t i = 0; i < generators.size(); ++i) {
    clients.emplace_back([&core, &generators, &responses, i] {
      responses[i] = core.Execute(Verify(generators[i]));
    });
  }
  for (std::thread& t : clients) {
    t.join();
  }

  // Every response is either a real verdict or an honest shed — and the
  // books balance exactly: nothing is dropped, nothing double-counted.
  int served = 0;
  int shed = 0;
  for (const Response& resp : responses) {
    if (resp.status == kStatusOk) {
      ++served;
      EXPECT_EQ(resp.outcome, "VERIFIED") << resp.generator;
    } else {
      ASSERT_EQ(resp.status, kStatusOverloaded) << resp.status;
      EXPECT_EQ(resp.error, "request queue is full");
      EXPECT_EQ(resp.retry_after_ms, kOverloadedRetryAfterMs);
      ++shed;
    }
  }
  EXPECT_EQ(served + shed, static_cast<int>(generators.size()));
  // With a queue bound of 1 and one worker, twelve simultaneous requests
  // cannot all fit; at least one must have been shed, and at least one
  // (the first in) must have been served.
  EXPECT_GE(shed, 1);
  EXPECT_GE(served, 1);

  DaemonStats stats = core.StatsSnapshot();
  EXPECT_EQ(stats.served, served);
  EXPECT_EQ(stats.shed_queue, shed);
  EXPECT_EQ(stats.queue_depth, 0);
  EXPECT_EQ(stats.in_flight, 0);
  EXPECT_TRUE(core.FinishDrain().ok());
}

TEST_F(ServerCoreTest, DeadlineDegradesQueuedRequestsToInconclusive) {
  DaemonOptions options;
  options.jobs = 1;
  ServerCore core(platform_, options);
  ASSERT_TRUE(core.Start().ok());

  // Occupy the one worker with the slowest unit (no deadline), so the
  // requests below are still queued when their deadline passes however the
  // host schedules the client threads.
  Response head;
  std::thread head_client(
      [&core, &head] { head = core.Execute(Verify("tryAttachCompareStrictDifferentTypes")); });
  while (core.StatsSnapshot().in_flight == 0 && core.StatsSnapshot().served == 0) {
    std::this_thread::yield();
  }

  // Six healthy generators queue behind it with a 50µs deadline: they blow
  // their deadline, their cancel flag flips, and the verification observes
  // it at its next path boundary — INCONCLUSIVE, never a made-up verdict.
  const std::vector<std::string> generators = {
      "tryAttachCompareInt32",  "tryAttachCompareString", "tryAttachCompareObject",
      "tryAttachCompareSymbol", "tryAttachInt32Add",      "tryAttachObjectLength",
  };
  std::vector<Response> responses(generators.size());
  std::vector<std::thread> clients;
  for (size_t i = 0; i < generators.size(); ++i) {
    clients.emplace_back([&core, &generators, &responses, i] {
      responses[i] = core.Execute(Verify(generators[i], "test", /*deadline_ms=*/0.05));
    });
  }
  for (std::thread& t : clients) {
    t.join();
  }
  head_client.join();
  EXPECT_EQ(head.outcome, "VERIFIED");

  int inconclusive = 0;
  for (const Response& resp : responses) {
    ASSERT_EQ(resp.status, kStatusOk) << resp.error;
    // A deadline can only degrade, never corrupt: healthy generators are
    // VERIFIED or INCONCLUSIVE, nothing else.
    EXPECT_TRUE(resp.outcome == "VERIFIED" || resp.outcome == "INCONCLUSIVE")
        << resp.generator << " -> " << resp.outcome;
    if (resp.outcome == "INCONCLUSIVE") {
      ++inconclusive;
    }
  }
  EXPECT_GE(inconclusive, 1);
  DaemonStats stats = core.StatsSnapshot();
  EXPECT_GE(stats.deadline_cancelled, 1);
  EXPECT_TRUE(core.FinishDrain().ok());
}

TEST_F(ServerCoreTest, HugeDeadlineMeansNoDeadline) {
  // A deadline past the clock's range behaves as none, whether the request
  // carries it or the daemon's default supplies it. Converting it to clock
  // ticks used to overflow into a deadline that had already passed.
  DaemonOptions options;
  options.default_deadline_ms = 1e300;
  ServerCore core(platform_, options);
  ASSERT_TRUE(core.Start().ok());
  Response own = core.Execute(Verify("tryAttachInt32Add", "test", /*deadline_ms=*/1e300));
  EXPECT_EQ(own.status, kStatusOk) << own.error;
  EXPECT_EQ(own.outcome, "VERIFIED");
  Response by_default = core.Execute(Verify("tryAttachObjectLength"));
  EXPECT_EQ(by_default.status, kStatusOk) << by_default.error;
  EXPECT_EQ(by_default.outcome, "VERIFIED");
  EXPECT_EQ(core.StatsSnapshot().deadline_cancelled, 0);
  EXPECT_TRUE(core.FinishDrain().ok());
}

TEST_F(ServerCoreTest, DispatchFaultsAreContained) {
  ServerCore core(platform_, DaemonOptions{});
  ASSERT_TRUE(core.Start().ok());

  // Every dispatch throws while armed; the worker must convert each into an
  // INTERNAL_ERROR response for that request alone — a repeat of the same
  // target and another target alike are still served.
  ASSERT_TRUE(failpoint::Arm(std::string("p=") + failpoint::kDaemonDispatch + ":1").ok());
  for (const char* generator :
       {"tryAttachCompareInt32", "tryAttachCompareInt32", "tryAttachInt32Add"}) {
    Response resp = core.Execute(Verify(generator));
    EXPECT_EQ(resp.status, kStatusOk);
    EXPECT_EQ(resp.outcome, "INTERNAL_ERROR");
    EXPECT_NE(resp.error.find("injected fault"), std::string::npos) << resp.error;
  }
  EXPECT_EQ(core.StatsSnapshot().internal_errors, 3);

  // INTERNAL_ERROR is not decisive, so nothing was kept warm: once the fault
  // is gone, the next request for the same target really verifies.
  failpoint::DisarmAll();
  Response recovered = core.Execute(Verify("tryAttachCompareInt32"));
  EXPECT_EQ(recovered.status, kStatusOk);
  EXPECT_EQ(recovered.outcome, "VERIFIED");
  EXPECT_FALSE(recovered.cached);
  EXPECT_TRUE(core.FinishDrain().ok());
}

TEST_F(ServerCoreTest, EnqueueFaultBurnsOnlyThatRequest) {
  ServerCore core(platform_, DaemonOptions{});
  ASSERT_TRUE(core.Start().ok());
  ASSERT_TRUE(failpoint::Arm(std::string("at=") + failpoint::kDaemonEnqueue + ":1").ok());

  Response burnt = core.Execute(Verify("tryAttachInt32Add"));
  EXPECT_EQ(burnt.status, kStatusError);
  EXPECT_NE(burnt.error.find("injected fault"), std::string::npos) << burnt.error;

  // Nothing was queued, no worker was harmed: the next request is served.
  Response next = core.Execute(Verify("tryAttachInt32Add"));
  EXPECT_EQ(next.status, kStatusOk);
  EXPECT_EQ(next.outcome, "VERIFIED");
  EXPECT_TRUE(core.FinishDrain().ok());
}

TEST_F(ServerCoreTest, ParseFaultIsARecoverableException) {
  // The parse site sits in ParseRequest itself; the transport catches the
  // recoverable InternalError and answers ERROR without dropping the
  // connection. Here we prove the exception type contract.
  ASSERT_TRUE(failpoint::Arm(std::string("at=") + failpoint::kDaemonParse + ":1").ok());
  Request req;
  bool contained = false;
  try {
    (void)ParseRequest("{\"op\":\"ping\"}", &req);
  } catch (const InternalError& e) {
    contained = true;
    EXPECT_NE(std::string(e.what()).find("injected fault"), std::string::npos);
  }
  EXPECT_TRUE(contained);
}

TEST_F(ServerCoreTest, DrainFailsQueuedRequestsFastAndStopsAdmission) {
  DaemonOptions options;
  options.jobs = 1;
  ServerCore core(platform_, options);
  ASSERT_TRUE(core.Start().ok());

  const std::vector<std::string> generators = {
      "tryAttachCompareStrictDifferentTypes", "tryAttachCompareNullUndefined",
      "tryAttachCompareInt32",  "tryAttachCompareString",
      "tryAttachCompareObject", "tryAttachCompareSymbol",
      "tryAttachInt32Add",      "tryAttachObjectLength",
  };
  std::vector<Response> responses(generators.size());
  std::vector<std::thread> clients;
  for (size_t i = 0; i < generators.size(); ++i) {
    clients.emplace_back([&core, &generators, &responses, i] {
      responses[i] = core.Execute(Verify(generators[i]));
    });
  }

  // Catch the storm mid-flight, then drain. If the requests all finished
  // before we looked (possible on a fast machine), the drain still has to be
  // clean — the queued-fail-fast assertion is gated on having caught it.
  bool caught_backlog = false;
  for (int spins = 0; spins < 20000; ++spins) {
    DaemonStats stats = core.StatsSnapshot();
    if (stats.queue_depth >= 1) {
      caught_backlog = true;
      break;
    }
    if (stats.served >= static_cast<int64_t>(generators.size())) {
      break;
    }
    std::this_thread::yield();
  }
  core.BeginDrain();
  for (std::thread& t : clients) {
    t.join();
  }

  int shut_down = 0;
  for (const Response& resp : responses) {
    // A drained request either kept its earned verdict, was degraded to
    // INCONCLUSIVE by cancellation, or was failed fast — never dropped.
    if (resp.status == kStatusShuttingDown) {
      ++shut_down;
    } else {
      ASSERT_EQ(resp.status, kStatusOk) << resp.status << " " << resp.error;
      EXPECT_TRUE(resp.outcome == "VERIFIED" || resp.outcome == "INCONCLUSIVE")
          << resp.generator << " -> " << resp.outcome;
    }
  }
  if (caught_backlog) {
    EXPECT_GE(shut_down, 1);
  }

  // Post-drain, admission is closed and the drain completes cleanly.
  EXPECT_EQ(core.Execute(Verify("tryAttachInt32Add")).status, kStatusShuttingDown);
  Request ping;
  ping.op = kOpPing;
  EXPECT_EQ(core.Execute(ping).status, kStatusShuttingDown);
  EXPECT_TRUE(core.FinishDrain().ok());
}

TEST_F(ServerCoreTest, DrainFaultSurfacesAsErrorNotCrash) {
  ServerCore core(platform_, DaemonOptions{});
  ASSERT_TRUE(core.Start().ok());
  ASSERT_TRUE(failpoint::Arm(std::string("at=") + failpoint::kDaemonDrain + ":1").ok());
  Status st = core.FinishDrain();
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("drain fault"), std::string::npos) << st.message();
}

TEST_F(ServerCoreTest, JournalReplayRestoresTheWarmView) {
  std::string journal = TempPath("daemon_journal_replay.jsonl");
  std::remove(journal.c_str());

  {
    DaemonOptions options;
    options.journal_path = journal;
    ServerCore core(platform_, options);
    ASSERT_TRUE(core.Start().ok());
    EXPECT_EQ(core.Execute(Verify("tryAttachCompareInt32")).outcome, "VERIFIED");
    EXPECT_EQ(core.Execute(Verify("bug1451976_buggy")).outcome, "COUNTEREXAMPLE");
    // An ERROR verdict is journaled but must NOT be replayed as warm.
    EXPECT_EQ(core.Execute(Verify("noSuchGenerator")).outcome, "ERROR");
    ASSERT_TRUE(core.FinishDrain().ok());
  }

  // The restarted instance replays the journal: decisive verdicts are served
  // warm (cached, identical outcomes) without recomputation.
  DaemonOptions options;
  options.journal_path = journal;
  ServerCore core(platform_, options);
  ASSERT_TRUE(core.Start().ok());
  EXPECT_EQ(core.StatsSnapshot().replayed, 2);

  Response verified = core.Execute(Verify("tryAttachCompareInt32"));
  EXPECT_EQ(verified.outcome, "VERIFIED");
  EXPECT_TRUE(verified.cached);
  Response refuted = core.Execute(Verify("bug1451976_buggy"));
  EXPECT_EQ(refuted.outcome, "COUNTEREXAMPLE");
  EXPECT_TRUE(refuted.cached);

  DaemonStats stats = core.StatsSnapshot();
  EXPECT_EQ(stats.warm_hits, 2);
  EXPECT_EQ(stats.served, 0);  // Nothing recomputed.
  EXPECT_TRUE(core.FinishDrain().ok());
}

TEST_F(ServerCoreTest, JournalReplaySkipsRowsFromAnotherVerifierEpoch) {
  // A VERIFIED row for a buggy generator, earned under an older verifier
  // epoch, must not enter the warm view: the request verifies it again and
  // finds the counterexample.
  std::string journal = TempPath("daemon_journal_foreign_epoch.jsonl");
  {
    std::ofstream out(journal, std::ios::trunc);
    out << "{\"schema\":7,\"platform\":\"" << platform_->Fingerprint()
        << "\",\"epoch\":\"icarus-cdcl-v2\",\"generator\":\"bug1685925_buggy\","
           "\"outcome\":\"VERIFIED\",\"error\":\"\",\"paths\":12,\"queries\":31,"
           "\"seconds\":0.5}\n";
  }
  DaemonOptions options;
  options.journal_path = journal;
  ServerCore core(platform_, options);
  ASSERT_TRUE(core.Start().ok());
  EXPECT_EQ(core.StatsSnapshot().replayed, 0);
  Response resp = core.Execute(Verify("bug1685925_buggy"));
  EXPECT_EQ(resp.status, kStatusOk) << resp.error;
  EXPECT_EQ(resp.outcome, "COUNTEREXAMPLE");
  EXPECT_FALSE(resp.cached);
  EXPECT_TRUE(core.FinishDrain().ok());
  std::remove(journal.c_str());
}

TEST_F(ServerCoreTest, CorruptJournalFailsStartupLoudly) {
  // Serving warm verdicts from a journal we cannot parse would hand out
  // untrusted answers; startup must refuse and tell the operator what to do.
  std::string journal = TempPath("daemon_journal_corrupt.jsonl");
  {
    std::ofstream out(journal, std::ios::trunc);
    out << "this is not a journal\n{\"also\":\"garbage\"}\n";
  }
  DaemonOptions options;
  options.journal_path = journal;
  ServerCore core(platform_, options);
  Status st = core.Start();
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("cannot replay journal"), std::string::npos) << st.message();
  EXPECT_NE(st.message().find("start cold"), std::string::npos) << st.message();
  std::remove(journal.c_str());
}

TEST_F(ServerCoreTest, SecondWriterDegradesToReadOnlyCache) {
  std::string dir = TempPath("daemon_readonly_cache");
  (void)mkdir(dir.c_str(), 0755);
  std::remove(verifier::VerdictStorePath(dir).c_str());

  // Someone else (another daemon, a concurrent verify-all --incremental)
  // holds the advisory lock.
  FileLock::Result held = FileLock::TryExclusive(dir + "/lock");
  ASSERT_EQ(held.state, FileLock::State::kAcquired) << held.message;

  DaemonOptions options;
  options.incremental = true;
  options.cache_dir = dir;
  ServerCore core(platform_, options);
  ASSERT_TRUE(core.Start().ok());
  EXPECT_TRUE(core.StatsSnapshot().read_only_cache);
  bool noted = false;
  for (const std::string& note : core.notes()) {
    if (note.find("read-only") != std::string::npos) {
      noted = true;
    }
  }
  EXPECT_TRUE(noted);

  // Serving still works warm...
  EXPECT_EQ(core.Execute(Verify("tryAttachCompareInt32")).outcome, "VERIFIED");
  ASSERT_TRUE(core.FinishDrain().ok());
  // ...but the read-only instance never writes the stores back.
  struct stat st;
  EXPECT_NE(::stat(verifier::VerdictStorePath(dir).c_str(), &st), 0);
}

TEST_F(ServerCoreTest, StatsJsonCarriesTheFullSnapshot) {
  DaemonStats stats;
  stats.requests = 3;
  stats.shed_queue = 1;
  stats.read_only_cache = true;

  std::string json = stats.ToJson();
  EXPECT_NE(json.find("\"requests\":3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"shed_queue\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"read_only_cache\":true"), std::string::npos) << json;
  // The document is one flat object: `icarus top` reads it with the
  // flat-line parser.
  EXPECT_TRUE(FlatLineParser(json).Parse([](const std::string&, std::string) {},
                                         [](const std::string&, double) {}))
      << json;
}

}  // namespace
}  // namespace icarus::daemon
