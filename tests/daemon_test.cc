// Daemon serving-layer suite: wire-protocol round-trips and rejection
// diagnostics, and the ServerCore request lifecycle end to end — real
// verdicts, the warm view, bounded-queue shedding, per-request deadlines
// degrading to INCONCLUSIVE, contained dispatch faults, graceful drain,
// a restart on the journal answering its PASSes CACHED_SAFE, read-only
// degradation when another
// process holds the cache lock, and a concurrent incremental daemon whose
// stored PASSes a restart answers CACHED_SAFE. Everything here is in-process;
// daemon_e2e_test.cc covers the real icarusd binary over a Unix socket.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <sys/socket.h>
#include <sys/stat.h>
#include <thread>
#include <vector>

#include "src/daemon/protocol.h"
#include "src/daemon/server.h"
#include "src/platform/platform.h"
#include "src/support/failpoint.h"
#include "src/support/file_lock.h"
#include "src/support/flat_json.h"
#include "src/support/net.h"
#include "src/support/status.h"
#include "src/verifier/batch_verifier.h"
#include "src/verifier/journal.h"
#include "src/verifier/verdict_store.h"

namespace icarus::daemon {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// --- Wire protocol -------------------------------------------------------

TEST(Protocol, RequestRoundTripsAllFields) {
  Request req;
  req.id = "ci \"shard\\3\"\n";  // Echoed verbatim: quotes, backslash, newline survive.
  req.op = kOpVerify;
  req.generator = "tryAttachCompareInt32";
  req.deadline_ms = 1500.5;

  Request back;
  Status st = ParseRequest(req.ToJsonLine(), &back);
  ASSERT_TRUE(st.ok()) << st.message();
  EXPECT_EQ(back.v, kProtocolVersion);
  EXPECT_EQ(back.id, req.id);
  EXPECT_EQ(back.op, req.op);
  EXPECT_EQ(back.generator, req.generator);
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
  // The daemon exports no metric registry: `metrics` is an unknown op.
  EXPECT_FALSE(ParseRequest("{\"op\":\"metrics\"}", &req).ok());
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

  static Request Verify(const std::string& generator, double deadline_ms = 0) {
    Request req;
    req.op = kOpVerify;
    req.generator = generator;
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

  // Execute answers `shutdown` but leaves the flag to the transport, which
  // raises it once the reply is written (ServeConnection; see
  // ShutdownFlagRisesAfterTheReply).
  Request shutdown;
  shutdown.op = kOpShutdown;
  EXPECT_FALSE(core.shutdown_requested());
  EXPECT_EQ(core.Execute(shutdown).status, kStatusOk);
  EXPECT_FALSE(core.shutdown_requested());
  core.RequestShutdown();
  EXPECT_TRUE(core.shutdown_requested());
  EXPECT_TRUE(core.FinishDrain().ok());
}

TEST_F(ServerCoreTest, ShutdownFlagRisesAfterTheReply) {
  ServerCore core(platform_, DaemonOptions{});
  ASSERT_TRUE(core.Start().ok());
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  std::thread conn([&core, fd = fds[1]] { ServeConnection(&core, fd); });
  Request shutdown;
  shutdown.op = kOpShutdown;
  shutdown.id = "s1";
  ASSERT_TRUE(net::WriteLine(fds[0], shutdown.ToJsonLine()).ok());
  net::LineReader reader(fds[0]);
  std::string line;
  std::string err;
  ASSERT_EQ(reader.ReadLine(&line, &err), net::LineReader::Result::kLine) << err;
  Response resp;
  ASSERT_TRUE(ParseResponse(line, &resp).ok());
  EXPECT_EQ(resp.status, kStatusOk);
  EXPECT_EQ(resp.id, "s1");
  net::CloseFd(fds[0]);  // The connection thread sees EOF and returns.
  conn.join();
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
  // Older clients stamp a client name, a metrics format, a trace label and a
  // 53-bit parent span id onto verify requests. The daemon reads none of
  // these keys any more, but such a line must still parse like any other
  // with unknown keys and be served.
  const std::string line =
      "{\"v\":1,\"id\":\"old-1\",\"op\":\"verify\",\"gen\":\"tryAttachCompareInt32\","
      "\"client\":\"old\",\"format\":\"json\",\"deadline_ms\":0,"
      "\"trace_id\":\"trace-123-456\",\"parent_span\":116653459243050}";
  Request req;
  Status parsed = ParseRequest(line, &req);
  ASSERT_TRUE(parsed.ok()) << parsed.message();
  EXPECT_EQ(req.op, kOpVerify);
  EXPECT_EQ(req.generator, "tryAttachCompareInt32");
  for (const char* dropped : {"client", "format", "trace_id"}) {
    EXPECT_EQ(req.ToJsonLine().find(dropped), std::string::npos) << dropped;
  }

  ServerCore core(platform_, DaemonOptions{});
  ASSERT_TRUE(core.Start().ok());
  Response resp = core.Execute(req);
  EXPECT_EQ(resp.id, "old-1");
  EXPECT_EQ(resp.status, kStatusOk);
  EXPECT_EQ(resp.outcome, "VERIFIED");
  EXPECT_TRUE(core.FinishDrain().ok());
}

TEST_F(ServerCoreTest, BoundedQueueShedsUnderConcurrentLoad) {
  DaemonOptions options;
  options.jobs = 1;
  options.queue_limit = 1;
  ServerCore core(platform_, options);
  ASSERT_TRUE(core.Start().ok());
  // A request verifies on its caller's thread, so one that finds the slot
  // free can finish before the next client thread has started. The first
  // dispatch stalls for 500 ms before it verifies, so the other requests
  // arrive while it holds the slot.
  ASSERT_TRUE(
      failpoint::Arm(std::string("at=") + failpoint::kDaemonDispatch + ":1,action=stall").ok());

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

TEST_F(ServerCoreTest, ZeroQueueServesAnIdleCoreAndShedsWhileBusy) {
  // The queue bound counts only requests that must wait: with no room to
  // wait, an idle core still serves, and a request that finds the one slot
  // taken is shed.
  DaemonOptions options;
  options.jobs = 1;
  options.queue_limit = 0;
  ServerCore core(platform_, options);
  ASSERT_TRUE(core.Start().ok());
  Response idle = core.Execute(Verify("tryAttachInt32Add"));
  EXPECT_EQ(idle.status, kStatusOk) << idle.error;
  EXPECT_EQ(idle.outcome, "VERIFIED");

  // The next dispatch holds the slot for 500 ms.
  ASSERT_TRUE(
      failpoint::Arm(std::string("at=") + failpoint::kDaemonDispatch + ":1,action=stall").ok());
  Response held;
  std::thread holder([&core, &held] { held = core.Execute(Verify("tryAttachInt32Sub")); });
  for (int spins = 0; spins < 2000000 && core.StatsSnapshot().in_flight == 0; ++spins) {
    std::this_thread::yield();
  }
  ASSERT_EQ(core.StatsSnapshot().in_flight, 1) << "the held request never took the slot";
  Response busy = core.Execute(Verify("tryAttachObjectLength"));
  holder.join();
  EXPECT_EQ(busy.status, kStatusOverloaded);
  EXPECT_EQ(held.outcome, "VERIFIED");

  DaemonStats stats = core.StatsSnapshot();
  EXPECT_EQ(stats.served, 2);
  EXPECT_EQ(stats.shed_queue, 1);
  EXPECT_EQ(stats.queue_depth, 0);
  EXPECT_TRUE(core.FinishDrain().ok());
}

TEST_F(ServerCoreTest, StatsCarryServiceTimePercentiles) {
  ServerCore core(platform_, DaemonOptions{});
  ASSERT_TRUE(core.Start().ok());
  Request stats_op;
  stats_op.op = kOpStats;
  // Nothing served yet: no percentile to report.
  DaemonStats cold = core.StatsSnapshot();
  EXPECT_EQ(cold.p50_ms, -1);
  EXPECT_EQ(cold.p99_ms, -1);
  EXPECT_NE(core.Execute(stats_op).stats_json.find("\"p50_ms\":-1"), std::string::npos);

  ASSERT_EQ(core.Execute(Verify("tryAttachCompareInt32")).outcome, "VERIFIED");
  DaemonStats served = core.StatsSnapshot();
  EXPECT_GT(served.p50_ms, 0);
  EXPECT_GT(served.p99_ms, 0);
  // The `stats` op carries them (`icarus top` reads them from there).
  std::map<std::string, double> numbers;
  ASSERT_TRUE(FlatLineParser(core.Execute(stats_op).stats_json)
                  .Parse([](const std::string&, std::string) {},
                         [&numbers](const std::string& key, double v) { numbers[key] = v; }));
  EXPECT_DOUBLE_EQ(numbers["p50_ms"], served.p50_ms);
  EXPECT_DOUBLE_EQ(numbers["p99_ms"], served.p99_ms);

  // A warm hit runs nothing and adds no sample: with one sample in the
  // window, any second one would move p50 (the lower) or p99 (the upper).
  Response warm = core.Execute(Verify("tryAttachCompareInt32"));
  ASSERT_TRUE(warm.cached);
  DaemonStats after_warm = core.StatsSnapshot();
  EXPECT_EQ(after_warm.p50_ms, served.p50_ms);
  EXPECT_EQ(after_warm.p99_ms, served.p99_ms);
  EXPECT_TRUE(core.FinishDrain().ok());
}

TEST_F(ServerCoreTest, OverlongRequestLineIsRefusedOnceAndEndsTheConnection) {
  ServerCore core(platform_, DaemonOptions{});
  ASSERT_TRUE(core.Start().ok());
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  std::thread conn([&core, fd = fds[1]] { ServeConnection(&core, fd); });
  // 2 MiB without a newline. The daemon stops reading past 1 MiB and closes,
  // so the rest of the write may fail: only the answer matters.
  std::thread writer([fd = fds[0]] {
    (void)net::WriteAll(fd, std::string(2 * net::LineReader::kMaxLineBytes, 'x'));
  });
  net::LineReader reader(fds[0]);
  std::string line;
  std::string err;
  ASSERT_EQ(reader.ReadLine(&line, &err), net::LineReader::Result::kLine) << err;
  Response refused;
  ASSERT_TRUE(ParseResponse(line, &refused).ok()) << line;
  EXPECT_EQ(refused.status, kStatusBadRequest);
  EXPECT_EQ(refused.error, "request line too long");
  // Nothing follows: the stream ends at EOF, or at a reset when the daemon
  // closed with bytes of the line still unread.
  EXPECT_NE(reader.ReadLine(&line, &err), net::LineReader::Result::kLine) << line;
  writer.join();
  conn.join();
  net::CloseFd(fds[0]);

  // The daemon serves the next connection as usual.
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  std::thread next([&core, fd = fds[1]] { ServeConnection(&core, fd); });
  Request ping;
  ping.op = kOpPing;
  ASSERT_TRUE(net::WriteLine(fds[0], ping.ToJsonLine()).ok());
  net::LineReader next_reader(fds[0]);
  ASSERT_EQ(next_reader.ReadLine(&line, &err), net::LineReader::Result::kLine) << err;
  Response pong;
  ASSERT_TRUE(ParseResponse(line, &pong).ok()) << line;
  EXPECT_EQ(pong.status, kStatusOk);
  net::CloseFd(fds[0]);
  next.join();
  EXPECT_TRUE(core.FinishDrain().ok());
}

TEST_F(ServerCoreTest, DeadlineDegradesQueuedRequestsToInconclusive) {
  DaemonOptions options;
  options.jobs = 1;
  ServerCore core(platform_, options);
  ASSERT_TRUE(core.Start().ok());

  // Occupy the one worker with the slowest unit (no deadline), so the
  // requests below are still queued when their deadline passes however the
  // host schedules the client threads: its dispatch stalls for 500 ms
  // before it verifies, since the unit alone can finish before a client
  // thread on a loaded host has even started.
  ASSERT_TRUE(
      failpoint::Arm(std::string("at=") + failpoint::kDaemonDispatch + ":1,action=stall").ok());
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
      responses[i] = core.Execute(Verify(generators[i], /*deadline_ms=*/0.05));
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

TEST_F(ServerCoreTest, QueuedRequestsRunInArrivalOrder) {
  // One slot, and the head request stalls in it for 500 ms. Three clients
  // arrive one at a time behind it, each once the previous one waits; they
  // take the slot in arrival order, which the journal records. The names
  // arrive in reverse alphabetical order, so no sorted structure could pass
  // for the queue.
  std::string journal = TempPath("daemon_arrival_order.jsonl");
  std::remove(journal.c_str());
  DaemonOptions options;
  options.jobs = 1;
  options.journal_path = journal;
  ServerCore core(platform_, options);
  ASSERT_TRUE(core.Start().ok());
  ASSERT_TRUE(
      failpoint::Arm(std::string("at=") + failpoint::kDaemonDispatch + ":1,action=stall").ok());

  const std::vector<std::string> order = {"tryAttachObjectLength", "tryAttachInt32Sub",
                                          "tryAttachInt32Add", "tryAttachCompareInt32"};
  std::vector<Response> responses(order.size());
  std::vector<std::thread> clients;
  auto wait_for = [&core](auto done) {
    for (int spins = 0; spins < 2000000 && !done(core.StatsSnapshot()); ++spins) {
      std::this_thread::yield();
    }
    return done(core.StatsSnapshot());
  };
  for (size_t i = 0; i < order.size(); ++i) {
    clients.emplace_back(
        [&core, &order, &responses, i] { responses[i] = core.Execute(Verify(order[i])); });
    if (i == 0) {
      EXPECT_TRUE(wait_for([](const DaemonStats& s) { return s.in_flight == 1; }));
    } else {
      EXPECT_TRUE(wait_for([i](const DaemonStats& s) {
        return s.queue_depth == static_cast<int>(i);
      })) << order[i] << " never queued";
    }
  }
  for (std::thread& t : clients) {
    t.join();
  }
  for (const Response& resp : responses) {
    EXPECT_EQ(resp.status, kStatusOk) << resp.error;
    EXPECT_EQ(resp.outcome, "VERIFIED") << resp.generator;
  }
  // Read before the drain, which compacts the journal in generator order.
  StatusOr<std::vector<verifier::JournalRecord>> rows = verifier::ReadJournal(journal);
  ASSERT_TRUE(rows.ok()) << rows.status().message();
  std::vector<std::string> journaled;
  for (const verifier::JournalRecord& rec : rows.value()) {
    journaled.push_back(rec.generator);
  }
  EXPECT_EQ(journaled, order);
  EXPECT_TRUE(core.FinishDrain().ok());
  std::remove(journal.c_str());
}

TEST_F(ServerCoreTest, HugeDeadlineMeansNoDeadline) {
  // A deadline past the clock's range behaves as none, whether the request
  // carries it or the daemon's default supplies it. Converting it to clock
  // ticks used to overflow into a deadline that had already passed.
  DaemonOptions options;
  options.default_deadline_ms = 1e300;
  ServerCore core(platform_, options);
  ASSERT_TRUE(core.Start().ok());
  Response own = core.Execute(Verify("tryAttachInt32Add", /*deadline_ms=*/1e300));
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
  // The first dispatch holds the slot for 500 ms, so the others wait behind
  // it when the drain begins (see BoundedQueueShedsUnderConcurrentLoad).
  ASSERT_TRUE(
      failpoint::Arm(std::string("at=") + failpoint::kDaemonDispatch + ":1,action=stall").ok());

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

TEST_F(ServerCoreTest, RestartOnTheJournalAnswersItsPassesCachedSafe) {
  std::string journal = TempPath("daemon_journal_replay.jsonl");
  std::remove(journal.c_str());

  {
    DaemonOptions options;
    options.journal_path = journal;
    ServerCore core(platform_, options);
    ASSERT_TRUE(core.Start().ok());
    EXPECT_EQ(core.Execute(Verify("tryAttachCompareInt32")).outcome, "VERIFIED");
    EXPECT_EQ(core.Execute(Verify("bug1451976_buggy")).outcome, "COUNTEREXAMPLE");
    // An ERROR verdict is journaled but never restored.
    EXPECT_EQ(core.Execute(Verify("noSuchGenerator")).outcome, "ERROR");
    ASSERT_TRUE(core.FinishDrain().ok());
  }

  // The restarted instance restores the journaled PASS by the store's rule
  // (CACHED_SAFE, nothing runs) and verifies the refuted unit again, to a
  // live counterexample.
  DaemonOptions options;
  options.journal_path = journal;
  ServerCore core(platform_, options);
  ASSERT_TRUE(core.Start().ok());

  Response verified = core.Execute(Verify("tryAttachCompareInt32"));
  EXPECT_EQ(verified.outcome, "CACHED_SAFE");
  EXPECT_TRUE(verified.cached);
  Response refuted = core.Execute(Verify("bug1451976_buggy"));
  EXPECT_EQ(refuted.outcome, "COUNTEREXAMPLE");
  EXPECT_FALSE(refuted.cached);

  DaemonStats stats = core.StatsSnapshot();
  EXPECT_EQ(stats.warm_hits, 0);
  EXPECT_EQ(stats.served, 2);
  EXPECT_EQ(stats.cached_safe, 1);
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

TEST_F(ServerCoreTest, ConcurrentIncrementalDaemonPersistsEveryPass) {
  // Four jobs and eight clients put every unit through the store
  // concurrently: lookups and inserts race unless the store is locked.
  std::string dir = TempPath("daemon_concurrent_store");
  (void)mkdir(dir.c_str(), 0755);
  std::remove(verifier::VerdictStorePath(dir).c_str());
  std::remove(verifier::SolverCacheStorePath(dir).c_str());
  std::vector<std::string> units;
  for (const ast::FunctionDecl* fn : platform_->module().Generators()) {
    units.emplace_back(fn->name);
  }
  ASSERT_EQ(units.size(), 38u);
  auto buggy = [](const std::string& name) { return name.find("_buggy") != std::string::npos; };

  DaemonOptions options;
  options.jobs = 4;
  options.incremental = true;
  options.cache_dir = dir;
  auto serve_all = [&](ServerCore& core) {
    std::vector<Response> responses(units.size());
    std::vector<std::thread> clients;
    for (size_t t = 0; t < 8; ++t) {
      clients.emplace_back([&, t] {
        for (size_t i = t; i < units.size(); i += 8) {
          responses[i] = core.Execute(Verify(units[i]));
        }
      });
    }
    for (std::thread& client : clients) {
      client.join();
    }
    return responses;
  };

  {
    ServerCore core(platform_, options);
    ASSERT_TRUE(core.Start().ok());
    std::vector<Response> responses = serve_all(core);
    for (size_t i = 0; i < units.size(); ++i) {
      EXPECT_EQ(responses[i].status, kStatusOk) << units[i] << ": " << responses[i].error;
      EXPECT_EQ(responses[i].outcome, buggy(units[i]) ? "COUNTEREXAMPLE" : "VERIFIED")
          << units[i];
    }
    ASSERT_TRUE(core.FinishDrain().ok());
  }
  verifier::VerdictStore written;
  verifier::VerdictStore::LoadResult load =
      written.Load(verifier::VerdictStorePath(dir), verifier::kVerifierEpoch);
  EXPECT_TRUE(load.note.empty()) << load.note;
  EXPECT_EQ(written.size(), 32u);

  // A restarted core on the same directory, with no journal to replay,
  // answers every PASS from the store and still refutes the study bugs.
  ServerCore restarted(platform_, options);
  ASSERT_TRUE(restarted.Start().ok());
  std::vector<Response> responses = serve_all(restarted);
  for (size_t i = 0; i < units.size(); ++i) {
    EXPECT_EQ(responses[i].status, kStatusOk) << units[i] << ": " << responses[i].error;
    EXPECT_EQ(responses[i].outcome, buggy(units[i]) ? "COUNTEREXAMPLE" : "CACHED_SAFE")
        << units[i];
  }
  DaemonStats stats = restarted.StatsSnapshot();
  EXPECT_EQ(stats.cached_safe, 32);
  EXPECT_TRUE(restarted.FinishDrain().ok());
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
