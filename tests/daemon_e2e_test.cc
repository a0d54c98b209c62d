// End-to-end daemon suite against the real `icarusd` binary: fork/exec the
// service, speak the NDJSON protocol over its Unix socket, and prove the
// acceptance criteria the in-process suites cannot — a SIGTERM delivered in
// the middle of a request storm drains to exit code 0 with the journal
// fsync'd, and a daemon restarted on that journal answers its PASS
// CACHED_SAFE and verifies its counterexample again. Also exercises the `icarus client` and `icarus top`
// subcommands as real subprocesses, and the incremental store that the
// daemon and `icarus verify-all --incremental` share.
#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include "src/daemon/protocol.h"
#include "src/support/net.h"
#include "src/verifier/journal.h"

#ifdef ICARUS_DAEMON_PATH

namespace icarus::daemon {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// Forks and execs icarusd, returning its pid. The daemon logs to stderr;
// tests that care redirect it.
pid_t SpawnDaemon(const std::vector<std::string>& args) {
  pid_t pid = ::fork();
  if (pid != 0) {
    return pid;
  }
  std::vector<char*> argv;
  static const std::string binary = ICARUS_DAEMON_PATH;
  argv.push_back(const_cast<char*>(binary.c_str()));
  for (const std::string& arg : args) {
    argv.push_back(const_cast<char*>(arg.c_str()));
  }
  argv.push_back(nullptr);
  ::execv(binary.c_str(), argv.data());
  std::perror("execv icarusd");
  std::_Exit(127);
}

// Polls until the daemon answers a ping on `socket` (it unlinks and rebinds
// the socket at startup, so waiting for the file alone is not enough).
bool AwaitReady(const std::string& socket, int timeout_ms = 30000) {
  for (int waited = 0; waited < timeout_ms; waited += 20) {
    StatusOr<int> fd = net::ConnectUnix(socket);
    if (fd.ok()) {
      Request ping;
      ping.op = kOpPing;
      if (net::WriteLine(fd.value(), ping.ToJsonLine()).ok()) {
        net::LineReader reader(fd.value());
        std::string line, err;
        if (reader.ReadLine(&line, &err) == net::LineReader::Result::kLine) {
          net::CloseFd(fd.value());
          Response resp;
          return ParseResponse(line, &resp).ok() && resp.status == kStatusOk;
        }
      }
      net::CloseFd(fd.value());
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return false;
}

// One request/response round trip on a fresh connection.
Response RoundTrip(const std::string& socket, const Request& req) {
  Response resp;
  StatusOr<int> fd = net::ConnectUnix(socket);
  if (!fd.ok()) {
    resp.status = "CONNECT_FAILED";
    resp.error = fd.status().message();
    return resp;
  }
  Status sent = net::WriteLine(fd.value(), req.ToJsonLine());
  if (!sent.ok()) {
    net::CloseFd(fd.value());
    resp.status = "WRITE_FAILED";
    resp.error = sent.message();
    return resp;
  }
  net::LineReader reader(fd.value());
  std::string line, err;
  net::LineReader::Result got = reader.ReadLine(&line, &err);
  net::CloseFd(fd.value());
  if (got != net::LineReader::Result::kLine) {
    // EOF mid-request is a legal fate during a drain storm: the daemon shut
    // the connection down rather than leave the client hanging.
    resp.status = "DISCONNECTED";
    resp.error = err;
    return resp;
  }
  Status parsed = ParseResponse(line, &resp);
  if (!parsed.ok()) {
    resp.status = "UNPARSEABLE";
    resp.error = parsed.message();
  }
  return resp;
}

Request VerifyReq(const std::string& generator) {
  Request req;
  req.op = kOpVerify;
  req.generator = generator;
  return req;
}

// Reaps `pid` and returns its exit status, or -1 on waitpid failure /
// abnormal termination.
int WaitForExit(pid_t pid) {
  int status = 0;
  if (::waitpid(pid, &status, 0) != pid) {
    return -1;
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(DaemonE2E, ServesVerdictsOverTheSocketAndShutsDownOnRequest) {
  std::string socket = TempPath("e2e_basic.sock");
  pid_t pid = SpawnDaemon({"--socket", socket, "--jobs", "2"});
  ASSERT_GT(pid, 0);
  ASSERT_TRUE(AwaitReady(socket)) << "daemon never became ready";

  Response ok = RoundTrip(socket, VerifyReq("tryAttachCompareInt32"));
  EXPECT_EQ(ok.status, kStatusOk) << ok.error;
  EXPECT_EQ(ok.outcome, "VERIFIED");
  Response refuted = RoundTrip(socket, VerifyReq("bug1451976_buggy"));
  EXPECT_EQ(refuted.outcome, "COUNTEREXAMPLE");
  // The repeat is warm.
  Response warm = RoundTrip(socket, VerifyReq("tryAttachCompareInt32"));
  EXPECT_TRUE(warm.cached);

  // Several requests pipelined on ONE connection come back in order.
  {
    StatusOr<int> fd = net::ConnectUnix(socket);
    ASSERT_TRUE(fd.ok()) << fd.status().message();
    for (int i = 0; i < 3; ++i) {
      Request req = VerifyReq("tryAttachInt32Add");
      req.id = "pipelined-" + std::to_string(i);
      ASSERT_TRUE(net::WriteLine(fd.value(), req.ToJsonLine()).ok());
    }
    net::LineReader reader(fd.value());
    for (int i = 0; i < 3; ++i) {
      std::string line, err;
      ASSERT_EQ(reader.ReadLine(&line, &err), net::LineReader::Result::kLine) << err;
      Response resp;
      ASSERT_TRUE(ParseResponse(line, &resp).ok());
      EXPECT_EQ(resp.id, "pipelined-" + std::to_string(i));
      EXPECT_EQ(resp.outcome, "VERIFIED");
    }
    net::CloseFd(fd.value());
  }

  Response stats = RoundTrip(socket, [] {
    Request req;
    req.op = kOpStats;
    return req;
  }());
  EXPECT_EQ(stats.status, kStatusOk);
  EXPECT_NE(stats.stats_json.find("\"warm_hits\":"), std::string::npos) << stats.stats_json;

  // A protocol-level bad request gets a diagnostic, not a dropped connection.
  {
    StatusOr<int> fd = net::ConnectUnix(socket);
    ASSERT_TRUE(fd.ok());
    ASSERT_TRUE(net::WriteLine(fd.value(), "{\"op\":\"frobnicate\"}").ok());
    net::LineReader reader(fd.value());
    std::string line, err;
    ASSERT_EQ(reader.ReadLine(&line, &err), net::LineReader::Result::kLine) << err;
    Response resp;
    ASSERT_TRUE(ParseResponse(line, &resp).ok());
    EXPECT_EQ(resp.status, kStatusBadRequest);
    net::CloseFd(fd.value());
  }

  // The shutdown op drains the daemon to exit 0.
  Response bye = RoundTrip(socket, [] {
    Request req;
    req.op = kOpShutdown;
    return req;
  }());
  EXPECT_EQ(bye.status, kStatusOk);
  EXPECT_EQ(WaitForExit(pid), 0);
}

// The reply to `shutdown` must reach the client. icarusd's accept loop
// checks the shutdown flag every 100 ms and then shuts every connection
// down, the requester's included; the stall holds each connection thread for
// 500 ms between executing a request and writing its reply, so a flag raised
// before the write loses the reply every time.
TEST(DaemonE2E, ShutdownReplyIsWrittenBeforeTheDrainStarts) {
  std::string socket = TempPath("e2e_shutdown_reply.sock");
  pid_t pid = SpawnDaemon(
      {"--socket", socket, "--jobs", "1", "--fail", "after=daemon-respond:0,action=stall"});
  ASSERT_GT(pid, 0);
  ASSERT_TRUE(AwaitReady(socket)) << "daemon never became ready";
  Response bye = RoundTrip(socket, [] {
    Request req;
    req.op = kOpShutdown;
    req.id = "bye";
    return req;
  }());
  EXPECT_EQ(bye.status, kStatusOk) << bye.error;
  EXPECT_EQ(bye.id, "bye");
  EXPECT_EQ(WaitForExit(pid), 0);
}

// The acceptance scenario: SIGTERM lands in the middle of a request storm.
// The daemon must stop accepting, resolve every in-flight and queued request
// (verdict, INCONCLUSIVE, SHUTTING_DOWN, or a deliberate disconnect), fsync
// its journal, and exit 0 — and a daemon restarted on that journal must
// restore the journaled PASS and refute the buggy unit again.
TEST(DaemonE2E, SigtermMidStormDrainsToExitZeroAndJournalReplays) {
  std::string socket = TempPath("e2e_drain.sock");
  std::string journal = TempPath("e2e_drain.jsonl");
  std::remove(journal.c_str());

  pid_t pid = SpawnDaemon({"--socket", socket, "--jobs", "2", "--journal", journal});
  ASSERT_GT(pid, 0);
  ASSERT_TRUE(AwaitReady(socket)) << "daemon never became ready";

  // Seed two verdicts we can check after the restart.
  ASSERT_EQ(RoundTrip(socket, VerifyReq("tryAttachCompareInt32")).outcome, "VERIFIED");
  ASSERT_EQ(RoundTrip(socket, VerifyReq("bug1451976_buggy")).outcome, "COUNTEREXAMPLE");

  // Storm: 24 client threads hammering fresh connections while the signal
  // lands. Every thread must come back with an honest disposition.
  const std::vector<std::string> pool = {
      "tryAttachInt32Add",     "tryAttachInt32Sub",   "tryAttachInt32Mul",
      "tryAttachInt32Div",     "tryAttachObjectLength", "tryAttachStringLength",
      "tryAttachDenseElement", "tryAttachCompareString",
  };
  std::vector<std::string> statuses(24);
  std::vector<std::thread> clients;
  for (int i = 0; i < 24; ++i) {
    clients.emplace_back([&, i] {
      Response resp = RoundTrip(socket, VerifyReq(pool[i % pool.size()]));
      statuses[i] = resp.status;
    });
  }
  // Let the storm develop, then pull the plug mid-flight.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  ASSERT_EQ(::kill(pid, SIGTERM), 0);
  for (std::thread& t : clients) {
    t.join();
  }
  for (const std::string& status : statuses) {
    bool honest = status == kStatusOk || status == kStatusOverloaded ||
                  status == kStatusShuttingDown || status == "DISCONNECTED" ||
                  status == "CONNECT_FAILED" || status == "WRITE_FAILED";
    EXPECT_TRUE(honest) << "status '" << status << "'";
  }

  // Graceful drain: exit code 0, socket unlinked, journal intact.
  EXPECT_EQ(WaitForExit(pid), 0);
  struct stat st;
  EXPECT_NE(::stat(socket.c_str(), &st), 0) << "socket file survived the drain";

  // The journal the daemon fsync'd must be strictly parseable and contain
  // the seeded verdicts.
  {
    StatusOr<std::vector<verifier::JournalRecord>> records =
        verifier::ReadJournal(journal);
    ASSERT_TRUE(records.ok()) << records.status().message();
    bool verified = false;
    bool refuted = false;
    for (const verifier::JournalRecord& rec : records.value()) {
      if (rec.generator == "tryAttachCompareInt32" && rec.outcome == "VERIFIED") {
        verified = true;
      }
      if (rec.generator == "bug1451976_buggy" && rec.outcome == "COUNTEREXAMPLE") {
        refuted = true;
      }
    }
    EXPECT_TRUE(verified);
    EXPECT_TRUE(refuted);
  }

  // Restart on the same journal: the journaled PASS answers CACHED_SAFE
  // without running, and the refuted unit is verified again.
  pid_t second = SpawnDaemon({"--socket", socket, "--jobs", "1", "--journal", journal});
  ASSERT_GT(second, 0);
  ASSERT_TRUE(AwaitReady(socket)) << "restarted daemon never became ready";
  Response verified = RoundTrip(socket, VerifyReq("tryAttachCompareInt32"));
  EXPECT_EQ(verified.outcome, "CACHED_SAFE");
  EXPECT_TRUE(verified.cached);
  Response refuted = RoundTrip(socket, VerifyReq("bug1451976_buggy"));
  EXPECT_EQ(refuted.outcome, "COUNTEREXAMPLE");
  EXPECT_FALSE(refuted.cached);

  ASSERT_EQ(::kill(second, SIGTERM), 0);
  EXPECT_EQ(WaitForExit(second), 0);
}

// Startup validation: a typo'd --fail spec must refuse to start (exit 2)
// rather than serve with a silently-dead fault site.
TEST(DaemonE2E, RejectsUnknownFailpointSiteAtStartup) {
  std::string socket = TempPath("e2e_badfail.sock");
  pid_t pid = SpawnDaemon({"--socket", socket, "--fail", "at=daemon-dispach:1"});
  ASSERT_GT(pid, 0);
  EXPECT_EQ(WaitForExit(pid), 2);
}

// The kB figure of a `Key:` line in /proc/<pid>/status, or -1.
long StatusKb(pid_t pid, const std::string& key) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind(key + ":", 0) == 0) {
      return std::strtol(line.c_str() + key.size() + 1, nullptr, 10);
    }
  }
  return -1;
}

// A finished connection gives its thread back: the accept loop, which wakes
// at least every 100 ms, joins it. An unjoined thread keeps its stack mapped
// (8 MiB by default), so 200 sequential connections would grow the daemon's
// virtual size by about 1.6 GB; joined, by the stacks the C library caches
// for reuse. The daemon runs with one malloc arena: glibc gives a thread
// that starts while another still runs an arena of its own, which reserves
// 64 MiB of address space for good, so the figure would otherwise move by
// how closely this loop's connections overlap, not by the stacks.
TEST(DaemonE2E, FinishedConnectionsAreJoined) {
  std::string socket = TempPath("e2e_conn_threads.sock");
  ASSERT_EQ(::setenv("MALLOC_ARENA_MAX", "1", 1), 0);
  pid_t pid = SpawnDaemon({"--socket", socket, "--jobs", "1"});
  ::unsetenv("MALLOC_ARENA_MAX");
  ASSERT_GT(pid, 0);
  ASSERT_TRUE(AwaitReady(socket)) << "daemon never became ready";
  const long before_kb = StatusKb(pid, "VmSize");
  ASSERT_GT(before_kb, 0);
  Request ping;
  ping.op = kOpPing;
  for (int i = 0; i < 200; ++i) {
    ASSERT_EQ(RoundTrip(socket, ping).status, kStatusOk) << "ping " << i;
  }
  // The last connections may still be closing; give the loop a few wakes.
  long after_kb = StatusKb(pid, "VmSize");
  for (int waited_ms = 0; after_kb - before_kb >= 64 * 1024 && waited_ms < 2000;
       waited_ms += 20) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    after_kb = StatusKb(pid, "VmSize");
  }
  EXPECT_LT(after_kb - before_kb, 64 * 1024) << before_kb << " kB -> " << after_kb << " kB";
  ASSERT_EQ(::kill(pid, SIGTERM), 0);
  EXPECT_EQ(WaitForExit(pid), 0);
}

// The flags of the removed metrics registry and slow-request log are
// unknown flags now, and so is a negative queue bound: each is a usage
// error at startup.
TEST(DaemonE2E, RemovedAndInvalidFlagsAreUsageErrors) {
  std::string socket = TempPath("e2e_badflag.sock");
  const std::vector<std::vector<std::string>> cases = {
      {"--obs"}, {"--metrics", "m.prom"}, {"--slow-ms", "5"}, {"--slow-log", "slow.jsonl"},
      {"--queue", "-1"}};
  for (const std::vector<std::string>& flags : cases) {
    std::vector<std::string> args = {"--socket", socket};
    args.insert(args.end(), flags.begin(), flags.end());
    pid_t pid = SpawnDaemon(args);
    ASSERT_GT(pid, 0);
    EXPECT_EQ(WaitForExit(pid), 2) << flags[0];
  }
}

#ifdef ICARUS_CLI_PATH
TEST(DaemonE2E, CliClientSubcommandRoundTrips) {
  std::string socket = TempPath("e2e_cli.sock");
  pid_t pid = SpawnDaemon({"--socket", socket, "--jobs", "1"});
  ASSERT_GT(pid, 0);
  ASSERT_TRUE(AwaitReady(socket)) << "daemon never became ready";

  const std::string cli = ICARUS_CLI_PATH;
  std::string ping = cli + " client --socket " + socket + " ping >/dev/null";
  EXPECT_EQ(std::system(ping.c_str()), 0) << ping;
  std::string verify =
      cli + " client --socket " + socket + " verify tryAttachCompareInt32 >/dev/null";
  EXPECT_EQ(std::system(verify.c_str()), 0) << verify;
  // A refuted study bug is the EXPECTED outcome for a _buggy target; the
  // client exits 0 on expected verdicts.
  std::string buggy = cli + " client --socket " + socket + " verify bug1451976_buggy >/dev/null";
  EXPECT_EQ(std::system(buggy.c_str()), 0) << buggy;
  std::string stats = cli + " client --socket " + socket + " stats >/dev/null";
  EXPECT_EQ(std::system(stats.c_str()), 0) << stats;
  // The stock client against a default daemon covers the whole platform:
  // one serial connection is never shed, so every unit gets its verdict.
  std::string all = cli + " client --socket " + socket + " verify-all >/dev/null";
  EXPECT_EQ(std::system(all.c_str()), 0) << all;
  // shutdown drains the daemon.
  std::string bye = cli + " client --socket " + socket + " shutdown >/dev/null";
  EXPECT_EQ(std::system(bye.c_str()), 0) << bye;
  EXPECT_EQ(WaitForExit(pid), 0);
}

std::string Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// The daemon and `verify-all --incremental` keep one store format under
// --cache-dir: each warms from the stores the other wrote.
TEST(DaemonE2E, DaemonAndVerifyAllShareTheIncrementalStore) {
  const std::string cli = ICARUS_CLI_PATH;
  const std::string socket = TempPath("e2e_store.sock");
  const std::string out = TempPath("e2e_store.out");
  const std::string from_daemon = TempPath("e2e_store_daemon");
  const std::string from_batch = TempPath("e2e_store_batch");
  std::filesystem::remove_all(from_daemon);
  std::filesystem::remove_all(from_batch);
  Request stats;
  stats.op = kOpStats;

  // The daemon verifies the whole platform and saves the store at drain...
  pid_t pid = SpawnDaemon(
      {"--socket", socket, "--jobs", "4", "--incremental", "--cache-dir", from_daemon});
  ASSERT_GT(pid, 0);
  ASSERT_TRUE(AwaitReady(socket)) << "daemon never became ready";
  std::string cmd = cli + " client --socket " + socket + " verify-all >/dev/null";
  EXPECT_EQ(std::system(cmd.c_str()), 0) << cmd;
  cmd = cli + " client --socket " + socket + " shutdown >/dev/null";
  EXPECT_EQ(std::system(cmd.c_str()), 0) << cmd;
  ASSERT_EQ(WaitForExit(pid), 0);
  // ...and verify-all answers every PASS from it.
  cmd = cli + " verify-all --incremental --cache-dir " + from_daemon + " > " + out + " 2>&1";
  EXPECT_EQ(std::system(cmd.c_str()), 0) << cmd << "\n" << Slurp(out);
  EXPECT_NE(Slurp(out).find("32 cached safe"), std::string::npos) << Slurp(out);

  // The other way round: verify-all writes, a fresh daemon warms from it.
  cmd = cli + " verify-all --incremental --cache-dir " + from_batch + " >/dev/null 2>&1";
  ASSERT_EQ(std::system(cmd.c_str()), 0) << cmd;
  pid = SpawnDaemon(
      {"--socket", socket, "--jobs", "4", "--incremental", "--cache-dir", from_batch});
  ASSERT_GT(pid, 0);
  ASSERT_TRUE(AwaitReady(socket)) << "daemon never became ready";
  cmd = cli + " client --socket " + socket + " verify-all > " + out;
  EXPECT_EQ(std::system(cmd.c_str()), 0) << cmd << "\n" << Slurp(out);
  Response counters = RoundTrip(socket, stats);
  EXPECT_NE(counters.stats_json.find("\"cached_safe\":32"), std::string::npos)
      << counters.stats_json;
  ASSERT_EQ(::kill(pid, SIGTERM), 0);
  EXPECT_EQ(WaitForExit(pid), 0);
}

// `icarus top` against one live daemon and one socket nobody listens on: the
// live one renders an OK row with latency quantiles, the missing one a dead
// row — never a dropped row or a failed run. A plain daemon serves the
// quantiles: they come with its `stats` op.
TEST(DaemonE2E, TopRendersLiveAndDeadDaemons) {
  std::string socket = TempPath("e2e_top.sock");
  pid_t pid = SpawnDaemon({"--socket", socket, "--jobs", "1"});
  ASSERT_GT(pid, 0);
  ASSERT_TRUE(AwaitReady(socket)) << "daemon never became ready";
  // One served verify puts a sample in the service-time window.
  ASSERT_EQ(RoundTrip(socket, VerifyReq("tryAttachCompareInt32")).outcome, "VERIFIED");

  std::string out = TempPath("e2e_top.out");
  std::string cmd = std::string(ICARUS_CLI_PATH) + " top --socket " + socket +
                    " --socket /nonexistent --iterations 2 --interval-ms 50 --no-clear > " +
                    out + " 2>&1";
  EXPECT_EQ(std::system(cmd.c_str()), 0) << cmd << "\n" << Slurp(out);
  std::string text = Slurp(out);
  EXPECT_NE(text.find("icarus top"), std::string::npos) << text;
  EXPECT_NE(text.find("P50(ms)"), std::string::npos) << text;
  EXPECT_NE(text.find("P99(ms)"), std::string::npos) << text;

  bool live_row = false;
  bool dead_row = false;
  std::istringstream lines(text);
  for (std::string line; std::getline(lines, line);) {
    std::istringstream fields(line);
    std::vector<std::string> cols;
    for (std::string col; fields >> col;) {
      cols.push_back(col);
    }
    if (cols.size() != 9) {
      continue;
    }
    if (cols[0] == "e2e_top" && cols[1] == kStatusOk) {
      // P50 and P99 are numbers, not the '-' of an empty window.
      live_row = std::strtod(cols[7].c_str(), nullptr) > 0 &&
                 std::strtod(cols[8].c_str(), nullptr) > 0;
    }
    if (cols[0] == "nonexistent" && cols[1] == "dead") {
      dead_row = true;
    }
  }
  EXPECT_TRUE(live_row) << text;
  EXPECT_TRUE(dead_row) << text;

  ASSERT_EQ(::kill(pid, SIGTERM), 0);
  EXPECT_EQ(WaitForExit(pid), 0);
}
#endif  // ICARUS_CLI_PATH

}  // namespace
}  // namespace icarus::daemon

#endif  // ICARUS_DAEMON_PATH
