// icarusd — the long-lived Icarus verification service.
//
// Holds the loaded platform, the shared solver-result cache, the persistent
// verdict store, and a warm verdict view in memory, and serves verify
// requests over newline-delimited JSON on a Unix-domain socket (see
// src/daemon/protocol.h for the wire format and src/daemon/server.h for the
// serving semantics: each request verifies on its connection's thread, at
// most --jobs at once, behind a bounded queue; per-request deadlines;
// graceful drain).
//
// Lifecycle: SIGTERM/SIGINT (or a `shutdown` op) begins a graceful drain —
// the daemon stops accepting, answers waiting requests SHUTTING_DOWN,
// cancels running work to INCONCLUSIVE, fsyncs and closes
// the journal, saves the persistent stores, and exits 0. A crashed daemon
// loses at most the verdict being written; the next instance on the same
// journal answers its PASSes CACHED_SAFE while their units are unchanged
// and verifies everything else again.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <list>
#include <mutex>
#include <string>
#include <thread>

#include <sys/socket.h>
#include <unistd.h>

#include "src/daemon/server.h"
#include "src/support/failpoint.h"
#include "src/support/net.h"

namespace {

using icarus::daemon::ServerCore;

volatile std::sig_atomic_t g_signal = 0;

void OnSignal(int) { g_signal = 1; }

int Usage() {
  std::fprintf(
      stderr,
      "usage: icarusd [flags]\n"
      "\n"
      "Serves verify requests over newline-delimited JSON on a Unix-domain\n"
      "socket. Drive it with `icarus client --socket PATH <op>`.\n"
      "\n"
      "Flags:\n"
      "  --socket PATH    Socket path (default: ./icarusd.sock).\n"
      "  --jobs N         Verify requests run at once, each on its connection's\n"
      "                   thread (default 1).\n"
      "  --queue N        Verify requests that may wait for a job; beyond it\n"
      "                   requests are shed with OVERLOADED (default 32). A\n"
      "                   request that finds a job free never waits, so 0\n"
      "                   serves what the jobs can take and sheds the rest.\n"
      "  --deadline-ms D  Default per-request deadline; past it the request\n"
      "                   degrades to INCONCLUSIVE (default: none).\n"
      "  --max-decisions N  Per-query solver decision budget; exhaustion\n"
      "                   degrades that request to INCONCLUSIVE.\n"
      "  --journal FILE   Append every verdict that runs (fsync'd). A PASS it\n"
      "                   holds answers CACHED_SAFE while the unit fingerprint\n"
      "                   and budget match; other units verify again.\n"
      "  --incremental    Use the persistent stores under --cache-dir; if\n"
      "                   another process holds the cache lock, degrade to a\n"
      "                   read-only cache view.\n"
      "  --cache-dir D    Store directory (default: .icarus-cache).\n"
      "  --cache-max-mb N Persisted solver-cache size bound (default 64).\n"
      "  --fail SPEC      Arm a fail-point (see `icarus verify-all --help`).\n"
      "                   Unknown sites are a startup error. Repeatable.\n"
      "\n"
      "Service counters and the p50/p99 service time of the latest verifies:\n"
      "`icarus client stats` or `icarus top`. Each verdict's stage costs\n"
      "(gen_s, interp_s, solve_s) are in its --journal row.\n"
      "\n"
      "Exit codes: 0 clean drain, 1 drain error, 2 startup/usage error.\n");
  return 2;
}

int RunDaemon(int argc, char** argv) {
  std::string socket_path = "./icarusd.sock";
  icarus::daemon::DaemonOptions options;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--help") {
      Usage();
      return 0;
    } else if (flag == "--socket" && i + 1 < argc) {
      socket_path = argv[++i];
    } else if (flag == "--jobs" && i + 1 < argc) {
      options.jobs = std::atoi(argv[++i]);
    } else if (flag == "--queue" && i + 1 < argc) {
      options.queue_limit = std::atoi(argv[++i]);
      if (options.queue_limit < 0) {
        std::fprintf(stderr, "--queue: want a count >= 0\n");
        return Usage();
      }
    } else if (flag == "--deadline-ms" && i + 1 < argc) {
      options.default_deadline_ms = std::atof(argv[++i]);
    } else if (flag == "--max-decisions" && i + 1 < argc) {
      options.solver_limits.max_decisions = std::atoll(argv[++i]);
    } else if (flag == "--journal" && i + 1 < argc) {
      options.journal_path = argv[++i];
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
      std::fprintf(stderr, "unknown icarusd flag: %s\n", flag.c_str());
      return Usage();
    }
  }

  auto loaded = icarus::platform::Platform::Load();
  if (!loaded.ok()) {
    std::fprintf(stderr, "platform load failed: %s\n", loaded.status().message().c_str());
    return 2;
  }
  auto platform = loaded.take();

  ServerCore core(platform.get(), options);
  icarus::Status started = core.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "icarusd: %s\n", started.message().c_str());
    return 2;
  }
  for (const std::string& note : core.notes()) {
    std::fprintf(stderr, "icarusd: note: %s\n", note.c_str());
  }

  icarus::StatusOr<int> listener = icarus::net::ListenUnix(socket_path);
  if (!listener.ok()) {
    std::fprintf(stderr, "icarusd: %s\n", listener.status().message().c_str());
    return 2;
  }
  int listen_fd = listener.value();

  struct sigaction sa {};
  sa.sa_handler = OnSignal;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);

  std::fprintf(stderr, "icarusd: serving on %s (jobs %d, queue %d)\n", socket_path.c_str(),
               options.jobs, options.queue_limit);

  // One entry per connection thread. Each marks itself done as it returns,
  // and the accept loop, which wakes at least every 100 ms, joins the done
  // ones, so a long-lived daemon holds only its open connections' threads.
  struct Connection {
    int fd = -1;
    bool done = false;  // Guarded by conn_mu.
    std::thread thread;
  };
  std::mutex conn_mu;
  std::list<Connection> conns;
  auto join_finished = [&] {
    // A done thread takes conn_mu no more, so joining under it cannot block
    // on it.
    std::lock_guard<std::mutex> lock(conn_mu);
    conns.remove_if([](Connection& c) {
      if (!c.done) {
        return false;
      }
      c.thread.join();
      return true;
    });
  };

  while (g_signal == 0 && !core.shutdown_requested()) {
    join_finished();
    int ready = icarus::net::PollReadable(listen_fd, 100);
    if (ready < 0) {
      break;
    }
    if (ready == 0) {
      continue;  // Timeout or EINTR: re-check the shutdown flags.
    }
    int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      continue;
    }
    try {
      ICARUS_FAILPOINT(icarus::failpoint::kDaemonAccept);
    } catch (const std::exception&) {
      // An accept fault burns the one connection being accepted; the
      // listener and every established connection keep going.
      icarus::net::CloseFd(fd);
      continue;
    }
    std::lock_guard<std::mutex> lock(conn_mu);
    Connection& conn = conns.emplace_back();
    conn.fd = fd;
    conn.thread = std::thread([&core, &conn_mu, &conn] {
      ServeConnection(&core, conn.fd);
      std::lock_guard<std::mutex> lock(conn_mu);
      conn.done = true;
    });
  }

  // Graceful drain: stop accepting, answer waiting requests, cancel running
  // ones, wake every connection thread blocked in read, then persist.
  std::fprintf(stderr, "icarusd: draining (%s)\n",
               g_signal != 0 ? "signal" : "shutdown requested");
  core.BeginDrain();
  icarus::net::CloseFd(listen_fd);
  {
    std::lock_guard<std::mutex> lock(conn_mu);
    for (const Connection& conn : conns) {
      if (!conn.done) {
        icarus::net::ShutdownFd(conn.fd);
      }
    }
  }
  for (Connection& conn : conns) {
    conn.thread.join();
  }
  icarus::Status drained = core.FinishDrain();
  ::unlink(socket_path.c_str());

  if (!drained.ok()) {
    std::fprintf(stderr, "icarusd: drain error: %s\n", drained.message().c_str());
    return 1;
  }
  std::fprintf(stderr, "icarusd: drained cleanly\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return RunDaemon(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "icarusd: internal error: %s\n", e.what());
    return 2;
  }
}
