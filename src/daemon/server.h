// ServerCore: the transport-independent engine of the `icarusd` verification
// service.
//
// One ServerCore owns the warm state a long-lived service exists to keep:
// the loaded Platform, a verifier::Session (solver-result cache, verdict
// store, journal and per-unit path, as `verify-all` uses them) and a warm
// verdict view (generator → last decisive verdict this process served).
// Transports (the Unix-socket loop in tools/icarusd_main.cc, in-process
// tests) parse requests off the wire and call the synchronous, thread-safe
// `Execute()` — one call per request, which verifies on the calling thread
// and returns the response. Each connection thread therefore paces its own
// client (responses per connection stay in request order) while independent
// connections proceed concurrently, at most `jobs` of them verifying.
//
// Request lifecycle inside Execute():
//
//   draining? ──────────────▶ SHUTTING_DOWN
//   warm view hit ──────────▶ OK (cached=true; no work, no waiting)
//   must wait, queue full? ─▶ OVERLOADED (+retry_after_ms)
//   take a turn, wait ──────▶ a slot, in arrival order; verify inside the
//                             containment boundary, stopping at the next
//                             path once the request's deadline passes or
//                             the drain begins → INCONCLUSIVE
//
// Failure domains: a request that throws (a genuine bug or an injected
// fault at daemon-dispatch) burns only itself — the session catches at the
// boundary and the request is answered INTERNAL_ERROR; the next request for
// the same target runs normally. Drain (BeginDrain/FinishDrain) stops
// admission, answers waiting requests SHUTTING_DOWN, cancels running ones,
// waits for both counts to reach zero, then closes the session, saving the
// persistent stores. The journal is fsync'd per record at append time, so a
// crash loses at most the record being written. A daemon restarted on the
// journal restores its PASSes by the verdict store's rule (CACHED_SAFE while
// the unit fingerprint, budget and epoch match) and verifies everything else
// again.
#ifndef ICARUS_DAEMON_SERVER_H_
#define ICARUS_DAEMON_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/daemon/protocol.h"
#include "src/platform/platform.h"
#include "src/support/status.h"
#include "src/sym/solver.h"

namespace icarus {
class Cancellation;
}  // namespace icarus

namespace icarus::verifier {
struct GeneratorResult;
class Session;
}  // namespace icarus::verifier

namespace icarus::daemon {

struct DaemonOptions {
  int jobs = 1;  // Verify requests running at once, each on its caller's thread.
  // Bound on verify requests waiting for one of the `jobs` slots; past it a
  // request is shed with OVERLOADED, so the waiting connection threads stay
  // bounded however many clients pile on. A request that finds a free slot
  // and no earlier one waiting does not wait, so 0 still serves one request
  // per free slot.
  int queue_limit = 32;
  // Deadline applied to requests that do not carry their own; 0 = none.
  double default_deadline_ms = 0;
  // Per-query solver decision budget for every verification this daemon runs
  // (the budget is part of the verdict-store key, so it is service config,
  // not per-request — two clients asking under different budgets would
  // defeat the warm view).
  sym::Solver::Limits solver_limits;
  // When non-empty, every verdict that runs is appended (fsync'd) here, and
  // the PASSes it already holds answer CACHED_SAFE, as store hits do.
  std::string journal_path;
  // Persistent stores under cache_dir (verdict store + solver cache), as in
  // `verify-all --incremental`. The daemon takes the advisory cache lock; if
  // another process holds it the daemon degrades to a read-only cache view.
  bool incremental = false;
  std::string cache_dir = ".icarus-cache";
  int64_t cache_max_mb = 64;
};

// Point-in-time service counters, exported via the `stats` op.
struct DaemonStats {
  int64_t requests = 0;        // Every Execute() call.
  int64_t served = 0;          // Verify requests that ran to a verdict.
  int64_t warm_hits = 0;       // Served from the warm verdict view.
  int64_t cached_safe = 0;     // Served from the persistent verdict store.
  int64_t shed_queue = 0;      // OVERLOADED: bounded queue full.
  int64_t rejected_draining = 0;
  int64_t bad_requests = 0;
  int64_t internal_errors = 0;     // Contained crashes.
  int64_t deadline_cancelled = 0;  // Requests degraded to INCONCLUSIVE.
  int queue_depth = 0;
  int in_flight = 0;
  bool read_only_cache = false;
  int64_t store_entries = 0;   // Persistent verdict-store size.
  // Nearest-rank percentiles of the service times of the last 256 verifies
  // that ran (warm hits and CACHED_SAFE answers run nothing and add no
  // sample); -1 before the first.
  double p50_ms = -1;
  double p99_ms = -1;

  std::string ToJson() const;
};

class ServerCore {
 public:
  // `platform` must outlive the core.
  ServerCore(const platform::Platform* platform, const DaemonOptions& options);
  ~ServerCore();

  ServerCore(const ServerCore&) = delete;
  ServerCore& operator=(const ServerCore&) = delete;

  // Opens the verification session (persistent stores under the advisory
  // cache lock, the journal read and opened for appending). A missing
  // journal means a cold start; a corrupt one fails startup. Store problems
  // degrade with a note.
  Status Start();

  // Serves one request on the calling thread and returns its response.
  // Thread-safe; call from any number of transport threads.
  Response Execute(const Request& request);

  // Stops admitting verify work: waiting requests are answered
  // SHUTTING_DOWN at once, running ones stop at their next path (their
  // callers see INCONCLUSIVE). Idempotent; callable from a signal-driven
  // transport thread.
  void BeginDrain();

  // Waits until no request runs or waits, then closes the session, which
  // durably saves the persistent stores. Call after BeginDrain once the
  // transport has stopped feeding Execute. Returns the drain error (store
  // save failures, injected daemon-drain fault).
  Status FinishDrain();

  bool draining() const { return draining_.load(std::memory_order_acquire); }
  // Raised by the transport once it has written the reply to a `shutdown`
  // op (Execute answers the op but leaves the flag alone); the transport
  // loop polls it and drains every connection when it is set.
  void RequestShutdown() { shutdown_requested_.store(true, std::memory_order_release); }
  bool shutdown_requested() const {
    return shutdown_requested_.load(std::memory_order_acquire);
  }

  DaemonStats StatsSnapshot() const;
  // Diagnostics: store-load notes, read-only degradation and the first
  // journal append failure; the transport logs them.
  std::vector<std::string> notes() const;

 private:
  // Runs one admitted verify request to a response through the session.
  Response ServeVerify(const Request& request, const Cancellation& cancel);
  Response ExecuteVerify(const Request& request);
  // Puts a decisive row (VERIFIED, COUNTEREXAMPLE, CACHED_SAFE) into the
  // warm view; other rows are verified again on the next request. Requires
  // mu_.
  void KeepWarm(const verifier::GeneratorResult& result);

  const platform::Platform* platform_;
  DaemonOptions options_;

  // Serving state. `mu_` guards the turns, the running and waiting counts,
  // the warm view, the counters and the service times; verification itself
  // runs outside the lock, and the session locks its own state. `cv_` wakes waiting requests
  // when a slot frees or the drain begins, and FinishDrain when the counts
  // fall.
  mutable std::mutex mu_;
  std::condition_variable cv_;
  uint64_t next_turn_ = 0;  // Handed to the next admitted request.
  uint64_t head_turn_ = 0;  // The oldest turn still waiting for a slot.
  int running_ = 0;         // Requests holding a slot (at most jobs).
  int waiting_ = 0;         // Admitted requests without one (at most queue_limit).
  std::map<std::string, Response> warm_;  // Decisive verdicts only.
  std::atomic<bool> draining_{false};  // Every running request's cancel flag.
  std::atomic<bool> shutdown_requested_{false};
  bool started_ = false;

  // Service counters (guarded by mu_); StatsSnapshot fills in the counts
  // and the percentiles.
  DaemonStats counters_;
  // The last 256 service times in ms (kServiceTimeWindow), the oldest
  // overwritten at service_next_.
  std::vector<double> service_ms_;
  size_t service_next_ = 0;

  // Opened by Start, closed by FinishDrain; kept for stats and notes.
  std::unique_ptr<verifier::Session> session_;
};

// Serves one accepted connection: a request line in, a response line out, in
// order, until the peer closes or the daemon drains. Every fault here is
// contained to this connection. A `shutdown` request raises the core's
// shutdown flag only after its reply is written. A line longer than
// net::LineReader::kMaxLineBytes is answered BAD_REQUEST once and ends the
// connection. Closes `fd` on exit.
void ServeConnection(ServerCore* core, int fd);

}  // namespace icarus::daemon

#endif  // ICARUS_DAEMON_SERVER_H_
