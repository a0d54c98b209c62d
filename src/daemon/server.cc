#include "src/daemon/server.h"

#include <chrono>
#include <cstdio>
#include <exception>
#include <fstream>

#include "src/obs/json.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/support/cancel.h"
#include "src/support/failpoint.h"
#include "src/support/flat_json.h"
#include "src/support/net.h"
#include "src/support/str_util.h"
#include "src/support/timing.h"
#include "src/verifier/batch_verifier.h"
#include "src/verifier/session.h"

namespace icarus::daemon {

namespace {

// The response that serves one verdict row.
Response ResponseFromResult(const verifier::GeneratorResult& result) {
  Response resp;
  resp.status = kStatusOk;
  resp.generator = result.generator;
  resp.outcome = verifier::OutcomeName(result.outcome);
  resp.error = result.error;
  resp.cached = result.outcome == verifier::Outcome::kCachedSafe;
  resp.seconds = result.seconds;
  resp.paths = result.report.meta.paths_explored;
  resp.queries = result.report.meta.solver_queries;
  return resp;
}

// Per-op service-time histograms. The registry has no labels, so each op
// token gets its own instrument; the op set is fixed, so cardinality is
// bounded. The registry's Get* is idempotent per name.
obs::Histogram* OpHistogram(const std::string& op) {
  return obs::Registry::Global().GetHistogram(
      StrCat("icarus_daemon_op_", op, "_seconds"),
      StrCat("Service time of daemon '", op, "' ops"));
}

}  // namespace

std::string DaemonStats::ToJson() const {
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("requests").Int(requests);
  w.Key("served").Int(served);
  w.Key("warm_hits").Int(warm_hits);
  w.Key("cached_safe").Int(cached_safe);
  w.Key("shed_queue").Int(shed_queue);
  w.Key("rejected_draining").Int(rejected_draining);
  w.Key("bad_requests").Int(bad_requests);
  w.Key("internal_errors").Int(internal_errors);
  w.Key("deadline_cancelled").Int(deadline_cancelled);
  w.Key("queue_depth").Int(queue_depth);
  w.Key("in_flight").Int(in_flight);
  w.Key("read_only_cache").Bool(read_only_cache);
  w.Key("store_entries").Int(store_entries);
  w.EndObject();
  return w.Take();
}

ServerCore::ServerCore(const platform::Platform* platform, const DaemonOptions& options)
    : platform_(platform), options_(options) {
  if (options_.jobs <= 0) {
    options_.jobs = 1;
  }
}

ServerCore::~ServerCore() {
  if (started_) {
    BeginDrain();
    (void)FinishDrain();
  }
}

Status ServerCore::Start() {
  if (started_) {
    return Status::Error("ServerCore::Start called twice");
  }
  // The session's view of this service: its budget and persistence.
  verifier::BatchOptions session_options;
  session_options.solver_limits = options_.solver_limits;
  session_options.journal_path = options_.journal_path;
  session_options.incremental = options_.incremental;
  session_options.cache_dir = options_.cache_dir;
  session_options.cache_max_mb = options_.cache_max_mb;
  StatusOr<std::unique_ptr<verifier::Session>> session =
      verifier::Session::Open(platform_, session_options);
  if (!session.ok()) {
    return session.status();
  }
  session_ = session.take();
  started_ = true;
  return Status::Ok();
}

std::vector<std::string> ServerCore::notes() const {
  std::vector<std::string> out;
  if (session_ != nullptr) {
    out = session_->notes();
    // Verdicts stay correct and serving goes on; the durability gap shows.
    Status journaled = session_->journal_status();
    if (!journaled.ok()) {
      out.push_back(journaled.message());
    }
  }
  return out;
}

void ServerCore::KeepWarm(const verifier::GeneratorResult& result) {
  if (result.outcome != verifier::Outcome::kVerified &&
      result.outcome != verifier::Outcome::kRefuted &&
      result.outcome != verifier::Outcome::kCachedSafe) {
    return;
  }
  Response warm = ResponseFromResult(result);
  warm.cached = true;
  warm.seconds = 0;
  warm_[result.generator] = std::move(warm);
}

void ServerCore::UpdateGauges() {
  if (!obs::Enabled()) {
    return;
  }
  static obs::Gauge* depth = obs::Registry::Global().GetGauge(
      "icarus_daemon_queue_depth", "Verify requests waiting in the bounded queue");
  static obs::Gauge* in_flight = obs::Registry::Global().GetGauge(
      "icarus_daemon_in_flight", "Verify requests currently executing");
  std::lock_guard<std::mutex> lock(mu_);
  depth->Set(waiting_);
  in_flight->Set(running_);
}

Response ServerCore::Execute(const Request& request) {
  WallTimer op_timer;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++counters_.requests;
  }
  if (obs::Enabled()) {
    static obs::Counter* requests = obs::Registry::Global().GetCounter(
        "icarus_daemon_requests_total", "Requests executed by the daemon core");
    requests->Add(1);
  }

  Response resp = [&]() -> Response {
    Response out;
    out.id = request.id;
    if (request.op == kOpPing) {
      out.status = draining() ? kStatusShuttingDown : kStatusOk;
      return out;
    }
    if (request.op == kOpStats) {
      out.status = kStatusOk;
      out.stats_json = StatsSnapshot().ToJson();
      return out;
    }
    if (request.op == kOpMetrics) {
      out = ExecuteMetrics(request);
      out.id = request.id;
      return out;
    }
    if (request.op == kOpShutdown) {
      // The transport raises the flag once this reply is written
      // (RequestShutdown): a drain that starts earlier would shut the
      // requester's connection down under its reply.
      out.status = kStatusOk;
      return out;
    }
    out = ExecuteVerify(request);
    out.id = request.id;
    return out;
  }();

  if (obs::Enabled() && !request.op.empty()) {
    OpHistogram(request.op)->Observe(op_timer.ElapsedSeconds());
  }
  return resp;
}

Response ServerCore::ExecuteMetrics(const Request& request) {
  Response resp;
  resp.status = kStatusOk;
  UpdateGauges();  // Refresh occupancy gauges at scrape time.
  resp.metrics = request.format == "json" ? obs::Registry::Global().RenderJson()
                                          : obs::Registry::Global().RenderPrometheus();
  return resp;
}

void ServerCore::MaybeLogSlow(const Request& request,
                              const verifier::GeneratorResult& result) {
  double ms = result.seconds * 1e3;
  if (options_.slow_ms <= 0 || ms < options_.slow_ms) {
    return;
  }
  // One flat JSON line per slow request, reusing the journal's per-stage
  // cost attribution so "where did the time go" is answerable from the log
  // alone: total = queue-excluded service time, stages = the two
  // meta-execution phases (solver time excluded) and solver wall time.
  std::string line = "{\"slow_request\":true,\"gen\":";
  AppendJsonString(result.generator, &line);
  line += ",\"client\":";
  AppendJsonString(request.client.empty() ? "anon" : request.client, &line);
  line += ",\"outcome\":";
  AppendJsonString(verifier::OutcomeName(result.outcome), &line);
  line += StrFormat(",\"seconds\":%.17g,\"slow_ms\":%.17g", result.seconds, options_.slow_ms);
  line += StrFormat(",\"gen_s\":%.17g,\"interp_s\":%.17g,\"solve_s\":%.17g",
                    result.report.meta.gen_seconds, result.report.meta.interp_seconds,
                    result.report.meta.solve_seconds);
  line += StrCat(",\"paths\":", std::to_string(result.report.meta.paths_explored),
                 ",\"queries\":", std::to_string(result.report.meta.solver_queries), "}\n");
  if (obs::Enabled()) {
    static obs::Counter* slow = obs::Registry::Global().GetCounter(
        "icarus_daemon_slow_requests_total",
        "Verify requests slower than the --slow-ms threshold");
    slow->Add(1);
  }
  std::lock_guard<std::mutex> lock(slow_mu_);
  if (options_.slow_log_path.empty()) {
    std::fwrite(line.data(), 1, line.size(), stderr);
    return;
  }
  std::ofstream out(options_.slow_log_path, std::ios::binary | std::ios::app);
  if (out) {
    out << line;
  }
}

Response ServerCore::ExecuteVerify(const Request& request) {
  Response resp;
  resp.generator = request.generator;

  if (draining()) {
    std::lock_guard<std::mutex> lock(mu_);
    ++counters_.rejected_draining;
    resp.status = kStatusShuttingDown;
    return resp;
  }

  // Warm view: a decisive verdict this service already served. Free — no
  // queueing.
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = warm_.find(request.generator);
    if (it != warm_.end()) {
      ++counters_.warm_hits;
      if (obs::Enabled()) {
        static obs::Counter* warm = obs::Registry::Global().GetCounter(
            "icarus_daemon_warm_hits_total", "Requests served from the warm verdict view");
        warm->Add(1);
      }
      Response out = it->second;
      return out;
    }
  }

  // Admission: a turn in the bounded queue, or an honest shed.
  std::unique_lock<std::mutex> lock(mu_, std::defer_lock);
  try {
    ICARUS_FAILPOINT(failpoint::kDaemonEnqueue);
    lock.lock();
  } catch (const std::exception& e) {
    // An enqueue fault burns only this request: it took no turn, so
    // answering ERROR (retryable) is honest.
    resp.status = kStatusError;
    resp.error = e.what();
    return resp;
  }
  if (draining()) {
    ++counters_.rejected_draining;
    resp.status = kStatusShuttingDown;
    return resp;
  }
  // The bound check and the count share this critical section, so no more
  // than queue_limit requests ever wait.
  if (waiting_ >= options_.queue_limit) {
    ++counters_.shed_queue;
    if (obs::Enabled()) {
      static obs::Counter* shed = obs::Registry::Global().GetCounter(
          "icarus_daemon_shed_total", "Requests shed because the queue was full");
      shed->Add(1);
    }
    resp.status = kStatusOverloaded;
    resp.error = "request queue is full";
    resp.retry_after_ms = kOverloadedRetryAfterMs;
    return resp;
  }
  // Slots go by turn, so requests run in arrival order. The deadline counts
  // from arrival: a request past it still takes its turn and comes back
  // INCONCLUSIVE from the entry check, and the drain flag stops a running
  // one at its next path.
  const uint64_t turn = next_turn_++;
  ++waiting_;
  const double deadline_ms =
      request.deadline_ms > 0 ? request.deadline_ms : options_.default_deadline_ms;
  const Cancellation cancel(&draining_, deadline_ms > 0
                                            ? DeadlineAfter(deadline_ms / 1e3)
                                            : Cancellation::Clock::time_point::max());
  cv_.wait(lock, [&] { return draining() || (turn == head_turn_ && running_ < options_.jobs); });
  --waiting_;
  if (draining()) {
    cv_.notify_all();  // FinishDrain waits for the counts to fall.
    resp.status = kStatusShuttingDown;
    return resp;
  }
  ++head_turn_;
  ++running_;
  cv_.notify_all();  // The next turn may take another free slot.
  lock.unlock();

  Response out;
  try {
    out = ServeVerify(request, cancel);
  } catch (const std::exception& e) {
    // The session contains verification crashes; this catches a fault in
    // the serving bookkeeping around it, and the slot is given back either
    // way.
    out = Response{};
    out.status = kStatusError;
    out.error = e.what();
  }
  out.generator = request.generator;
  lock.lock();
  --running_;
  counters_.deadline_cancelled += cancel.deadline_seen() ? 1 : 0;
  cv_.notify_all();
  return out;
}

Response ServerCore::ServeVerify(const Request& request, const Cancellation& cancel) {
  obs::ScopedSpan verify_span("daemon.verify", request.generator);
  // The session answers CACHED_SAFE for an unchanged unit whose PASS is
  // stored (or journaled) under this budget, as `verify-all` does.
  // Otherwise it verifies inside its containment boundary, where the
  // daemon-dispatch fail point fires: a crash becomes this request's
  // INTERNAL_ERROR and nothing else's, and the row is journaled.
  verifier::GeneratorResult result =
      session_->Verify(request.generator, &cancel, failpoint::kDaemonDispatch);
  Response resp = ResponseFromResult(result);
  const bool cached_safe = result.outcome == verifier::Outcome::kCachedSafe;
  const bool crashed = result.outcome == verifier::Outcome::kInternalError;

  if (!cached_safe) {
    if (obs::Enabled()) {
      static obs::Histogram* seconds = obs::Registry::Global().GetHistogram(
          "icarus_daemon_request_seconds", "Verify-request service time (queue wait excluded)");
      seconds->Observe(result.seconds);
    }
    MaybeLogSlow(request, result);
  }
  if (crashed && obs::Enabled()) {
    static obs::Counter* contained = obs::Registry::Global().GetCounter(
        "icarus_daemon_contained_faults_total",
        "Request crashes contained to an INTERNAL_ERROR response");
    contained->Add(1);
  }

  std::lock_guard<std::mutex> lock(mu_);
  ++counters_.served;
  counters_.cached_safe += cached_safe ? 1 : 0;
  counters_.internal_errors += crashed ? 1 : 0;
  KeepWarm(result);
  return resp;
}

void ServerCore::BeginDrain() {
  {
    // Raised under mu_ so that no waiting request misses the wake-up.
    std::lock_guard<std::mutex> lock(mu_);
    draining_.store(true, std::memory_order_release);
  }
  cv_.notify_all();
}

Status ServerCore::FinishDrain() {
  BeginDrain();
  {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return running_ == 0 && waiting_ == 0; });
  }
  UpdateGauges();
  started_ = false;

  Status status = Status::Ok();
  // The drain fail point models a fault in the shutdown path itself (e.g.
  // store save machinery); it surfaces as a drain error, never a crash.
  try {
    ICARUS_FAILPOINT(failpoint::kDaemonDrain);
    if (session_ != nullptr) {
      status = session_->Close();
    }
  } catch (const std::exception& e) {
    status = Status::Error(StrCat("drain fault: ", e.what()));
  }
  return status;
}

DaemonStats ServerCore::StatsSnapshot() const {
  DaemonStats stats;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats = counters_;
    stats.queue_depth = waiting_;
    stats.in_flight = running_;
  }
  if (session_ != nullptr) {
    stats.read_only_cache = session_->read_only();
    stats.store_entries = static_cast<int64_t>(session_->store_entries());
  }
  return stats;
}

void ServeConnection(ServerCore* core, int fd) {
  net::LineReader reader(fd);
  std::string line;
  std::string error;
  while (true) {
    net::LineReader::Result got = reader.ReadLine(&line, &error);
    if (got != net::LineReader::Result::kLine) {
      break;
    }
    if (line.empty()) {
      continue;
    }
    Response resp;
    Request request;
    bool parsed = false;
    try {
      Status st = ParseRequest(line, &request);
      if (st.ok()) {
        parsed = true;
      } else {
        resp.status = kStatusBadRequest;
        resp.error = st.message();
      }
    } catch (const std::exception& e) {
      // An injected daemon-parse fault: this request is unusable, the
      // connection and every other request are fine.
      resp.status = kStatusError;
      resp.error = e.what();
    }
    if (parsed) {
      resp = core->Execute(request);
    }
    bool written = true;
    try {
      ICARUS_FAILPOINT(failpoint::kDaemonRespond);
      written = net::WriteLine(fd, resp.ToJsonLine()).ok();
    } catch (const std::exception& e) {
      // A respond fault burns the in-flight response. Best effort: tell the
      // client something went wrong so it does not hang on a silent line.
      Response burnt;
      burnt.id = resp.id;
      burnt.status = kStatusError;
      burnt.error = e.what();
      written = net::WriteLine(fd, burnt.ToJsonLine()).ok();
    }
    if (parsed && request.op == kOpShutdown) {
      core->RequestShutdown();  // Only now: the reply is on the wire.
    }
    if (!written) {
      break;  // Peer went away; nothing left to serve here.
    }
  }
  net::CloseFd(fd);
}

}  // namespace icarus::daemon
