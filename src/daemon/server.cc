#include "src/daemon/server.h"

#include <exception>

#include "src/obs/json.h"
#include "src/obs/trace.h"
#include "src/support/cancel.h"
#include "src/support/failpoint.h"
#include "src/support/net.h"
#include "src/support/str_util.h"
#include "src/support/timing.h"
#include "src/verifier/batch_verifier.h"
#include "src/verifier/session.h"

namespace icarus::daemon {

namespace {

// How many of the latest verify service times the `stats` op's percentiles
// read.
constexpr size_t kServiceTimeWindow = 256;

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
  w.Key("p50_ms").Double(p50_ms);
  w.Key("p99_ms").Double(p99_ms);
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

Response ServerCore::Execute(const Request& request) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++counters_.requests;
  }
  Response out;
  if (request.op == kOpPing) {
    out.status = draining() ? kStatusShuttingDown : kStatusOk;
  } else if (request.op == kOpStats) {
    out.status = kStatusOk;
    out.stats_json = StatsSnapshot().ToJson();
  } else if (request.op == kOpShutdown) {
    // The transport raises the flag once this reply is written
    // (RequestShutdown): a drain that starts earlier would shut the
    // requester's connection down under its reply.
    out.status = kStatusOk;
  } else {
    out = ExecuteVerify(request);
  }
  out.id = request.id;
  return out;
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
      return it->second;
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
  // A request that finds a free slot and no earlier turn waiting takes the
  // slot at once; only one that must wait counts against the bound. The
  // check and the count share this critical section, so no more than
  // queue_limit requests ever wait.
  const bool must_wait = waiting_ > 0 || running_ >= options_.jobs;
  if (must_wait && waiting_ >= options_.queue_limit) {
    ++counters_.shed_queue;
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

  std::lock_guard<std::mutex> lock(mu_);
  ++counters_.served;
  counters_.cached_safe += cached_safe ? 1 : 0;
  counters_.internal_errors += crashed ? 1 : 0;
  if (!cached_safe) {
    // A CACHED_SAFE answer ran nothing, so its time says nothing about
    // service.
    if (service_ms_.size() < kServiceTimeWindow) {
      service_ms_.push_back(result.seconds * 1e3);
    } else {
      service_ms_[service_next_] = result.seconds * 1e3;
    }
    service_next_ = (service_next_ + 1) % kServiceTimeWindow;
  }
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
  std::vector<double> service_ms;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats = counters_;
    stats.queue_depth = waiting_;
    stats.in_flight = running_;
    service_ms = service_ms_;
  }
  if (!service_ms.empty()) {
    SampleStats window = ComputeStats(std::move(service_ms));
    stats.p50_ms = window.p50;
    stats.p99_ms = window.p99;
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
    if (got == net::LineReader::Result::kError) {
      // An over-long line leaves no request boundary to resume at: say why
      // once and end the connection. (After a read error the peer is gone
      // and the write fails quietly.)
      Response refused;
      refused.status = kStatusBadRequest;
      refused.error = StrCat("request ", error);
      (void)net::WriteLine(fd, refused.ToJsonLine());
    }
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
