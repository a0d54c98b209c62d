#include "src/daemon/server.h"

#include <chrono>
#include <cstdio>
#include <exception>
#include <fstream>
#include <future>

#include <sys/stat.h>

#include "src/ast/fingerprint.h"
#include "src/obs/json.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/support/failpoint.h"
#include "src/support/flat_json.h"
#include "src/support/net.h"
#include "src/support/str_util.h"
#include "src/support/timing.h"
#include "src/sym/cache_store.h"
#include "src/verifier/batch_verifier.h"
#include "src/verifier/verifier.h"

namespace icarus::daemon {

namespace {

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

bool IsDecisive(const std::string& outcome) {
  return outcome == verifier::OutcomeName(verifier::Outcome::kVerified) ||
         outcome == verifier::OutcomeName(verifier::Outcome::kRefuted) ||
         outcome == verifier::OutcomeName(verifier::Outcome::kCachedSafe);
}

Response ResponseFromRecord(const verifier::JournalRecord& rec) {
  Response resp;
  resp.status = kStatusOk;
  resp.generator = rec.generator;
  resp.outcome = rec.outcome;
  resp.error = rec.error;
  resp.cached = true;
  resp.paths = rec.paths;
  resp.queries = rec.queries;
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

// One queued verify request. The ticket is allocated on the Execute()
// caller's stack: exactly one of the worker pool or the drain path fulfils
// the promise, and Execute() always waits on the future before returning, so
// the ticket outlives every reference to it.
struct ServerCore::Ticket {
  Request request;
  std::string unit_fp;
  std::atomic<bool> cancel{false};
  std::promise<Response> promise;
};

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
  w.Key("replayed").Int(replayed);
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

  // Persistent stores, guarded by the advisory cache lock. A second writer
  // (another daemon, a concurrent `verify-all --incremental`) degrades this
  // instance to a read-only view: it still warms from the stores but never
  // writes them back, so the lock holder's saves are not clobbered.
  if (options_.incremental) {
    Status dir = verifier::EnsureCacheDir(options_.cache_dir);
    if (!dir.ok()) {
      notes_.push_back(StrCat(dir.message(), "; running without persistence"));
    } else {
      persistence_enabled_ = true;
      FileLock::Result lock = FileLock::TryExclusive(options_.cache_dir + "/lock");
      if (lock.state == FileLock::State::kAcquired) {
        cache_lock_ = std::move(lock.lock);
      } else {
        read_only_cache_ = true;
        notes_.push_back(StrCat(lock.message, "; cache degraded to read-only"));
        if (obs::Enabled()) {
          static obs::Counter* degraded = obs::Registry::Global().GetCounter(
              "icarus_cache_readonly_degraded_total",
              "Runs degraded to a read-only cache view by advisory-lock contention");
          degraded->Add(1);
        }
      }
      solver_store_path_ = verifier::SolverCacheStorePath(options_.cache_dir);
      verifier::VerdictStore::LoadResult loaded =
          store_.Load(verifier::VerdictStorePath(options_.cache_dir), verifier::kVerifierEpoch);
      if (!loaded.note.empty()) {
        notes_.push_back(loaded.note);
      }
    }
  }
  cache_ = std::make_unique<sym::SolverCache>();
  if (persistence_enabled_ && !solver_store_path_.empty()) {
    sym::CacheLoadResult loaded =
        sym::LoadSolverCache(solver_store_path_, verifier::kVerifierEpoch, cache_.get());
    if (!loaded.note.empty()) {
      notes_.push_back(loaded.note);
    }
  }

  // Journal: replay yesterday's verdicts into the warm view, then open for
  // appending. Replay errors fail startup — serving from a journal we cannot
  // trust would hand out wrong warm verdicts.
  if (!options_.journal_path.empty()) {
    fingerprint_ = platform_->Fingerprint();
    if (FileExists(options_.journal_path)) {
      StatusOr<std::vector<verifier::JournalRecord>> records =
          verifier::ReadJournal(options_.journal_path, fingerprint_);
      if (!records.ok()) {
        return Status::Error(StrCat("cannot replay journal '", options_.journal_path,
                                    "': ", records.status().message(),
                                    " (remove or relocate the journal to start cold)"));
      }
      for (const verifier::JournalRecord& rec : records.value()) {
        if (IsDecisive(rec.outcome)) {
          // Last record wins, as in batch resume.
          warm_[rec.generator] = ResponseFromRecord(rec);
        }
      }
      counters_.replayed = static_cast<int64_t>(warm_.size());
      if (!warm_.empty()) {
        notes_.push_back(StrFormat("replayed %d warm verdicts from the journal",
                                   static_cast<int>(warm_.size())));
      }
    }
    StatusOr<std::unique_ptr<verifier::JournalWriter>> writer =
        verifier::JournalWriter::Open(options_.journal_path);
    if (!writer.ok()) {
      return writer.status();
    }
    journal_ = writer.take();
  }

  workers_.reserve(options_.jobs);
  for (int i = 0; i < options_.jobs; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  started_ = true;
  return Status::Ok();
}

std::string ServerCore::UnitFingerprint(const std::string& generator) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = unit_fp_cache_.find(generator);
    if (it != unit_fp_cache_.end()) {
      return it->second;
    }
  }
  // An unfingerprintable name stays empty: never matched against the store,
  // never stored (the verification itself reports the unknown-generator
  // error).
  std::string fp;
  StatusOr<ast::Fingerprint> computed = ast::UnitFingerprint(platform_->module(), generator);
  if (computed.ok()) {
    fp = computed.value().ToHex();
  }
  std::lock_guard<std::mutex> lock(mu_);
  unit_fp_cache_[generator] = fp;
  return fp;
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
  depth->Set(static_cast<int64_t>(queue_.size()));
  in_flight->Set(static_cast<int64_t>(active_.size()));
}

void ServerCore::AppendJournal(const verifier::JournalRecord& record) {
  if (journal_ == nullptr) {
    return;
  }
  std::lock_guard<std::mutex> lock(journal_mu_);
  Status st = journal_->Append(record);
  if (!st.ok()) {
    // The service keeps serving — verdicts remain correct — but the
    // durability gap is visible in the notes and stats.
    std::lock_guard<std::mutex> note_lock(mu_);
    if (notes_.empty() || notes_.back() != st.message()) {
      notes_.push_back(st.message());
    }
  }
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
      shutdown_requested_.store(true, std::memory_order_release);
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
  // alone: total = queue-excluded service time, stages = CFA build, the two
  // meta-execution phases (solver time excluded), and solver wall time.
  std::string line = "{\"slow_request\":true,\"gen\":";
  AppendJsonString(result.generator, &line);
  line += ",\"client\":";
  AppendJsonString(request.client.empty() ? "anon" : request.client, &line);
  line += ",\"outcome\":";
  AppendJsonString(verifier::OutcomeName(result.outcome), &line);
  line += StrFormat(",\"seconds\":%.17g,\"slow_ms\":%.17g", result.seconds, options_.slow_ms);
  line += StrFormat(",\"cfa_s\":%.17g,\"gen_s\":%.17g,\"interp_s\":%.17g,\"solve_s\":%.17g",
                    result.report.cfa_seconds, result.report.meta.gen_seconds,
                    result.report.meta.interp_seconds, result.report.meta.solve_seconds);
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

  // Warm view: a decisive verdict this service (or the journal it replayed)
  // already earned. Free — no queueing.
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

  Ticket ticket;
  ticket.request = request;
  if (options_.incremental && persistence_enabled_) {
    ticket.unit_fp = UnitFingerprint(request.generator);
  }
  std::future<Response> future = ticket.promise.get_future();
  try {
    ICARUS_FAILPOINT(failpoint::kDaemonEnqueue);
    std::lock_guard<std::mutex> lock(mu_);
    if (draining_.load(std::memory_order_acquire)) {
      ++counters_.rejected_draining;
      resp.status = kStatusShuttingDown;
      return resp;
    }
    // The bound check and the push share this critical section, so the
    // queue never holds more than queue_limit tickets.
    if (static_cast<int>(queue_.size()) >= options_.queue_limit) {
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
    queue_.push_back(&ticket);
  } catch (const std::exception& e) {
    // An enqueue fault burns only this request: nothing was queued, so
    // answering ERROR (retryable) is honest.
    resp.status = kStatusError;
    resp.error = e.what();
    return resp;
  }
  cv_.notify_one();
  UpdateGauges();

  // Per-request deadline: wait for the worker, and past the deadline flip
  // this ticket's cancel flag — the verification observes it at its next
  // path boundary and degrades to INCONCLUSIVE. The wait after cancellation
  // is bounded by one path's solver budget.
  double deadline_ms =
      request.deadline_ms > 0 ? request.deadline_ms : options_.default_deadline_ms;
  if (deadline_ms > 0) {
    if (future.wait_until(DeadlineAfter(deadline_ms / 1e3)) == std::future_status::timeout) {
      ticket.cancel.store(true, std::memory_order_relaxed);
      std::lock_guard<std::mutex> lock(mu_);
      ++counters_.deadline_cancelled;
    }
  }
  Response out = future.get();
  out.generator = request.generator;
  UpdateGauges();
  return out;
}

void ServerCore::WorkerLoop() {
  while (true) {
    Ticket* ticket = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_workers_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stop_workers_) {
          return;
        }
        continue;
      }
      ticket = queue_.front();
      queue_.pop_front();
      active_.insert(ticket);
    }
    Response resp;
    try {
      resp = ServeVerify(ticket);
    } catch (const std::exception& e) {
      // ServeVerify contains verification crashes itself; this net catches a
      // fault in the serving bookkeeping around it. The promise must be
      // fulfilled either way — the Execute() caller is blocked on it.
      resp = Response{};
      resp.status = kStatusError;
      resp.generator = ticket->request.generator;
      resp.error = e.what();
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      active_.erase(ticket);
    }
    ticket->promise.set_value(std::move(resp));
  }
}

Response ServerCore::ServeVerify(Ticket* ticket) {
  const Request& request = ticket->request;
  obs::ScopedSpan verify_span("daemon.verify", request.generator);
  Response resp;
  resp.status = kStatusOk;
  resp.generator = request.generator;

  verifier::GeneratorResult result;
  result.generator = request.generator;
  result.unit_fp = ticket->unit_fp;
  result.budget_decisions = options_.solver_limits.max_decisions;

  // Persistent-store hit: an unchanged unit previously VERIFIED under this
  // exact budget — same contract as `verify-all --incremental`.
  if (!ticket->unit_fp.empty() &&
      store_.FindPass(request.generator, ticket->unit_fp, options_.solver_limits) != nullptr) {
    result.outcome = verifier::Outcome::kCachedSafe;
    resp.outcome = verifier::OutcomeName(result.outcome);
    resp.cached = true;
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++counters_.cached_safe;
      ++counters_.served;
      warm_[request.generator] = [&] {
        Response cached = resp;
        cached.cached = true;
        return cached;
      }();
    }
    AppendJournal(verifier::RecordFromResult(result, fingerprint_));
    return resp;
  }

  WallTimer timer;
  // Containment boundary: a crash inside one request's verification (a
  // genuine bug or the daemon-dispatch fail point) becomes that request's
  // INTERNAL_ERROR response; the worker, the queue, and every other request
  // are untouched.
  try {
    ICARUS_FAILPOINT(failpoint::kDaemonDispatch);
    verifier::VerifyOptions vopts;
    vopts.build_cfa = false;
    vopts.solver_cache = cache_.get();
    vopts.solver_limits = options_.solver_limits;
    vopts.cancel = &ticket->cancel;
    verifier::Verifier verifier(platform_);
    StatusOr<verifier::VerifyReport> report = verifier.Verify(request.generator, vopts);
    result.seconds = timer.ElapsedSeconds();
    if (!report.ok()) {
      result.outcome = verifier::Outcome::kError;
      result.error = report.status().message();
    } else {
      result.report = report.take();
      if (!result.report.meta.violations.empty()) {
        result.outcome = verifier::Outcome::kRefuted;
      } else if (result.report.inconclusive) {
        result.outcome = verifier::Outcome::kInconclusive;
      } else {
        result.outcome = verifier::Outcome::kVerified;
      }
    }
  } catch (const std::exception& e) {
    result.seconds = timer.ElapsedSeconds();
    result.outcome = verifier::Outcome::kInternalError;
    result.error = e.what();
  }

  resp.outcome = verifier::OutcomeName(result.outcome);
  resp.error = result.error;
  resp.seconds = result.seconds;
  resp.paths = result.report.meta.paths_explored;
  resp.queries = result.report.meta.solver_queries;

  if (obs::Enabled()) {
    static obs::Histogram* seconds = obs::Registry::Global().GetHistogram(
        "icarus_daemon_request_seconds", "Verify-request service time (queue wait excluded)");
    seconds->Observe(result.seconds);
  }
  MaybeLogSlow(request, result);

  if (result.outcome == verifier::Outcome::kInternalError) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++counters_.internal_errors;
    }
    if (obs::Enabled()) {
      static obs::Counter* contained = obs::Registry::Global().GetCounter(
          "icarus_daemon_contained_faults_total",
          "Request crashes contained to an INTERNAL_ERROR response");
      contained->Add(1);
    }
  }

  bool decisive = result.outcome == verifier::Outcome::kVerified ||
                  result.outcome == verifier::Outcome::kRefuted;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++counters_.served;
    if (decisive) {
      Response cached = resp;
      cached.cached = true;
      cached.seconds = 0;
      warm_[request.generator] = std::move(cached);
    }
  }
  if (result.outcome == verifier::Outcome::kVerified && persistence_enabled_ &&
      !read_only_cache_ && !ticket->unit_fp.empty()) {
    verifier::JournalRecord pass = verifier::RecordFromResult(result, verifier::kVerifierEpoch);
    std::lock_guard<std::mutex> lock(mu_);
    store_.Put(pass);  // In-memory: later requests hit CACHED_SAFE.
  }
  // Journal every verdict (fsync'd): the next daemon instance replays the
  // decisive ones into its warm view.
  AppendJournal(verifier::RecordFromResult(result, fingerprint_));
  return resp;
}

void ServerCore::BeginDrain() {
  std::vector<Ticket*> queued;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (draining_.exchange(true, std::memory_order_acq_rel)) {
      return;
    }
    queued.assign(queue_.begin(), queue_.end());
    queue_.clear();
    // Cancel in-flight work; each verification stops at its next path
    // boundary and its caller sees INCONCLUSIVE.
    for (Ticket* ticket : active_) {
      ticket->cancel.store(true, std::memory_order_relaxed);
    }
  }
  // Fail queued-but-unstarted tickets fast, outside the lock (their
  // Execute() callers are blocked on these promises).
  for (Ticket* ticket : queued) {
    Response resp;
    resp.status = kStatusShuttingDown;
    resp.generator = ticket->request.generator;
    ticket->promise.set_value(std::move(resp));
  }
  cv_.notify_all();
  UpdateGauges();
}

Status ServerCore::FinishDrain() {
  BeginDrain();
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_workers_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) {
      worker.join();
    }
  }
  workers_.clear();
  started_ = false;

  Status status = Status::Ok();
  // The drain fail point models a fault in the shutdown path itself (e.g.
  // store save machinery); it surfaces as a drain error, never a crash.
  try {
    ICARUS_FAILPOINT(failpoint::kDaemonDrain);
    if (persistence_enabled_ && !read_only_cache_) {
      Status saved = store_.Save(verifier::VerdictStorePath(options_.cache_dir));
      if (!saved.ok()) {
        status = saved;
      }
      if (cache_ != nullptr && !solver_store_path_.empty()) {
        Status cache_saved =
            sym::SaveSolverCache(*cache_, solver_store_path_, verifier::kVerifierEpoch,
                                 options_.cache_max_mb * 1024 * 1024);
        if (!cache_saved.ok() && status.ok()) {
          status = cache_saved;
        }
      }
    }
  } catch (const std::exception& e) {
    status = Status::Error(StrCat("drain fault: ", e.what()));
  }
  // The journal is fsync'd per record; closing it here releases the handle.
  {
    std::lock_guard<std::mutex> lock(journal_mu_);
    journal_.reset();
  }
  cache_lock_.reset();
  return status;
}

DaemonStats ServerCore::StatsSnapshot() const {
  DaemonStats stats;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats = counters_;
    stats.queue_depth = static_cast<int>(queue_.size());
    stats.in_flight = static_cast<int>(active_.size());
    stats.store_entries = static_cast<int64_t>(store_.size());
  }
  stats.read_only_cache = read_only_cache_;
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
    try {
      ICARUS_FAILPOINT(failpoint::kDaemonRespond);
      if (!net::WriteLine(fd, resp.ToJsonLine()).ok()) {
        break;  // Peer went away; nothing left to serve here.
      }
    } catch (const std::exception& e) {
      // A respond fault burns the in-flight response. Best effort: tell the
      // client something went wrong so it does not hang on a silent line.
      Response burnt;
      burnt.id = resp.id;
      burnt.status = kStatusError;
      burnt.error = e.what();
      if (!net::WriteLine(fd, burnt.ToJsonLine()).ok()) {
        break;
      }
    }
  }
  net::CloseFd(fd);
}

}  // namespace icarus::daemon
