#include "src/daemon/top.h"

#include <chrono>
#include <map>
#include <thread>

#include "src/daemon/protocol.h"
#include "src/support/flat_json.h"
#include "src/support/net.h"
#include "src/support/str_util.h"

namespace icarus::daemon {

namespace {

// The numeric fields (booleans as 0/1) of the flat `stats` document
// DaemonStats::ToJson produces.
std::map<std::string, double> StatsNumbers(const std::string& json) {
  std::map<std::string, double> out;
  FlatLineParser(json).Parse([](const std::string&, std::string) {},
                             [&out](const std::string& key, double value) { out[key] = value; });
  return out;
}

// One request/response exchange on an established connection.
bool Exchange(int fd, net::LineReader* reader, const Request& req, Response* resp) {
  if (!net::WriteLine(fd, req.ToJsonLine()).ok()) {
    return false;
  }
  std::string line;
  std::string error;
  if (reader->ReadLine(&line, &error) != net::LineReader::Result::kLine) {
    return false;
  }
  return ParseResponse(line, resp).ok();
}

double Fetch(const std::map<std::string, double>& numbers, const char* name,
             double absent = 0) {
  auto it = numbers.find(name);
  return it == numbers.end() ? absent : it->second;
}

std::string BaseName(const std::string& path) {
  size_t slash = path.rfind('/');
  std::string base = slash == std::string::npos ? path : path.substr(slash + 1);
  size_t dot = base.rfind(".sock");
  if (dot != std::string::npos && dot + 5 == base.size()) {
    base.resize(dot);
  }
  return base;
}

}  // namespace

TopSample SampleDaemon(const std::string& socket_path) {
  TopSample sample;
  StatusOr<int> connected = net::ConnectUnix(socket_path);
  if (!connected.ok()) {
    sample.status = "unreachable";
    return sample;
  }
  int fd = connected.value();
  net::LineReader reader(fd);

  Request stats_req;
  stats_req.op = kOpStats;
  Response stats_resp;
  if (!Exchange(fd, &reader, stats_req, &stats_resp)) {
    sample.status = "unreachable";
    net::CloseFd(fd);
    return sample;
  }
  sample.reachable = true;
  sample.status = stats_resp.status;
  std::map<std::string, double> numbers = StatsNumbers(stats_resp.stats_json);
  sample.requests = Fetch(numbers, "requests");
  sample.served = Fetch(numbers, "served");
  sample.warm_hits = Fetch(numbers, "warm_hits");
  sample.cached_safe = Fetch(numbers, "cached_safe");
  sample.queue_depth = Fetch(numbers, "queue_depth");
  sample.in_flight = Fetch(numbers, "in_flight");
  sample.shed_queue = Fetch(numbers, "shed_queue");
  sample.p50_ms = Fetch(numbers, "p50_ms", -1);
  sample.p99_ms = Fetch(numbers, "p99_ms", -1);
  net::CloseFd(fd);
  return sample;
}

std::string RenderTopFrame(const std::vector<TopRow>& rows, double interval_s) {
  std::string out = StrFormat(
      "icarus top — %d daemon%s, refresh %.1fs\n"
      "%-10s %-8s %9s %6s %7s %8s %7s %9s %9s\n",
      static_cast<int>(rows.size()), rows.size() == 1 ? "" : "s", interval_s, "DAEMON",
      "STATUS", "VERD/S", "QUEUE", "INFLT", "HIT%", "SHED", "P50(ms)", "P99(ms)");
  for (const TopRow& row : rows) {
    if (!row.sample.reachable) {
      out += StrFormat("%-10s %-8s %9s %6s %7s %8s %7s %9s %9s\n", row.name.c_str(), "dead",
                       "-", "-", "-", "-", "-", "-", "-");
      continue;
    }
    const TopSample& s = row.sample;
    double hits = s.warm_hits + s.cached_safe;
    double hit_base = s.served + s.warm_hits;
    std::string hit =
        hit_base > 0 ? StrFormat("%.1f", 100.0 * hits / hit_base) : std::string("-");
    std::string p50 = s.p50_ms >= 0 ? StrFormat("%.2f", s.p50_ms) : std::string("-");
    std::string p99 = s.p99_ms >= 0 ? StrFormat("%.2f", s.p99_ms) : std::string("-");
    out += StrFormat("%-10s %-8s %9.1f %6d %7d %8s %7d %9s %9s\n", row.name.c_str(),
                     s.status.c_str(), row.verdicts_per_s, static_cast<int>(s.queue_depth),
                     static_cast<int>(s.in_flight), hit.c_str(), static_cast<int>(s.shed_queue),
                     p50.c_str(), p99.c_str());
  }
  return out;
}

Status RunTop(const TopOptions& options, std::FILE* out) {
  const std::vector<std::string>& sockets = options.sockets;
  if (sockets.empty()) {
    return Status::Error("nothing to poll (give --socket)");
  }

  double interval_s = options.interval_ms > 0 ? options.interval_ms / 1e3 : 1.0;
  std::vector<TopSample> prev(sockets.size());
  bool have_prev = false;
  for (int frame = 0; options.iterations == 0 || frame < options.iterations; ++frame) {
    if (frame > 0) {
      std::this_thread::sleep_for(
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::duration<double>(interval_s)));
    }
    std::vector<TopRow> rows;
    rows.reserve(sockets.size());
    for (size_t i = 0; i < sockets.size(); ++i) {
      TopRow row;
      row.name = BaseName(sockets[i]);
      row.sample = SampleDaemon(sockets[i]);
      if (have_prev && row.sample.reachable && prev[i].reachable) {
        double delta = row.sample.served - prev[i].served;
        row.verdicts_per_s = delta > 0 ? delta / interval_s : 0;
      }
      prev[i] = row.sample;
      rows.push_back(std::move(row));
    }
    have_prev = true;
    if (options.clear) {
      std::fputs("\x1b[H\x1b[2J", out);
    }
    std::fputs(RenderTopFrame(rows, interval_s).c_str(), out);
    std::fflush(out);
  }
  return Status::Ok();
}

}  // namespace icarus::daemon
