#include "src/daemon/protocol.h"

#include <cmath>

#include "src/support/failpoint.h"
#include "src/support/flat_json.h"
#include "src/support/str_util.h"

namespace icarus::daemon {

std::string Request::ToJsonLine() const {
  std::string out = StrCat("{\"v\":", std::to_string(v), ",\"id\":");
  AppendJsonString(id, &out);
  out += ",\"op\":";
  AppendJsonString(op, &out);
  out += ",\"gen\":";
  AppendJsonString(generator, &out);
  out += StrFormat(",\"deadline_ms\":%.17g", deadline_ms);
  out.push_back('}');
  return out;
}

Status ParseRequest(std::string_view line, Request* request) {
  ICARUS_FAILPOINT(failpoint::kDaemonParse);
  *request = Request{};
  // Compared as parsed, never narrowed: any value but the one we speak
  // (0 stands for "absent") is an unsupported version.
  double version = 0;
  FlatLineParser parser(line);
  bool ok = parser.Parse(
      [&](const std::string& key, std::string value) {
        if (key == "id") {
          request->id = std::move(value);
        } else if (key == "op") {
          request->op = std::move(value);
        } else if (key == "gen") {
          request->generator = std::move(value);
        }
      },
      [&](const std::string& key, double value) {
        if (key == "v") {
          version = value;
        } else if (key == "deadline_ms") {
          request->deadline_ms = value;
        }
      });
  if (!ok) {
    return Status::Error("malformed request (want one flat JSON object per line)");
  }
  // An omitted version is tolerated from simple clients.
  if (version != 0 && version != kProtocolVersion) {
    return Status::Error(StrFormat("unsupported protocol version %.17g (this server speaks %d)",
                                   version, kProtocolVersion));
  }
  if (request->op != kOpPing && request->op != kOpVerify && request->op != kOpStats &&
      request->op != kOpShutdown) {
    return Status::Error(
        StrCat("unknown op '", request->op, "' (want ping, verify, stats, or shutdown)"));
  }
  if (request->op == kOpVerify && request->generator.empty()) {
    return Status::Error("verify request without a 'gen' field");
  }
  if (!std::isfinite(request->deadline_ms)) {
    return Status::Error("non-finite deadline_ms");
  }
  if (request->deadline_ms < 0) {
    return Status::Error("negative deadline_ms");
  }
  return Status::Ok();
}

std::string Response::ToJsonLine() const {
  std::string out = StrCat("{\"v\":", std::to_string(v), ",\"id\":");
  AppendJsonString(id, &out);
  out += ",\"status\":";
  AppendJsonString(status, &out);
  out += ",\"gen\":";
  AppendJsonString(generator, &out);
  out += ",\"outcome\":";
  AppendJsonString(outcome, &out);
  out += ",\"error\":";
  AppendJsonString(error, &out);
  out += StrCat(",\"cached\":", cached ? "true" : "false");
  out += StrFormat(",\"seconds\":%.17g", seconds);
  out += StrCat(",\"paths\":", std::to_string(paths));
  out += StrCat(",\"queries\":", std::to_string(queries));
  out += StrFormat(",\"retry_after_ms\":%.17g", retry_after_ms);
  if (!stats_json.empty()) {
    out += ",\"stats_json\":";
    AppendJsonString(stats_json, &out);
  }
  out.push_back('}');
  return out;
}

Status ParseResponse(std::string_view line, Response* response) {
  *response = Response{};
  bool in_range = true;
  auto narrow = [&in_range](double v, auto* field) {
    in_range = NarrowJsonNumber(v, field) && in_range;
  };
  FlatLineParser parser(line);
  bool ok = parser.Parse(
      [&](const std::string& key, std::string value) {
        if (key == "id") {
          response->id = std::move(value);
        } else if (key == "status") {
          response->status = std::move(value);
        } else if (key == "gen") {
          response->generator = std::move(value);
        } else if (key == "outcome") {
          response->outcome = std::move(value);
        } else if (key == "error") {
          response->error = std::move(value);
        } else if (key == "stats_json") {
          response->stats_json = std::move(value);
        }
      },
      [&](const std::string& key, double value) {
        if (key == "v") {
          narrow(value, &response->v);
        } else if (key == "cached") {
          response->cached = value != 0;
        } else if (key == "seconds") {
          response->seconds = value;
        } else if (key == "paths") {
          narrow(value, &response->paths);
        } else if (key == "queries") {
          narrow(value, &response->queries);
        } else if (key == "retry_after_ms") {
          response->retry_after_ms = value;
        }
      });
  if (!ok || !in_range) {
    return Status::Error("malformed response line");
  }
  if (response->status.empty()) {
    return Status::Error("response without a status");
  }
  return Status::Ok();
}

}  // namespace icarus::daemon
