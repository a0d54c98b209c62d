// Wire protocol for the `icarusd` verification service.
//
// Transport framing is newline-delimited JSON over a Unix-domain stream
// socket: the client writes one flat JSON object per request line, the server
// answers each with exactly one flat JSON object response line, in request
// order per connection. Flat (no nesting) keeps the parser the same shape as
// the verdict journal's: string and number values only, unknown keys skipped,
// so either side can add fields without breaking the other. The one
// structurally rich payload — the `stats` op result — travels as a
// pre-rendered JSON document inside a string field.
//
// Request ops:
//   ping      liveness probe; answered inline (never queued or shed).
//   verify    verify one generator; subject to the bounded queue and the
//             per-request deadline.
//   stats     service counters and verify-latency percentiles as a JSON
//             document, for `icarus client stats` and `icarus top`.
//   shutdown  ask the daemon to drain gracefully and exit 0.
//
// Response statuses (`status` field):
//   OK             the request was served; `outcome` holds the verdict for
//                  verify ops (VERIFIED / COUNTEREXAMPLE / INCONCLUSIVE /
//                  ERROR / INTERNAL_ERROR — journal outcome tokens).
//   OVERLOADED     shed because the bounded request queue is full.
//                  `retry_after_ms` is the server's backoff hint; nothing
//                  was executed.
//   SHUTTING_DOWN  the daemon is draining; retry against the next instance.
//   BAD_REQUEST    unparseable or semantically invalid request (`error`).
//                  A request line over 1 MiB (net::LineReader::
//                  kMaxLineBytes) is answered so once, and the daemon
//                  closes that connection.
//   ERROR          the serving machinery itself failed on this request (an
//                  injected fault outside the verification boundary); the
//                  request may be retried.
#ifndef ICARUS_DAEMON_PROTOCOL_H_
#define ICARUS_DAEMON_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "src/support/status.h"

namespace icarus::daemon {

inline constexpr int kProtocolVersion = 1;

inline constexpr char kStatusOk[] = "OK";
inline constexpr char kStatusOverloaded[] = "OVERLOADED";
inline constexpr char kStatusShuttingDown[] = "SHUTTING_DOWN";
inline constexpr char kStatusBadRequest[] = "BAD_REQUEST";
inline constexpr char kStatusError[] = "ERROR";

// The backoff an OVERLOADED response advertises, and the one a client
// assumes when a shed response carries no hint.
inline constexpr double kOverloadedRetryAfterMs = 50;

inline constexpr char kOpPing[] = "ping";
inline constexpr char kOpVerify[] = "verify";
inline constexpr char kOpStats[] = "stats";
inline constexpr char kOpShutdown[] = "shutdown";

struct Request {
  int v = kProtocolVersion;
  std::string id;         // Client-chosen correlation id, echoed verbatim.
  std::string op;         // One of the kOp* tokens.
  std::string generator;  // Target for verify ops.
  double deadline_ms = 0; // Per-request deadline; 0 → server default.

  std::string ToJsonLine() const;
};

// Parses one request line. Returns an error for malformed JSON, an
// unsupported protocol version, a missing/unknown op, or a verify op without
// a generator — the caller answers BAD_REQUEST with the message.
Status ParseRequest(std::string_view line, Request* request);

struct Response {
  int v = kProtocolVersion;
  std::string id;            // Echo of Request::id.
  std::string status;        // One of the kStatus* tokens.
  std::string generator;
  std::string outcome;       // Verdict token for served verify ops.
  std::string error;         // Diagnostic for BAD_REQUEST/ERROR and error outcomes.
  bool cached = false;       // Served from the warm verdict view, not recomputed.
  double seconds = 0.0;      // Service time (verify ops; 0 for warm hits).
  int64_t paths = 0;
  int64_t queries = 0;
  double retry_after_ms = 0; // Backoff hint for OVERLOADED.
  std::string stats_json;    // `stats` op payload (a JSON document, escaped).

  std::string ToJsonLine() const;
};

// Parses one response line (the client side). Unknown keys are skipped.
Status ParseResponse(std::string_view line, Response* response);

}  // namespace icarus::daemon

#endif  // ICARUS_DAEMON_PROTOCOL_H_
