// `icarus top`: live daemon introspection.
//
// Polls one or more daemons over their Unix sockets with one `stats` op each
// and renders a refreshing table: per-daemon throughput (verdicts/s between
// polls), queue depth and in-flight count, cache hit rate, queue sheds, and
// p50/p99 verify service time over the daemon's latest verifies. One fresh
// connection per daemon per poll — a daemon serves a connection strictly
// serially, so `top` never competes with a long verify already in flight on
// another connection, and a daemon that dies between polls just renders as
// unreachable.
//
// The frame renderer is a pure function of samples, so tests drive it
// without a terminal; RunTop owns the poll/refresh loop.
#ifndef ICARUS_DAEMON_TOP_H_
#define ICARUS_DAEMON_TOP_H_

#include <cstdio>
#include <string>
#include <vector>

#include "src/support/status.h"

namespace icarus::daemon {

struct TopOptions {
  // Daemons to poll; each row is labelled with its socket's file name.
  std::vector<std::string> sockets;
  double interval_ms = 1000;
  // Frames to render; 0 = until the process is interrupted.
  int iterations = 0;
  bool clear = true;  // ANSI home+clear between frames (off when piped).
};

// One daemon's poll result.
struct TopSample {
  bool reachable = false;
  std::string status;  // Response status, or the transport error.
  // Top-level numeric fields of the `stats` op payload.
  double requests = 0;
  double served = 0;
  double warm_hits = 0;
  double cached_safe = 0;
  double queue_depth = 0;
  double in_flight = 0;
  double shed_queue = 0;
  // Verify service-time percentiles; negative before the first verify.
  double p50_ms = -1;
  double p99_ms = -1;
};

// One rendered row: the current sample plus the rates computed against the
// previous poll.
struct TopRow {
  std::string name;
  TopSample sample;
  double verdicts_per_s = 0;  // Δserved / interval.
};

// One `stats` poll against a daemon (fresh connection).
TopSample SampleDaemon(const std::string& socket_path);

// Renders one frame as a table (no ANSI control codes; RunTop adds those).
std::string RenderTopFrame(const std::vector<TopRow>& rows, double interval_s);

// The refresh loop: poll, diff against the previous samples, render to
// `out`. Errors only on unusable options (nothing to poll); per-daemon
// failures render as unreachable rows.
Status RunTop(const TopOptions& options, std::FILE* out);

}  // namespace icarus::daemon

#endif  // ICARUS_DAEMON_TOP_H_
