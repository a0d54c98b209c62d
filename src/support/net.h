// Unix-domain socket and line-oriented I/O helpers for the `icarusd`
// serving layer (src/daemon/).
//
// Everything here is deliberately boring POSIX: blocking fds, EINTR retry
// loops, poll()-based readiness with timeouts so accept/read loops can notice
// a shutdown flag without busy-waiting. SIGPIPE is never raised — writes use
// MSG_NOSIGNAL — so a client that disconnects mid-response surfaces as an
// error Status on its own connection, not a process-wide signal.
#ifndef ICARUS_SUPPORT_NET_H_
#define ICARUS_SUPPORT_NET_H_

#include <string>
#include <string_view>

#include "src/support/status.h"

namespace icarus::net {

// Binds and listens on a Unix-domain stream socket at `path`, unlinking any
// stale socket file first (the daemon owns its socket path). Returns the
// listening fd. Fails if `path` exceeds sockaddr_un::sun_path.
StatusOr<int> ListenUnix(const std::string& path, int backlog = 64);

// Connects to the Unix-domain socket at `path`; returns the connected fd.
StatusOr<int> ConnectUnix(const std::string& path);

// Waits up to `timeout_ms` for `fd` to become readable (a pending connection
// on a listening socket counts). Returns 1 when readable, 0 on timeout, -1 on
// poll error (other than EINTR, which retries).
int PollReadable(int fd, int timeout_ms);

// Writes all of `data`, retrying short writes and EINTR. MSG_NOSIGNAL: a
// closed peer yields an error Status, never SIGPIPE.
Status WriteAll(int fd, std::string_view data);

// WriteAll of `line` plus a trailing '\n' (the NDJSON protocol framing).
Status WriteLine(int fd, std::string_view line);

// Closes `fd`, retrying EINTR; no-op for fd < 0.
void CloseFd(int fd);

// Half-closes both directions. Used by the daemon's drain path to wake
// connection threads blocked in read() — they see EOF and exit.
void ShutdownFd(int fd);

// Buffered newline-delimited reader over a blocking fd. Not thread-safe; one
// reader per connection thread.
class LineReader {
 public:
  explicit LineReader(int fd) : fd_(fd) {}

  // The longest line ReadLine accepts. A longer one is kError ("line too
  // long") once this many bytes are buffered without a terminator, so one
  // peer cannot grow the buffer without bound; the stream has no line
  // boundary left to resume at.
  static constexpr size_t kMaxLineBytes = size_t{1} << 20;

  enum class Result {
    kLine,  // *line holds the next line (terminator stripped).
    kEof,   // Clean end of stream (and no buffered partial line).
    kError, // Read error or over-long line; *error describes it.
  };

  // Reads the next '\n'-terminated line. A final unterminated chunk before
  // EOF is returned as a line (mirrors the journal reader's tolerance of a
  // torn tail — the parser decides whether it is usable).
  Result ReadLine(std::string* line, std::string* error);

 private:
  int fd_;
  std::string buffer_;
  size_t pos_ = 0;
  bool eof_ = false;
};

}  // namespace icarus::net

#endif  // ICARUS_SUPPORT_NET_H_
