#include "src/support/net.h"

#include <cerrno>
#include <cstring>

#ifndef _WIN32
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#endif

#include "src/support/str_util.h"

namespace icarus::net {

#ifdef _WIN32

StatusOr<int> ListenUnix(const std::string&, int) {
  return Status::Error("unix-domain sockets are not supported on this platform");
}
StatusOr<int> ConnectUnix(const std::string&) {
  return Status::Error("unix-domain sockets are not supported on this platform");
}
int PollReadable(int, int) { return -1; }
Status WriteAll(int, std::string_view) {
  return Status::Error("unix-domain sockets are not supported on this platform");
}
Status WriteLine(int, std::string_view) {
  return Status::Error("unix-domain sockets are not supported on this platform");
}
void CloseFd(int) {}
void ShutdownFd(int) {}
LineReader::Result LineReader::ReadLine(std::string*, std::string* error) {
  *error = "unix-domain sockets are not supported on this platform";
  return Result::kError;
}

#else

StatusOr<int> ListenUnix(const std::string& path, int backlog) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    return Status::Error(StrCat("socket path too long (", path, ")"));
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Error(StrCat("socket(): ", std::strerror(errno)));
  }
  // The daemon owns its socket path: a stale file from a crashed instance
  // must not block restart.
  ::unlink(path.c_str());
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Status st = Status::Error(StrCat("bind(", path, "): ", std::strerror(errno)));
    CloseFd(fd);
    return st;
  }
  if (::listen(fd, backlog) != 0) {
    Status st = Status::Error(StrCat("listen(", path, "): ", std::strerror(errno)));
    CloseFd(fd);
    return st;
  }
  return fd;
}

StatusOr<int> ConnectUnix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    return Status::Error(StrCat("socket path too long (", path, ")"));
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Error(StrCat("socket(): ", std::strerror(errno)));
  }
  int rc;
  do {
    rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    Status st = Status::Error(StrCat("connect(", path, "): ", std::strerror(errno)));
    CloseFd(fd);
    return st;
  }
  return fd;
}

int PollReadable(int fd, int timeout_ms) {
  pollfd pfd{};
  pfd.fd = fd;
  pfd.events = POLLIN;
  while (true) {
    int rc = ::poll(&pfd, 1, timeout_ms);
    if (rc < 0 && errno == EINTR) {
      // A signal (e.g. the daemon's SIGTERM) interrupted the wait; report
      // "timeout" so the caller re-checks its shutdown flag promptly.
      return 0;
    }
    if (rc < 0) {
      return -1;
    }
    if (rc == 0) {
      return 0;
    }
    return 1;
  }
}

Status WriteAll(int fd, std::string_view data) {
  size_t off = 0;
  while (off < data.size()) {
    ssize_t n = ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return Status::Error(StrCat("write: ", std::strerror(errno)));
    }
    off += static_cast<size_t>(n);
  }
  return Status::Ok();
}

Status WriteLine(int fd, std::string_view line) {
  std::string framed(line);
  framed.push_back('\n');
  return WriteAll(fd, framed);
}

void CloseFd(int fd) {
  if (fd < 0) {
    return;
  }
  int rc;
  do {
    rc = ::close(fd);
  } while (rc != 0 && errno == EINTR);
}

void ShutdownFd(int fd) {
  if (fd >= 0) {
    ::shutdown(fd, SHUT_RDWR);
  }
}

LineReader::Result LineReader::ReadLine(std::string* line, std::string* error) {
  while (true) {
    size_t nl = buffer_.find('\n', pos_);
    if ((nl == std::string::npos ? buffer_.size() : nl) - pos_ > kMaxLineBytes) {
      *error = "line too long";
      return Result::kError;
    }
    if (nl != std::string::npos) {
      line->assign(buffer_, pos_, nl - pos_);
      pos_ = nl + 1;
      // Compact once the consumed prefix dominates the buffer.
      if (pos_ > 4096 && pos_ * 2 > buffer_.size()) {
        buffer_.erase(0, pos_);
        pos_ = 0;
      }
      return Result::kLine;
    }
    if (eof_) {
      if (pos_ < buffer_.size()) {
        // Torn tail: hand the partial line to the parser.
        line->assign(buffer_, pos_, buffer_.size() - pos_);
        pos_ = buffer_.size();
        return Result::kLine;
      }
      return Result::kEof;
    }
    char chunk[4096];
    ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      *error = StrCat("read: ", std::strerror(errno));
      return Result::kError;
    }
    if (n == 0) {
      eof_ = true;
      continue;
    }
    buffer_.append(chunk, static_cast<size_t>(n));
  }
}

#endif  // _WIN32

}  // namespace icarus::net
