// Cooperative cancellation of verification work.
//
// A run reads its Cancellation at unit entry and at every path boundary and
// stops when a flag has been raised (the daemon's drain, a SIGINT/SIGTERM
// handler) or its wall-clock deadline (a batch's, a daemon request's) has
// passed. Nothing polls on the run's behalf, so a single-job batch needs no
// second thread.
// One Cancellation may be shared by every job of a batch: Stop() is
// thread-safe, and it notes which trigger it saw so the batch can report it.
#ifndef ICARUS_SUPPORT_CANCEL_H_
#define ICARUS_SUPPORT_CANCEL_H_

#include <atomic>
#include <chrono>

namespace icarus {

class Cancellation {
 public:
  using Clock = std::chrono::steady_clock;

  // `flag` may be null and must outlive this object; a deadline of
  // time_point::max() never arrives (DeadlineAfter saturates to it).
  explicit Cancellation(const std::atomic<bool>* flag,
                        Clock::time_point deadline = Clock::time_point::max())
      : flag_(flag), deadline_(deadline) {}
  Cancellation(const Cancellation&) = delete;
  Cancellation& operator=(const Cancellation&) = delete;

  // True once the run must stop. The clock is read only when a deadline is
  // set.
  bool Stop() const {
    if (flag_ != nullptr && flag_->load(std::memory_order_relaxed)) {
      flag_seen_.store(true, std::memory_order_relaxed);
      return true;
    }
    if (deadline_ != Clock::time_point::max() && Clock::now() >= deadline_) {
      deadline_seen_.store(true, std::memory_order_relaxed);
      return true;
    }
    return false;
  }

  // Whether some Stop() returned true because of the flag, or the deadline.
  bool flag_seen() const { return flag_seen_.load(std::memory_order_relaxed); }
  bool deadline_seen() const { return deadline_seen_.load(std::memory_order_relaxed); }

 private:
  const std::atomic<bool>* const flag_;
  const Clock::time_point deadline_;
  mutable std::atomic<bool> flag_seen_{false};
  mutable std::atomic<bool> deadline_seen_{false};
};

}  // namespace icarus

#endif  // ICARUS_SUPPORT_CANCEL_H_
