// FIFO thread pool for the batch verification driver.
//
// Structure: one task queue, one mutex, one condition variable. Workers pop
// from the front; Submit pushes to the back.
//
// Guarantees:
//   - A single-threaded pool runs tasks in submission order.
//   - Exceptions thrown by a task are captured in the task's future and
//     rethrown at .get(); they never escape a worker thread.
//   - The destructor drains: every task submitted before destruction runs to
//     completion before the threads are joined.
//
// Caveat: a task must not block on the future of another task of the same
// pool — once every worker blocks, the awaited task never gets a thread.
#ifndef ICARUS_SUPPORT_THREAD_POOL_H_
#define ICARUS_SUPPORT_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "src/support/failpoint.h"

namespace icarus {

class ThreadPool {
 public:
  // Starts `num_threads` workers (clamped to >= 1).
  explicit ThreadPool(int num_threads);
  // Drains all pending tasks, then joins the workers (calls Shutdown()).
  ~ThreadPool();

  // Begins shutdown and joins the workers after every already-submitted task
  // has run. Idempotent. Tasks submitted during or after shutdown are not
  // dropped: they run synchronously on the submitting thread, so their
  // futures always become ready (see the drain guarantee above).
  void Shutdown();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Schedules `fn` and returns a future for its result; a thrown exception is
  // delivered through the future. Safe to call from any thread.
  template <typename F>
  auto Submit(F fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    // The fail point fires *inside* the packaged task so an injected fault is
    // captured by the future (like any task exception) instead of unwinding
    // through the worker loop, which would std::terminate.
    auto task = std::make_shared<std::packaged_task<R()>>([fn = std::move(fn)]() mutable {
      ICARUS_FAILPOINT(::icarus::failpoint::kPoolTask);
      return fn();
    });
    std::future<R> future = task->get_future();
    Enqueue([task]() { (*task)(); });
    return future;
  }

  // Number of worker threads.
  int num_threads() const { return static_cast<int>(threads_.size()); }

  // Reasonable default parallelism for this machine (>= 1).
  static int DefaultConcurrency();

 private:
  void Enqueue(std::function<void()> task);
  void WorkerLoop();

  std::vector<std::thread> threads_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;  // Guarded by mu_.
  bool stop_ = false;                        // Guarded by mu_.
};

}  // namespace icarus

#endif  // ICARUS_SUPPORT_THREAD_POOL_H_
