#include "src/support/thread_pool.h"

#include <algorithm>

namespace icarus {

int ThreadPool::DefaultConcurrency() {
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

ThreadPool::ThreadPool(int num_threads) {
  int n = std::max(1, num_threads);
  threads_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    threads_.emplace_back([this]() { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() { Shutdown(); }

void ThreadPool::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : threads_) {
    if (t.joinable()) {
      t.join();
    }
  }
}

void ThreadPool::Enqueue(std::function<void()> task) {
  {
    // The stop check and the push share one critical section with Shutdown()
    // setting the flag: a task can never land in the queue after the last
    // worker decided to exit (which would leave its future forever unready).
    std::lock_guard<std::mutex> lock(mu_);
    if (!stop_) {
      queue_.push_back(std::move(task));
      cv_.notify_one();
      return;
    }
  }
  // The pool is shutting down (or already shut down): run the task inline on
  // the submitting thread. Every submitted task still runs to completion and
  // resolves its future — late submissions degrade to synchronous execution,
  // they are never dropped.
  task();
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this]() { return stop_ || !queue_.empty(); });
      if (queue_.empty()) {
        return;  // Stopped and drained.
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

}  // namespace icarus
