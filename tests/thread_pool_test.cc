// Thread-pool unit tests: submission ordering, exception propagation through
// futures, and shutdown under load — including the no-dropped-tasks guarantee
// for submissions racing shutdown.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "src/support/check.h"
#include "src/support/failpoint.h"
#include "src/support/thread_pool.h"

namespace icarus {
namespace {

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.Submit([&counter]() { counter.fetch_add(1); }));
  }
  for (auto& f : futures) {
    f.get();
  }
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ReturnsValuesThroughFutures) {
  ThreadPool pool(3);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 32; ++i) {
    futures.push_back(pool.Submit([i]() { return i * i; }));
  }
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(futures[static_cast<size_t>(i)].get(), i * i);
  }
}

TEST(ThreadPoolTest, SingleThreadPreservesSubmissionOrder) {
  // The queue is FIFO, so a 1-thread pool must execute tasks in submission
  // order.
  ThreadPool pool(1);
  std::vector<int> order;
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 50; ++i) {
    futures.push_back(pool.Submit([&order, i]() { order.push_back(i); }));
  }
  for (auto& f : futures) {
    f.get();
  }
  ASSERT_EQ(order.size(), 50u);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
  }
}

TEST(ThreadPoolTest, PropagatesExceptionsThroughFutures) {
  ThreadPool pool(2);
  std::future<int> bad = pool.Submit([]() -> int { throw std::runtime_error("boom"); });
  std::future<int> good = pool.Submit([]() { return 7; });
  EXPECT_THROW(bad.get(), std::runtime_error);
  // A throwing task must not poison the pool.
  EXPECT_EQ(good.get(), 7);
}

TEST(ThreadPoolTest, WorkIsDistributedAcrossThreads) {
  // With many slow-ish tasks and several workers, more than one thread must
  // participate (the shared queue actually spreads the load).
  ThreadPool pool(4);
  std::mutex mu;
  std::set<std::thread::id> seen;
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 64; ++i) {
    futures.push_back(pool.Submit([&mu, &seen]() {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      std::lock_guard<std::mutex> lock(mu);
      seen.insert(std::this_thread::get_id());
    }));
  }
  for (auto& f : futures) {
    f.get();
  }
  EXPECT_GT(seen.size(), 1u);
}

TEST(ThreadPoolTest, DestructorDrainsPendingTasksUnderLoad) {
  // Submit a pile of work and destroy the pool immediately: every task
  // submitted before destruction must still run exactly once.
  std::atomic<int> counter{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 200; ++i) {
      pool.Submit([&counter]() {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        counter.fetch_add(1);
      });
    }
    // No .get() — the destructor is the barrier.
  }
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPoolTest, ClampsThreadCountToAtLeastOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1);
  EXPECT_EQ(pool.Submit([]() { return 42; }).get(), 42);
  EXPECT_GE(ThreadPool::DefaultConcurrency(), 1);
}

TEST(ThreadPoolTest, ExplicitShutdownDrainsAndIsIdempotent) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter]() { counter.fetch_add(1); });
  }
  pool.Shutdown();
  EXPECT_EQ(counter.load(), 100);
  pool.Shutdown();  // Second call is a no-op (and so is the destructor).
}

TEST(ThreadPoolTest, SubmitAfterShutdownRunsInlineNotDropped) {
  ThreadPool pool(2);
  pool.Shutdown();
  // The pool has no workers left; the submission must still run (on the
  // calling thread) and resolve its future rather than being dropped.
  std::thread::id ran_on;
  std::future<int> f = pool.Submit([&ran_on]() {
    ran_on = std::this_thread::get_id();
    return 99;
  });
  ASSERT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  EXPECT_EQ(f.get(), 99);
  EXPECT_EQ(ran_on, std::this_thread::get_id());
  // Exceptions still travel through the future on the inline path.
  std::future<int> bad = pool.Submit([]() -> int { throw std::runtime_error("late"); });
  EXPECT_THROW(bad.get(), std::runtime_error);
}

TEST(ThreadPoolTest, SubmissionsRacingShutdownAreNeverDropped) {
  // The regression this guards: a task enqueued between "workers decided to
  // exit" and "queues checked one last time" used to be stranded forever
  // (its future never ready). Hammer the race: submitter threads run flat
  // out while the main thread shuts the pool down mid-stream. Every future
  // must become ready and every task must run exactly once.
  constexpr int kSubmitters = 4;
  constexpr int kPerSubmitter = 500;
  std::atomic<int> executed{0};
  ThreadPool pool(2);
  std::vector<std::thread> submitters;
  std::mutex futures_mu;
  std::vector<std::future<void>> futures;
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&pool, &executed, &futures, &futures_mu]() {
      for (int i = 0; i < kPerSubmitter; ++i) {
        std::future<void> f = pool.Submit([&executed]() { executed.fetch_add(1); });
        std::lock_guard<std::mutex> lock(futures_mu);
        futures.push_back(std::move(f));
      }
    });
  }
  // Let the submitters get going, then shut down while they are mid-stream.
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  pool.Shutdown();
  for (std::thread& t : submitters) {
    t.join();
  }
  for (std::future<void>& f : futures) {
    // Ready (or resolving) — a dropped task would hang here forever.
    ASSERT_EQ(f.wait_for(std::chrono::seconds(30)), std::future_status::ready);
    f.get();
  }
  EXPECT_EQ(executed.load(), kSubmitters * kPerSubmitter);
}

TEST(ThreadPoolTest, PoolTaskFaultIsDeliveredThroughTheFuture) {
  // An injected fault at the pool-task site must surface exactly like any
  // task exception: through the future, leaving the worker loop (and the
  // other tasks) intact.
  failpoint::DisarmAll();
  ASSERT_TRUE(failpoint::Arm(std::string("at=") + failpoint::kPoolTask + ":1").ok());
  ThreadPool pool(2);
  std::future<int> poisoned = pool.Submit([]() { return 1; });
  EXPECT_THROW(poisoned.get(), InternalError);
  std::future<int> healthy = pool.Submit([]() { return 2; });
  EXPECT_EQ(healthy.get(), 2);
  failpoint::DisarmAll();
}

}  // namespace
}  // namespace icarus
