// Regression tests for dispatcher shutdown races surfaced while
// annotating the locking discipline (util/thread_annotations.h):
//
//  1. WorkerPool::shutdown was not single-flight: a second concurrent
//     caller could reach the join loop (double-join) or return while
//     the winner was still joining, letting the destructor tear down
//     members under live worker threads.
//  2. WorkerPool::threads() read workers_.size() unsynchronized
//     against shutdown's workers_.clear().
//  3. The sharded backend's shutdown returned immediately for the
//     losing caller of the stopping_ exchange, with the same premature-
//     destruction exposure. Sharded engines now run on WorkerPool lanes;
//     the lane cases below keep that contract covered.
//
// The contract under test: shutdown() is idempotent AND blocking —
// whichever thread calls it, it returns only once every worker has
// been joined and every task resolved exactly once. These tests hammer
// that from several threads at once; run them under TSan (the CI tsan
// job includes this binary) to catch regressions as data races even
// when the interleaving happens not to crash.

#include <atomic>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "engine/session.h"

namespace dmf {
namespace {

struct TaskLedger {
  std::atomic<int> ran{0};
  std::atomic<int> cancelled{0};

  [[nodiscard]] std::function<void()> run_fn() {
    return [this] { ran.fetch_add(1, std::memory_order_relaxed); };
  }
  [[nodiscard]] WorkerPool::CancelFn cancel_fn() {
    return [this](ErrorCode) {
      cancelled.fetch_add(1, std::memory_order_relaxed);
    };
  }
  [[nodiscard]] int resolved() const {
    return ran.load() + cancelled.load();
  }
};

void hammer_shutdown(WorkerPool& pool, int callers) {
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(callers));
  for (int i = 0; i < callers; ++i) {
    threads.emplace_back([&pool] { pool.shutdown(); });
  }
  for (std::thread& t : threads) t.join();
}

TEST(ShutdownRace, WorkerPoolConcurrentShutdownResolvesEveryTaskOnce) {
  constexpr int kTasks = 200;
  constexpr int kRounds = 20;
  for (int round = 0; round < kRounds; ++round) {
    TaskLedger ledger;
    WorkerPool pool(2);
    for (int i = 0; i < kTasks; ++i) {
      pool.submit(i % 3, ledger.run_fn(), ledger.cancel_fn());
    }
    // Four racing shutdowns: exactly one may join; all must block
    // until the pool is quiesced. The scope exit then destroys the
    // pool immediately — if any caller returned early, the destructor
    // races the winner's join and TSan (or a crash) reports it.
    hammer_shutdown(pool, 4);
    EXPECT_EQ(ledger.resolved(), kTasks);
  }
}

TEST(ShutdownRace, WorkerPoolThreadsReadableDuringShutdown) {
  WorkerPool pool(3);
  TaskLedger ledger;
  for (int i = 0; i < 64; ++i) {
    pool.submit(0, ledger.run_fn(), ledger.cancel_fn());
  }
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    // Previously raced shutdown's workers_.clear(); threads() now
    // returns a count fixed at construction.
    while (!stop.load(std::memory_order_acquire)) {
      EXPECT_EQ(pool.threads(), 3);
    }
  });
  pool.shutdown();
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(pool.threads(), 3);
  EXPECT_EQ(ledger.resolved(), 64);
}

TEST(ShutdownRace, LanesConcurrentShutdownResolvesEveryTask) {
  constexpr int kTasks = 128;
  constexpr int kRounds = 10;
  for (int round = 0; round < kRounds; ++round) {
    TaskLedger ledger;
    WorkerPool pool(1, 2);
    for (int i = 0; i < kTasks; ++i) {
      const int lane = i % 5 == 0 ? WorkerPool::kControlLane : i % 2;
      pool.submit(i % 3, ledger.run_fn(), ledger.cancel_fn(), lane);
    }
    hammer_shutdown(pool, 4);
    EXPECT_EQ(ledger.resolved(), kTasks);
  }
}

TEST(ShutdownRace, LanesShutdownBlocksUntilParkedSwept) {
  TaskLedger ledger;
  WorkerPool pool(1, 2);
  for (int i = 0; i < 16; ++i) {
    const int lane = i % 4 == 0 ? WorkerPool::kControlLane : i % 2;
    pool.submit_parked(0, ledger.run_fn(), ledger.cancel_fn(), lane);
  }
  hammer_shutdown(pool, 3);
  // Parked tasks never ran; shutdown must have swept all of them, and
  // every concurrent caller must have observed the sweep completed.
  EXPECT_EQ(ledger.ran.load(), 0);
  EXPECT_EQ(ledger.cancelled.load(), 16);
}

}  // namespace
}  // namespace dmf
