// Tests for the FlowEngine v2 session layer: the WorkerPool state
// machine (priority order, race-free cancellation, wait_all, shutdown)
// with and without lanes,
// submission-order/priority/thread-count permutation determinism of
// submitted queries, hierarchy-cache hit accounting, typed error codes,
// and callback completion.
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <future>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "engine/engine.h"
#include "engine/hierarchy_cache.h"
#include "engine/result.h"
#include "engine/session.h"
#include "graph/generators.h"
#include "util/require.h"
#include "util/rng.h"

namespace dmf {
namespace {

// A latch the tests use to hold a worker hostage deterministically.
class Gate {
 public:
  void open() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      open_ = true;
    }
    cv_.notify_all();
  }
  void wait() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return open_; });
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool open_ = false;
};

TEST(WorkerPool, PriorityOrdersExecutionTiesBySubmission) {
  WorkerPool pool(1);
  Gate entered;
  Gate release;
  // Occupy the single worker so the remaining tasks queue up.
  pool.submit(
      0,
      [&] {
        entered.open();
        release.wait();
      },
      [](ErrorCode) {});
  entered.wait();

  std::mutex order_mutex;
  std::vector<int> order;
  const auto record = [&](int tag) {
    return [&, tag] {
      std::lock_guard<std::mutex> lock(order_mutex);
      order.push_back(tag);
    };
  };
  pool.submit(1, record(1), [](ErrorCode) {});
  pool.submit(5, record(5), [](ErrorCode) {});
  pool.submit(3, record(3), [](ErrorCode) {});
  pool.submit(5, record(50), [](ErrorCode) {});  // ties: submission order
  release.open();
  pool.wait_all();
  EXPECT_EQ(order, (std::vector<int>{5, 50, 3, 1}));
}

TEST(WorkerPool, CancelQueuedTaskNeverRunsIt) {
  WorkerPool pool(1);
  Gate entered;
  Gate release;
  pool.submit(
      0,
      [&] {
        entered.open();
        release.wait();
      },
      [](ErrorCode) {});
  entered.wait();

  std::atomic<int> ran{0};
  std::atomic<int> cancelled_code{-1};
  const std::uint64_t doomed = pool.submit(
      0, [&] { ran.fetch_add(1); },
      [&](ErrorCode code) { cancelled_code = static_cast<int>(code); });
  std::atomic<int> survivor_ran{0};
  pool.submit(0, [&] { survivor_ran.fetch_add(1); }, [](ErrorCode) {});

  EXPECT_TRUE(pool.cancel(doomed));
  EXPECT_FALSE(pool.cancel(doomed));  // second cancel is a no-op
  release.open();
  pool.wait_all();
  EXPECT_EQ(ran.load(), 0);
  EXPECT_EQ(cancelled_code.load(), static_cast<int>(ErrorCode::kCancelled));
  EXPECT_EQ(survivor_ran.load(), 1);
  EXPECT_EQ(pool.cancelled_count(), 1);
}

TEST(WorkerPool, CancelFailsOnceRunning) {
  WorkerPool pool(1);
  Gate entered;
  Gate release;
  const std::uint64_t running = pool.submit(
      0,
      [&] {
        entered.open();
        release.wait();
      },
      [](ErrorCode) {});
  entered.wait();
  EXPECT_FALSE(pool.cancel(running));
  release.open();
  pool.wait_all();
  EXPECT_FALSE(pool.cancel(running));  // finished: also uncancellable
  EXPECT_EQ(pool.cancelled_count(), 0);
}

TEST(WorkerPool, ShutdownFailsQueuedTasksWithShutdownCode) {
  std::atomic<int> shutdown_codes{0};
  std::atomic<int> ran{0};
  {
    WorkerPool pool(1);
    Gate entered;
    Gate release;
    pool.submit(
        0,
        [&] {
          entered.open();
          release.wait();
          ran.fetch_add(1);
        },
        [](ErrorCode) {});
    entered.wait();
    for (int i = 0; i < 3; ++i) {
      pool.submit(
          0, [&] { ran.fetch_add(1); },
          [&](ErrorCode code) {
            // The worker stays hostage until shutdown() has drained the
            // queue (the third kShutdown callback opens the gate), so
            // none of these three can ever run.
            if (code == ErrorCode::kShutdown &&
                shutdown_codes.fetch_add(1) == 2) {
              release.open();
            }
          });
    }
    pool.shutdown();  // fails the queued three, then joins the worker
  }
  EXPECT_EQ(ran.load(), 1);
  EXPECT_EQ(shutdown_codes.load(), 3);
}

// --- parked tasks (the min_version machinery) --------------------------------

TEST(WorkerPool, ParkedTaskRunsOnlyAfterRelease) {
  WorkerPool pool(1);
  std::atomic<int> ran{0};
  const std::uint64_t id = pool.submit_parked(
      0, [&] { ran.fetch_add(1); }, [](ErrorCode) {});
  // An idle worker must not pick it up; an unrelated task drains fine
  // around it.
  std::atomic<int> other{0};
  pool.submit(0, [&] { other.fetch_add(1); }, [](ErrorCode) {});
  while (other.load() == 0) std::this_thread::yield();
  EXPECT_EQ(ran.load(), 0);

  EXPECT_TRUE(pool.release(id));
  EXPECT_FALSE(pool.release(id));  // second release is a no-op
  pool.wait_all();
  EXPECT_EQ(ran.load(), 1);
}

TEST(WorkerPool, ParkedTaskCancelAndFail) {
  WorkerPool pool(1);
  std::atomic<int> cancelled_code{-1};
  const std::uint64_t doomed = pool.submit_parked(
      0, [] {},
      [&](ErrorCode code) { cancelled_code = static_cast<int>(code); });
  EXPECT_TRUE(pool.cancel(doomed));
  EXPECT_EQ(cancelled_code.load(), static_cast<int>(ErrorCode::kCancelled));
  EXPECT_FALSE(pool.release(doomed));  // gone

  std::atomic<int> failed_code{-1};
  const std::uint64_t unlucky = pool.submit_parked(
      0, [] {}, [&](ErrorCode code) { failed_code = static_cast<int>(code); });
  EXPECT_TRUE(pool.fail_parked(unlucky, ErrorCode::kVersionUnavailable));
  EXPECT_EQ(failed_code.load(),
            static_cast<int>(ErrorCode::kVersionUnavailable));
  EXPECT_FALSE(pool.fail_parked(unlucky, ErrorCode::kVersionUnavailable));
  pool.wait_all();  // both resolved; wait_all does not hang on them
}

TEST(WorkerPool, ShutdownFailsParkedTasksWithVersionUnavailable) {
  std::atomic<int> code{-1};
  std::atomic<int> ran{0};
  {
    WorkerPool pool(1);
    pool.submit_parked(
        0, [&] { ran.fetch_add(1); },
        [&](ErrorCode c) { code = static_cast<int>(c); });
  }
  EXPECT_EQ(ran.load(), 0);
  EXPECT_EQ(code.load(), static_cast<int>(ErrorCode::kVersionUnavailable));
}

// --- lanes (the sharded engine's execution) ----------------------------------

// Occupies every worker of `lanes` (query lanes, then the control lane)
// until `release` opens, so the tasks submitted next queue up.
void hold_lanes(WorkerPool& pool, const std::vector<int>& lanes,
                Gate& release) {
  std::atomic<int> entered{0};
  for (const int lane : lanes) {
    pool.submit(
        0,
        [&entered, &release] {
          entered.fetch_add(1);
          release.wait();
        },
        [](ErrorCode) {}, lane);
  }
  while (entered.load() < static_cast<int>(lanes.size())) {
    std::this_thread::yield();
  }
}

TEST(WorkerPool, LanesOrderByPriorityThenSubmission) {
  WorkerPool pool(/*threads=*/1, /*lanes=*/2);
  EXPECT_EQ(pool.lanes(), 2);
  EXPECT_EQ(pool.threads(), 3);  // one worker per lane + the control lane
  Gate release;
  hold_lanes(pool, {0, 1}, release);
  // Each lane has one worker, so each order vector is touched by one
  // thread only.
  std::vector<int> order0;
  std::vector<int> order1;
  const auto submit = [&](int lane, int priority, int tag) {
    std::vector<int>& order = lane == 0 ? order0 : order1;
    pool.submit(
        priority, [&order, tag] { order.push_back(tag); }, [](ErrorCode) {},
        lane);
  };
  submit(0, 1, 1);
  submit(1, 7, 70);
  submit(0, 5, 5);
  submit(1, 7, 71);  // ties: submission order
  submit(0, 3, 3);
  submit(1, 2, 20);
  submit(0, 5, 50);
  EXPECT_EQ(pool.lane_stats(0).queue_depth, 4u);
  EXPECT_EQ(pool.lane_stats(1).queue_depth, 3u);
  release.open();
  pool.wait_all();
  EXPECT_EQ(order0, (std::vector<int>{5, 50, 3, 1}));
  EXPECT_EQ(order1, (std::vector<int>{70, 71, 20}));
}

TEST(WorkerPool, LanesRunEqualPriorityFirstInFirstOut) {
  WorkerPool pool(1, 2);
  std::vector<int> order0;  // touched only by lane 0's worker
  std::vector<int> order1;
  constexpr int kTasks = 100;
  for (int i = 0; i < kTasks; ++i) {
    pool.submit(0, [&order0, i] { order0.push_back(i); }, [](ErrorCode) {},
                0);
    pool.submit(0, [&order1, i] { order1.push_back(i); }, [](ErrorCode) {},
                1);
  }
  pool.wait_all();
  ASSERT_EQ(order0.size(), static_cast<std::size_t>(kTasks));
  ASSERT_EQ(order1.size(), static_cast<std::size_t>(kTasks));
  for (int i = 0; i < kTasks; ++i) {
    EXPECT_EQ(order0[static_cast<std::size_t>(i)], i);
    EXPECT_EQ(order1[static_cast<std::size_t>(i)], i);
  }
  EXPECT_EQ(pool.lane_stats(0).executed, kTasks);
  EXPECT_EQ(pool.lane_stats(1).executed, kTasks);
  EXPECT_EQ(pool.lane_stats(0).queue_depth, 0u);
  EXPECT_EQ(pool.cancelled_count(), 0);
}

TEST(WorkerPool, LaneCancelQueuedTaskNeverRuns) {
  WorkerPool pool(1, 2);
  Gate release;
  hold_lanes(pool, {1}, release);
  std::atomic<int> ran{0};
  std::atomic<int> cancel_code{-1};
  const std::uint64_t id = pool.submit(
      0, [&ran] { ran.fetch_add(1); },
      [&cancel_code](ErrorCode c) { cancel_code = static_cast<int>(c); }, 1);
  EXPECT_TRUE(pool.cancel(id));
  EXPECT_FALSE(pool.cancel(id));  // already resolved
  release.open();
  pool.wait_all();
  EXPECT_EQ(ran.load(), 0);
  EXPECT_EQ(cancel_code.load(), static_cast<int>(ErrorCode::kCancelled));
  EXPECT_EQ(pool.cancelled_count(), 1);
  EXPECT_EQ(pool.lane_stats(1).executed, 1);  // the holder only
}

TEST(WorkerPool, LaneParkedReleaseAndFail) {
  WorkerPool pool(1, 2);
  // The lane's worker identity: a released task must run on it.
  std::thread::id lane1_worker;
  pool.submit(0, [&] { lane1_worker = std::this_thread::get_id(); },
              [](ErrorCode) {}, 1);
  pool.wait_all();
  std::thread::id released_on;
  std::atomic<int> failed_code{-1};
  const std::uint64_t runs = pool.submit_parked(
      0, [&] { released_on = std::this_thread::get_id(); }, [](ErrorCode) {},
      1);
  const std::uint64_t fails = pool.submit_parked(
      0, [] {},
      [&failed_code](ErrorCode c) { failed_code = static_cast<int>(c); }, 0);
  EXPECT_EQ(pool.lane_stats(1).queue_depth, 0u);  // parked is not queued
  EXPECT_TRUE(pool.release(runs));
  EXPECT_FALSE(pool.release(runs));  // no longer parked
  EXPECT_TRUE(pool.fail_parked(fails, ErrorCode::kVersionUnavailable));
  EXPECT_FALSE(pool.fail_parked(fails, ErrorCode::kVersionUnavailable));
  pool.wait_all();
  EXPECT_EQ(released_on, lane1_worker);
  EXPECT_EQ(pool.lane_stats(1).executed, 2);
  EXPECT_EQ(pool.lane_stats(0).executed, 0);
  EXPECT_EQ(failed_code.load(),
            static_cast<int>(ErrorCode::kVersionUnavailable));
}

TEST(WorkerPool, ControlLaneRunsWhileEveryQueryLaneIsBlocked) {
  WorkerPool pool(1, 2);
  Gate release;
  hold_lanes(pool, {0, 1}, release);
  std::atomic<int> control_ran{0};
  // Both query lanes are hostage; the control task must still run (on
  // its own worker) — and it is what frees them.
  pool.submit(
      0,
      [&control_ran, &release] {
        control_ran.fetch_add(1);
        release.open();
      },
      [](ErrorCode) {}, WorkerPool::kControlLane);
  pool.wait_all();
  EXPECT_EQ(control_ran.load(), 1);
}

TEST(WorkerPool, LaneShutdownResolvesQueuedAndParkedOnEveryLane) {
  const std::vector<int> lanes = {0, 1, WorkerPool::kControlLane};
  std::atomic<int> ran{0};
  std::atomic<int> shutdown_codes{0};
  std::atomic<int> unavailable_codes{0};
  {
    WorkerPool pool(1, 2);
    Gate release;
    hold_lanes(pool, lanes, release);
    for (const int lane : lanes) {
      pool.submit(
          0, [&ran] { ran.fetch_add(1); },
          [&](ErrorCode code) {
            // Every worker stays hostage until shutdown() has drained
            // all three lanes (the last kShutdown opens the gate), so no
            // queued task can ever run.
            if (code == ErrorCode::kShutdown &&
                shutdown_codes.fetch_add(1) == 2) {
              release.open();
            }
          },
          lane);
      pool.submit_parked(
          0, [&ran] { ran.fetch_add(1); },
          [&unavailable_codes](ErrorCode code) {
            if (code == ErrorCode::kVersionUnavailable) {
              unavailable_codes.fetch_add(1);
            }
          },
          lane);
    }
    pool.shutdown();
  }
  EXPECT_EQ(ran.load(), 0);
  EXPECT_EQ(shutdown_codes.load(), 3);
  EXPECT_EQ(unavailable_codes.load(), 3);
}

TEST(WorkerPool, SubmitAfterShutdownAndOutOfRangeLaneThrow) {
  WorkerPool plain(1);
  EXPECT_THROW(plain.submit(0, [] {}, [](ErrorCode) {}, 1), RequirementError);
  EXPECT_THROW((void)plain.lane_stats(1), RequirementError);
  WorkerPool pool(1, 2);
  EXPECT_THROW(pool.submit(0, [] {}, [](ErrorCode) {}, 2), RequirementError);
  EXPECT_THROW(pool.submit_parked(0, [] {}, [](ErrorCode) {}, -2),
               RequirementError);
  EXPECT_THROW((void)pool.lane_stats(2), RequirementError);
  pool.shutdown();
  EXPECT_THROW(pool.submit(0, [] {}, [](ErrorCode) {}, 0), RequirementError);
  EXPECT_THROW(
      pool.submit(0, [] {}, [](ErrorCode) {}, WorkerPool::kControlLane),
      RequirementError);
}

// --- engine-level async semantics -------------------------------------------

EngineOptions session_options(int threads) {
  EngineOptions options;
  options.threads = threads;
  options.sherman.num_trees = 4;
  options.seed = 42424242;
  // Keep the test graphs above the exact cutoff so multi-terminal
  // queries ride the sherman path (and thus the hierarchy cache).
  options.exact_cutoff_nodes = 16;
  return options;
}

struct ReferenceResults {
  std::vector<Result<MaxFlowApproxResult>> max_flows;
  Result<MultiTerminalMaxFlowResult> multi;
};

// The acceptance-criterion property: submit-based execution is bitwise
// identical regardless of submission order, priority, or thread count.
TEST(FlowEngineSession, PermutationPriorityThreadDeterminism) {
  Rng rng(101);
  const Graph g = make_gnp_connected(70, 0.09, {1, 9}, rng);
  std::vector<MaxFlowQuery> queries;
  for (int i = 0; i < 6; ++i) {
    queries.push_back(
        MaxFlowQuery{static_cast<NodeId>(i), static_cast<NodeId>(69 - i)});
  }
  const MultiTerminalQuery multi{{0, 1, 2}, {67, 68, 69}, 0.0, false};

  // Reference: sequential engine, natural order, default priority.
  ReferenceResults reference;
  {
    FlowEngine engine(g, session_options(1));
    std::vector<MaxFlowTicket> tickets;
    for (const MaxFlowQuery& q : queries) tickets.push_back(engine.submit(q));
    MultiTerminalTicket mt = engine.submit(multi);
    for (MaxFlowTicket& t : tickets) reference.max_flows.push_back(t.get());
    reference.multi = mt.get();
  }
  for (const auto& r : reference.max_flows) ASSERT_TRUE(r.ok()) << r.message;
  ASSERT_TRUE(reference.multi.ok()) << reference.multi.message;

  // Property sweep: shuffled submission order x random priorities x
  // thread counts.
  Rng shuffle_rng(202);
  for (const int threads : {1, 2, 4}) {
    for (int round = 0; round < 3; ++round) {
      std::vector<std::size_t> perm(queries.size());
      for (std::size_t i = 0; i < perm.size(); ++i) perm[i] = i;
      shuffle_rng.shuffle(perm);

      FlowEngine engine(g, session_options(threads));
      std::vector<MaxFlowTicket> tickets(queries.size());
      const SubmitOptions multi_opts{
          static_cast<int>(shuffle_rng.next_below(7)) - 3};
      MultiTerminalTicket mt = engine.submit(multi, multi_opts);
      for (const std::size_t i : perm) {
        const SubmitOptions opts{
            static_cast<int>(shuffle_rng.next_below(7)) - 3};
        tickets[i] = engine.submit(queries[i], opts);
      }
      for (std::size_t i = 0; i < tickets.size(); ++i) {
        const Result<MaxFlowApproxResult> got = tickets[i].get();
        ASSERT_TRUE(got.ok()) << got.message;
        EXPECT_EQ(got.solver, reference.max_flows[i].solver);
        EXPECT_EQ(got.value().value, reference.max_flows[i].value().value)
            << "threads=" << threads << " round=" << round << " query=" << i;
        EXPECT_EQ(got.value().flow, reference.max_flows[i].value().flow);
      }
      const Result<MultiTerminalMaxFlowResult> got_multi = mt.get();
      ASSERT_TRUE(got_multi.ok()) << got_multi.message;
      EXPECT_EQ(got_multi.value().value, reference.multi.value().value);
      EXPECT_EQ(got_multi.value().flow, reference.multi.value().flow);
    }
  }
}

TEST(FlowEngineSession, HierarchyCacheHitAccounting) {
  Rng rng(303);
  const Graph g = make_gnp_connected(60, 0.1, {1, 9}, rng);
  FlowEngine engine(g, session_options(2));

  const std::vector<NodeId> set_a_src{0, 1};
  const std::vector<NodeId> set_a_snk{58, 59};
  const std::vector<NodeId> set_b_src{2, 3, 4};
  const std::vector<NodeId> set_b_snk{55, 56};

  std::vector<MultiTerminalTicket> tickets;
  tickets.push_back(engine.submit(MultiTerminalQuery{set_a_src, set_a_snk}));
  tickets.push_back(engine.submit(MultiTerminalQuery{set_b_src, set_b_snk}));
  // Same set as A, permuted order: canonicalization must make it a hit.
  tickets.push_back(engine.submit(MultiTerminalQuery{{1, 0}, {59, 58}}));
  tickets.push_back(engine.submit(MultiTerminalQuery{set_a_src, set_a_snk}));
  // Same set as A at a different epsilon: the hierarchy is still shared.
  tickets.push_back(
      engine.submit(MultiTerminalQuery{set_a_src, set_a_snk, 0.4, false}));
  tickets.push_back(engine.submit(MultiTerminalQuery{set_b_src, set_b_snk}));
  engine.wait_all();

  std::vector<Result<MultiTerminalMaxFlowResult>> results;
  for (MultiTerminalTicket& t : tickets) results.push_back(t.get());
  for (const auto& r : results) ASSERT_TRUE(r.ok()) << r.message;

  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.hierarchy_cache_misses, 2);  // one build per distinct set
  EXPECT_EQ(stats.hierarchy_cache_hits, 4);
  EXPECT_EQ(stats.queries_served, 6);

  // Identical query content => bitwise identical results, including the
  // terminal-order permutation.
  EXPECT_EQ(results[0].value().value, results[2].value().value);
  EXPECT_EQ(results[0].value().flow, results[2].value().flow);
  EXPECT_EQ(results[0].value().value, results[3].value().value);
  EXPECT_EQ(results[0].value().flow, results[3].value().flow);
  EXPECT_EQ(results[1].value().value, results[5].value().value);
  EXPECT_EQ(results[1].value().flow, results[5].value().flow);
  // Different epsilon shares the hierarchy but may answer differently.
  EXPECT_GT(results[4].value().value, 0.0);
}

// The cache only saves builds: every answer it serves equals the answer
// of a fresh engine that has seen no other query.
TEST(FlowEngineSession, CachedAnswersMatchFreshEngines) {
  Rng rng(404);
  const Graph g = make_gnp_connected(50, 0.12, {1, 9}, rng);
  const std::vector<MultiTerminalQuery> queries = {
      {{0, 1}, {48, 49}, 0.0, false},
      {{1, 0}, {49, 48}, 0.0, false},  // same sets, reordered: a hit
      {{0, 1}, {48, 49}, 0.1, false},  // same sets, other epsilon: a hit
  };
  FlowEngine cached(g, session_options(1));
  for (const MultiTerminalQuery& query : queries) {
    const Result<MultiTerminalMaxFlowResult> a = cached.submit(query).get();
    FlowEngine fresh(g, session_options(1));
    const Result<MultiTerminalMaxFlowResult> b = fresh.submit(query).get();
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(a.value().value, b.value().value);
    EXPECT_EQ(a.value().flow, b.value().flow);
    EXPECT_EQ(fresh.stats().hierarchy_cache_misses, 1);
  }
  EXPECT_EQ(cached.stats().hierarchy_cache_misses, 1);
  EXPECT_EQ(cached.stats().hierarchy_cache_hits, 2);
}

TEST(HierarchyCache, EvictsLeastRecentlyUsedAtCapacity) {
  Rng rng(808);
  const Graph g = make_gnp_connected(30, 0.2, {1, 5}, rng);
  HierarchyCache cache(/*capacity=*/2);
  int builds = 0;
  const HierarchyCache::Builder builder =
      [&](const std::vector<NodeId>& srcs, const std::vector<NodeId>& snks) {
        ++builds;
        ShermanOptions options;
        options.num_trees = 2;
        Rng build_rng(9);
        return build_super_terminal_hierarchy(g, srcs, snks, options,
                                              build_rng);
      };
  (void)cache.get_or_build({0}, {29}, builder);  // A
  (void)cache.get_or_build({1}, {28}, builder);  // B
  EXPECT_EQ(cache.size(), 2u);
  (void)cache.get_or_build({0}, {29}, builder);  // touch A (hit)
  (void)cache.get_or_build({2}, {27}, builder);  // C evicts B (LRU)
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(builds, 3);
  bool hit = false;
  (void)cache.get_or_build({0}, {29}, builder, &hit);  // A survived
  EXPECT_TRUE(hit);
  (void)cache.get_or_build({1}, {28}, builder, &hit);  // B was evicted
  EXPECT_FALSE(hit);
  EXPECT_EQ(builds, 4);
}

TEST(HierarchyCache, CapacityZeroNeverEvicts) {
  Rng rng(811);
  const Graph g = make_gnp_connected(30, 0.2, {1, 5}, rng);
  HierarchyCache cache(/*capacity=*/0);  // unbounded
  int builds = 0;
  const HierarchyCache::Builder builder =
      [&](const std::vector<NodeId>& srcs, const std::vector<NodeId>& snks) {
        ++builds;
        ShermanOptions options;
        options.num_trees = 2;
        Rng build_rng(9);
        return build_super_terminal_hierarchy(g, srcs, snks, options,
                                              build_rng);
      };
  constexpr int kDistinct = 8;
  for (int i = 0; i < kDistinct; ++i) {
    (void)cache.get_or_build({static_cast<NodeId>(i)},
                             {static_cast<NodeId>(29 - i)}, builder);
  }
  EXPECT_EQ(cache.size(), static_cast<std::size_t>(kDistinct));
  // Re-request everything, oldest first: with no eviction every one is
  // a hit and no build repeats.
  for (int i = 0; i < kDistinct; ++i) {
    bool hit = false;
    (void)cache.get_or_build({static_cast<NodeId>(i)},
                             {static_cast<NodeId>(29 - i)}, builder, &hit);
    EXPECT_TRUE(hit) << "set " << i;
  }
  EXPECT_EQ(builds, kDistinct);
  EXPECT_EQ(cache.hits(), kDistinct);
  EXPECT_EQ(cache.misses(), kDistinct);
}

TEST(HierarchyCache, CapacityOneThrashesButStaysCorrect) {
  Rng rng(812);
  const Graph g = make_gnp_connected(30, 0.2, {1, 5}, rng);
  HierarchyCache cache(/*capacity=*/1);
  int builds = 0;
  const HierarchyCache::Builder builder =
      [&](const std::vector<NodeId>& srcs, const std::vector<NodeId>& snks) {
        ++builds;
        ShermanOptions options;
        options.num_trees = 2;
        Rng build_rng(9);
        return build_super_terminal_hierarchy(g, srcs, snks, options,
                                              build_rng);
      };
  // Alternating keys with room for only one: every request after the
  // first for a key re-pays the build (pure thrash)...
  bool hit = true;
  for (int round = 0; round < 3; ++round) {
    (void)cache.get_or_build({0}, {29}, builder, &hit);
    EXPECT_FALSE(hit);
    (void)cache.get_or_build({1}, {28}, builder, &hit);
    EXPECT_FALSE(hit);
    EXPECT_EQ(cache.size(), 1u);  // never exceeds capacity
  }
  EXPECT_EQ(builds, 6);
  EXPECT_EQ(cache.misses(), 6);
  EXPECT_EQ(cache.hits(), 0);
  // ...while back-to-back requests for the single resident key hit.
  (void)cache.get_or_build({1}, {28}, builder, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(cache.hits(), 1);
  EXPECT_EQ(builds, 6);
}

// Hit/miss accounting across evictions: an evicted-and-rebuilt key is a
// fresh miss, stats are monotone, and clear() resets them with the
// entries.
TEST(HierarchyCache, StatsAccountAcrossEvictions) {
  Rng rng(813);
  const Graph g = make_gnp_connected(30, 0.2, {1, 5}, rng);
  HierarchyCache cache(/*capacity=*/2);
  const HierarchyCache::Builder builder =
      [&](const std::vector<NodeId>& srcs, const std::vector<NodeId>& snks) {
        ShermanOptions options;
        options.num_trees = 2;
        Rng build_rng(9);
        return build_super_terminal_hierarchy(g, srcs, snks, options,
                                              build_rng);
      };
  (void)cache.get_or_build({0}, {29}, builder);  // miss: A
  (void)cache.get_or_build({0}, {29}, builder);  // hit: A
  (void)cache.get_or_build({1}, {28}, builder);  // miss: B
  (void)cache.get_or_build({2}, {27}, builder);  // miss: C evicts A
  EXPECT_EQ(cache.misses(), 3);
  EXPECT_EQ(cache.hits(), 1);
  (void)cache.get_or_build({0}, {29}, builder);  // miss again: A evicted
  EXPECT_EQ(cache.misses(), 4);
  EXPECT_EQ(cache.hits(), 1);
  // The eviction itself never subtracts from either counter, and the
  // live-entry count stays bounded.
  EXPECT_EQ(cache.size(), 2u);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.hits(), 0);
  EXPECT_EQ(cache.misses(), 0);
}

TEST(HierarchyCache, FailedBuildIsRetriedNotCached) {
  Rng rng(809);
  const Graph g = make_gnp_connected(20, 0.3, {1, 5}, rng);
  HierarchyCache cache;
  int attempts = 0;
  const HierarchyCache::Builder flaky =
      [&](const std::vector<NodeId>& srcs, const std::vector<NodeId>& snks) {
        if (++attempts == 1) throw std::runtime_error("transient");
        ShermanOptions options;
        options.num_trees = 2;
        Rng build_rng(9);
        return build_super_terminal_hierarchy(g, srcs, snks, options,
                                              build_rng);
      };
  EXPECT_THROW((void)cache.get_or_build({0}, {19}, flaky),
               std::runtime_error);
  EXPECT_EQ(cache.size(), 0u);  // the failed key was forgotten
  bool hit = true;
  const auto entry = cache.get_or_build({0}, {19}, flaky, &hit);
  EXPECT_FALSE(hit);  // a fresh build, not a cached exception
  EXPECT_NE(entry, nullptr);
  EXPECT_EQ(attempts, 2);
}

TEST(FlowEngineSession, ThrowingCallbackDoesNotKillTheWorker) {
  Rng rng(810);
  const Graph g = make_gnp_connected(40, 0.15, {1, 9}, rng);
  FlowEngine engine(g, session_options(1));
  MaxFlowTicket ticket = engine.submit(
      MaxFlowQuery{0, 39}, [](const Result<MaxFlowApproxResult>&) {
        throw std::runtime_error("callback bug");
      });
  const Result<MaxFlowApproxResult> result = ticket.get();
  EXPECT_TRUE(result.ok()) << result.message;  // resolution unaffected
  // The pool survived: a follow-up query still runs.
  const Result<MaxFlowApproxResult> after =
      engine.submit(MaxFlowQuery{1, 38}).get();
  EXPECT_TRUE(after.ok()) << after.message;
}

TEST(FlowEngineSession, CancellationOfQueuedTickets) {
  Rng rng(505);
  const Graph g = make_gnp_connected(60, 0.1, {1, 9}, rng);
  FlowEngine engine(g, session_options(1));

  // Saturate the single worker, then cancel from the back of the queue.
  std::vector<MaxFlowTicket> tickets;
  for (int i = 0; i < 8; ++i) {
    tickets.push_back(
        engine.submit(MaxFlowQuery{static_cast<NodeId>(i),
                                   static_cast<NodeId>(59 - i)}));
  }
  int cancelled = 0;
  for (auto it = tickets.rbegin(); it != tickets.rend(); ++it) {
    if (it->cancel()) ++cancelled;
  }
  engine.wait_all();

  int resolved_cancelled = 0;
  for (MaxFlowTicket& t : tickets) {
    Result<MaxFlowApproxResult> r = t.get();
    if (r.code == ErrorCode::kCancelled) {
      ++resolved_cancelled;
      EXPECT_FALSE(r.payload.has_value());
    } else {
      ASSERT_TRUE(r.ok()) << r.message;
    }
  }
  // cancel() returning true and a kCancelled resolution are one and the
  // same event; stats agree.
  EXPECT_EQ(resolved_cancelled, cancelled);
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.queries_cancelled, cancelled);
  EXPECT_EQ(stats.queries_served + stats.queries_cancelled, 8);
  // The single worker can only have claimed a couple of queries in the
  // instants before the back-to-front cancel sweep finished.
  EXPECT_GE(cancelled, 4);
}

TEST(FlowEngineSession, CallbackRunsBeforeTicketResolves) {
  Rng rng(606);
  const Graph g = make_gnp_connected(40, 0.15, {1, 9}, rng);
  FlowEngine engine(g, session_options(2));

  std::promise<double> seen;
  MaxFlowTicket ticket = engine.submit(
      MaxFlowQuery{0, 39},
      [&](const Result<MaxFlowApproxResult>& r) {
        seen.set_value(r.ok() ? r.value().value : -1.0);
      });
  const Result<MaxFlowApproxResult> result = ticket.get();
  ASSERT_TRUE(result.ok()) << result.message;
  // The callback observed the same result the ticket resolved with.
  EXPECT_EQ(seen.get_future().get(), result.value().value);
}

TEST(FlowEngineSession, ClassifierMapsLibraryErrors) {
  EXPECT_EQ(classify_error(RequirementError(
                "x.cpp:1: requirement failed: c — super_terminal_graph: "
                "isolated terminal (node 3 has no incident capacity)")),
            ErrorCode::kIsolatedTerminal);
  EXPECT_EQ(classify_error(RequirementError(
                "x.cpp:1: requirement failed: c — route: demand must sum "
                "to zero")),
            ErrorCode::kInvalidQuery);
  EXPECT_EQ(classify_error(RequirementError(
                "x.cpp:1: requirement failed: c — max_flow: "
                "zero-congestion route")),
            ErrorCode::kNumericalFailure);
  EXPECT_EQ(classify_error(RequirementError("anything else")),
            ErrorCode::kPreconditionFailed);
  EXPECT_EQ(classify_error(std::runtime_error("boom")),
            ErrorCode::kInternalError);
}

TEST(FlowEngineSession, ShutdownResolvesOutstandingTickets) {
  Rng rng(707);
  const Graph g = make_gnp_connected(60, 0.1, {1, 9}, rng);
  std::vector<MaxFlowTicket> tickets;
  {
    FlowEngine engine(g, session_options(1));
    for (int i = 0; i < 6; ++i) {
      tickets.push_back(
          engine.submit(MaxFlowQuery{static_cast<NodeId>(i),
                                     static_cast<NodeId>(59 - i)}));
    }
    // Engine destroyed here with most of the queue still pending.
  }
  int shutdown_count = 0;
  for (MaxFlowTicket& t : tickets) {
    Result<MaxFlowApproxResult> r = t.get();  // must not hang
    if (r.code == ErrorCode::kShutdown) {
      ++shutdown_count;
    } else {
      ASSERT_TRUE(r.ok()) << r.message;
    }
    EXPECT_FALSE(t.cancel());  // pool is gone; cancel is a safe no-op
  }
  // The single worker can have completed only what it started before the
  // destructor drained the queue.
  EXPECT_GE(shutdown_count, 4);
}

}  // namespace
}  // namespace dmf
