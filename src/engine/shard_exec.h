// Sharded execution backend: per-core run-to-completion pipelines with
// SPSC handoff (the NDN-DPDK forwarding-plane shape).
//
// One worker thread per shard, optionally pinned to a core, drains a
// bounded single-producer/single-consumer ring (util/spsc_ring.h) and
// runs each task to completion — a shard's worker is the only thread
// that ever executes that shard's queries, which is what lets per-shard
// serving state (the result stores) live lock-free. The
// engine's terminal-locality router picks the lane; a per-lane producer
// mutex serializes the many submitter threads into the ring's single
// producer while the consumer side stays lock-free on the hot path
// (the wake/space condition variables are touched only when a side
// announced it is blocked, never per task).
//
// Queue discipline: each ring is FIFO. SubmitOptions::priority remains
// a scheduling hint the sharded backend does not reorder by — results
// never depended on it (see engine.h's determinism contract), so the
// only observable difference from WorkerPool is completion timing.
// Hierarchy rebuilds ride a dedicated control lane (kControlLane) with
// its own thread, preserving the "staleness bounded by one build, not
// by queue depth" property without stealing a query pipeline.
//
// Backpressure: a full ring blocks the submitter (bounded wait + retry)
// and counts the event per lane — visible in EngineStats as
// ring_full_waits, the signal that a shard is oversubscribed.
//
// Shutdown protocol (no task is ever stranded): mark stopping, close
// every ring under its producer mutex (in-flight submitters either got
// in before the close — their task is drained — or observe the closed
// ring and resolve their task with kShutdown themselves), wake and join
// the workers (each cancels the tasks remaining in its ring with
// kShutdown), then sweep still-parked tasks with kVersionUnavailable.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "engine/session.h"
#include "util/spsc_ring.h"
#include "util/thread_annotations.h"

namespace dmf {

class ShardedDispatcher : public QueryDispatcher {
 public:
  struct Options {
    int num_shards = 1;
    std::size_t ring_capacity = 1024;
    // Best-effort thread affinity: shard s -> core s mod hardware
    // cores (Linux only; silently skipped elsewhere or on failure).
    bool pin_threads = true;
  };

  struct LaneStats {
    std::int64_t executed = 0;        // tasks run to completion
    std::int64_t ring_full_waits = 0; // backpressure events on submit
    std::size_t queue_depth = 0;      // sampled ring occupancy
  };

  explicit ShardedDispatcher(Options options);
  ~ShardedDispatcher() override;

  ShardedDispatcher(const ShardedDispatcher&) = delete;
  ShardedDispatcher& operator=(const ShardedDispatcher&) = delete;

  // QueryDispatcher interface. `lane` must be kControlLane or a shard
  // index in [0, num_shards()).
  std::uint64_t dispatch(int priority, std::function<void()> run,
                         CancelFn cancelled, int lane) override;
  std::uint64_t dispatch_parked(int priority, std::function<void()> run,
                                CancelFn cancelled, int lane) override;
  bool release(std::uint64_t id) override;
  bool fail_parked(std::uint64_t id, ErrorCode code) override;
  bool cancel(std::uint64_t id) override;
  void wait_all() override;
  void shutdown() override;
  [[nodiscard]] int threads() const override { return num_shards_; }
  [[nodiscard]] std::int64_t cancelled_count() const override {
    return cancelled_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] int num_shards() const { return num_shards_; }
  [[nodiscard]] LaneStats lane_stats(int lane) const;

 private:
  enum : int {
    kQueued = 0,
    kRunning = 1,
    kCancelled = 2,
    kDone = 3,
    kParked = 4
  };

  struct Task {
    std::uint64_t id = 0;
    int lane = 0;
    std::atomic<int> status{kQueued};
    std::function<void()> run;
    CancelFn cancelled;
  };

  struct Lane {
    explicit Lane(std::size_t capacity) : ring(capacity) {}
    // Holding producer_mutex confers ring.producer_role(); the worker
    // thread is the sole owner of ring.consumer_role() (asserted at the
    // top of shard_loop).
    SpscRing<std::shared_ptr<Task>> ring;
    // Serializes submitter threads into the ring's single producer
    // slot; the consumer (worker) never takes it.
    Mutex producer_mutex;
    // Guards only the two blocked-side waits below; touched by the
    // opposite side only after the sleeping/waiting flag announced a
    // blocked peer.
    Mutex wake_mutex;
    CondVar wake_cv;   // consumer waits: ring drained
    CondVar space_cv;  // producer waits: ring full
    std::atomic<bool> sleeping{false};
    std::atomic<int> producers_waiting{0};
    std::atomic<std::int64_t> executed{0};
    std::atomic<std::int64_t> ring_full_waits{0};
    std::thread worker;
  };

  std::shared_ptr<Task> make_task(int lane, std::function<void()> run,
                                  CancelFn cancelled, bool parked);
  // Push into the lane's ring, waiting out backpressure. Returns false
  // when the ring closed underneath (shutdown) — the caller resolves
  // the task itself.
  bool push_to_lane(int lane, std::shared_ptr<Task> task);
  void enqueue_control(std::shared_ptr<Task> task);
  void resolve_cancelled(const std::shared_ptr<Task>& task, ErrorCode code,
                         bool count_cancelled);
  void shard_loop(int shard);
  void control_loop();
  void run_task(Lane* lane, const std::shared_ptr<Task>& task);
  void finish_one(std::uint64_t id);

  const int num_shards_;
  const bool pin_threads_;
  std::vector<std::unique_ptr<Lane>> lanes_;

  // Control lane: rebuilds and other non-query tasks, plain FIFO.
  Mutex control_mutex_;
  CondVar control_cv_;
  std::deque<std::shared_ptr<Task>> control_queue_
      DMF_GUARDED_BY(control_mutex_);
  std::thread control_worker_;

  // Registry of live tasks (queued, parked, running): cancel/release
  // lookups and the wait_all accounting. Held for map operations only.
  mutable Mutex registry_mutex_;
  CondVar idle_cv_;  // wait_all: pending reached zero; shutdown: joined
  std::unordered_map<std::uint64_t, std::shared_ptr<Task>> by_id_
      DMF_GUARDED_BY(registry_mutex_);
  std::uint64_t next_id_ DMF_GUARDED_BY(registry_mutex_) = 1;
  std::size_t pending_ DMF_GUARDED_BY(registry_mutex_) = 0;
  bool joined_ DMF_GUARDED_BY(registry_mutex_) = false;
  std::atomic<bool> stopping_{false};
  std::atomic<std::int64_t> cancelled_{0};
};

}  // namespace dmf
