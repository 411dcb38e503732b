// Asynchronous query session plumbing for the FlowEngine.
//
// WorkerPool is the engine's one dispatcher: a persistent pool (created
// once with the engine, not per batch) draining priority queues of
// submitted tasks. Without lanes it is one queue shared by all workers;
// with lanes (a sharded engine) every query lane is a queue with exactly
// one worker, plus a control lane for rebuilds. Either way the task
// lifecycle is the same: each submission pairs a run closure with a
// cancel closure; exactly one of the two ever executes, guarded by an
// atomic per-task state machine, so a queued task can be cancelled
// race-free while workers are popping. wait_all() blocks until every
// submitted task has either run or been cancelled.
//
// Ticket<T> is the caller's handle on one submitted query: a one-shot
// future of Result<T> plus cancellation through a weak reference to the
// pool (safe to poke after the engine is gone). Determinism note: the
// pool orders *execution* by priority, but results are computed purely
// from query content, so neither priority, lane, nor pop order can
// change what a ticket yields — only when.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <queue>
#include <thread>
#include <unordered_map>
#include <vector>

#include "engine/result.h"
#include "graph/graph.h"
#include "util/thread_annotations.h"

namespace dmf {

// Per-query submission knobs. Priority is a scheduling hint only: higher
// values are popped first; ties execute in submission order.
struct SubmitOptions {
  int priority = 0;
  // Minimum graph snapshot version the query may be served from. 0 (the
  // default) serves from whatever the engine currently holds — possibly
  // a snapshot older than the store's latest while a background rebuild
  // is in flight. A positive value parks the query until a hierarchy of
  // at least that version is swapped in; if the engine shuts down first,
  // or the rebuild for that version fails, the ticket resolves with
  // ErrorCode::kVersionUnavailable. Neither setting ever changes what a
  // query computes for a given snapshot — only which snapshot serves it.
  GraphVersion min_version = 0;
};

// The engine-wide thread-count policy: a positive request is taken
// as-is, 0 means all hardware threads (at least 1). Shared by the
// worker pool and the hierarchy-build parallelism so the two can never
// drift.
[[nodiscard]] int resolve_worker_threads(int requested);

class WorkerPool {
 public:
  // Fulfills the task's promise with the given terminal code without
  // running the query.
  using CancelFn = std::function<void(ErrorCode)>;

  // Lane for tasks that must never queue behind (or occupy) the query
  // lanes — hierarchy rebuilds. With lanes it has its own worker; a
  // pool without lanes folds it into the one queue (lane 0) at its
  // priority.
  static constexpr int kControlLane = -1;

  struct LaneStats {
    std::int64_t executed = 0;    // tasks run to completion
    std::size_t queue_depth = 0;  // tasks waiting in the lane's queue
  };

  // lanes == 0: one priority queue drained by `threads` workers
  // (0 = all hardware threads). lanes == K > 0: K query lanes plus the
  // control lane, each a priority queue with exactly one worker, so a
  // query lane's tasks never run concurrently with each other; query
  // lane s pins best-effort to core s mod hardware cores, and `threads`
  // is ignored.
  explicit WorkerPool(int threads, int lanes = 0);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  // Enqueue a task onto `lane` (0 without lanes; kControlLane or a
  // query lane in [0, lanes) otherwise); returns its id (for cancel()).
  // `run` must not throw.
  std::uint64_t submit(int priority, std::function<void()> run,
                       CancelFn cancelled, int lane = 0);

  // Enqueue a task in the *parked* state: it holds an id (cancellable,
  // counted by wait_all) but no worker will pop it until release(id)
  // moves it into its lane. The engine parks queries whose
  // SubmitOptions::min_version is ahead of the serving snapshot.
  std::uint64_t submit_parked(int priority, std::function<void()> run,
                              CancelFn cancelled, int lane = 0);

  // Move a parked task into its lane at its submission priority.
  // Returns false if the task is not parked anymore (released before,
  // cancelled, unknown) or the pool is shutting down (shutdown resolves
  // parked tasks itself).
  bool release(std::uint64_t id);

  // Resolve a still-parked task with `code` without ever running it
  // (used when the version a parked query waits for can never be
  // served). Returns false if the task is not parked anymore.
  bool fail_parked(std::uint64_t id, ErrorCode code);

  // Cancel a still-queued (or still-parked) task: its CancelFn runs
  // (with kCancelled) and true is returned. Returns false if the task
  // already started, finished, was cancelled before, or the id is
  // unknown.
  bool cancel(std::uint64_t id);

  // Block until every task submitted so far has run or been cancelled.
  void wait_all();

  // Cancel everything still queued on any lane (with kShutdown) and
  // everything still parked (with kVersionUnavailable — the version
  // they were waiting for will never arrive), then join the workers.
  // Idempotent and blocking for every caller; called by the destructor.
  void shutdown();

  // Worker threads: `threads` without lanes, lanes + 1 with them.
  [[nodiscard]] int threads() const { return thread_count_; }
  [[nodiscard]] int lanes() const { return lane_count_; }
  [[nodiscard]] std::int64_t cancelled_count() const {
    return cancelled_.load(std::memory_order_relaxed);
  }
  // Query lane `lane` in [0, lanes()), or lane 0 of a pool without lanes.
  [[nodiscard]] LaneStats lane_stats(int lane) const;

 private:
  enum : int {
    kQueued = 0,
    kRunning = 1,
    kCancelled = 2,
    kDone = 3,
    kParked = 4
  };

  struct TaskState {
    std::uint64_t id = 0;
    // Retained so release() re-queues where and at the rank it came from.
    int priority = 0;
    std::size_t slot = 0;  // index into queues_
    std::atomic<int> status{kQueued};
    std::function<void()> run;
    CancelFn cancelled;
  };

  struct QueueEntry {
    int priority = 0;
    std::uint64_t seq = 0;
    std::shared_ptr<TaskState> state;
    // priority_queue pops the "largest": highest priority, then earliest
    // submission.
    bool operator<(const QueueEntry& other) const {
      if (priority != other.priority) return priority < other.priority;
      return seq > other.seq;
    }
  };

  // Lane number -> queue slot: query lanes first, the control lane last
  // (slot 0 for every task of a pool without lanes).
  [[nodiscard]] std::size_t slot_of(int lane) const;
  std::uint64_t enqueue(int priority, std::function<void()> run,
                        CancelFn cancelled, int lane, bool parked);
  void push_locked(const std::shared_ptr<TaskState>& state)
      DMF_REQUIRES(mutex_);
  void worker_loop(std::size_t slot);
  void finish_one(std::uint64_t id, std::size_t executed_slot);

  int thread_count_ = 0;  // set once in the constructor, then read-only
  int lane_count_ = 0;    // likewise
  mutable Mutex mutex_;
  // One per slot; a slot's workers wait on it for work or stopping.
  std::unique_ptr<CondVar[]> work_cv_;
  CondVar idle_cv_;  // wait_all: pending reached zero; shutdown: joined
  std::vector<std::priority_queue<QueueEntry>> queues_ DMF_GUARDED_BY(mutex_);
  std::vector<std::int64_t> executed_ DMF_GUARDED_BY(mutex_);  // per slot
  std::unordered_map<std::uint64_t, std::shared_ptr<TaskState>> by_id_
      DMF_GUARDED_BY(mutex_);
  std::uint64_t next_id_ DMF_GUARDED_BY(mutex_) = 1;
  // Submitted but not yet run/cancelled.
  std::size_t pending_ DMF_GUARDED_BY(mutex_) = 0;
  bool stopping_ DMF_GUARDED_BY(mutex_) = false;
  bool joined_ DMF_GUARDED_BY(mutex_) = false;  // shutdown finished joining
  std::atomic<std::int64_t> cancelled_{0};
  // Filled by the constructor before any concurrency exists; joined by
  // the single shutdown() caller that wins the stopping_ handshake, so
  // never touched by two threads at once.
  std::vector<std::thread> workers_;
};

// Handle on one submitted query. Move-only (the future is one-shot);
// default-constructed tickets are invalid.
template <typename T>
class Ticket {
 public:
  Ticket() = default;

  [[nodiscard]] std::uint64_t id() const { return id_; }
  [[nodiscard]] bool valid() const { return future_.valid(); }

  // Cancel if still queued. True means the query will never run and
  // get() yields ErrorCode::kCancelled; false means it already started
  // (or finished) and get() yields its real result.
  bool cancel() {
    if (auto pool = pool_.lock()) return pool->cancel(id_);
    return false;
  }

  // wait()/ready()/get() require valid(): a default-constructed,
  // moved-from, or already-consumed ticket trips a DMF_REQUIRE instead
  // of the undefined behavior std::future exhibits.
  void wait() const {
    DMF_REQUIRE(future_.valid(), "Ticket::wait: invalid ticket");
    future_.wait();
  }
  [[nodiscard]] bool ready() const {
    DMF_REQUIRE(future_.valid(), "Ticket::ready: invalid ticket");
    return future_.wait_for(std::chrono::seconds(0)) ==
           std::future_status::ready;
  }

  // Blocks until the result is available. One-shot: invalidates the
  // ticket.
  [[nodiscard]] Result<T> get() {
    DMF_REQUIRE(future_.valid(),
                "Ticket::get: invalid ticket (already consumed?)");
    return future_.get();
  }

 private:
  friend class FlowEngine;
  Ticket(std::uint64_t id, std::future<Result<T>> future,
         std::weak_ptr<WorkerPool> pool)
      : id_(id), future_(std::move(future)), pool_(std::move(pool)) {}

  std::uint64_t id_ = 0;
  std::future<Result<T>> future_;
  std::weak_ptr<WorkerPool> pool_;
};

}  // namespace dmf
