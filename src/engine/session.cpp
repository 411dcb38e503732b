#include "engine/session.h"

#include <algorithm>
#include <string>
#include <thread>
#include <utility>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace dmf {

namespace {

// Sentinel slot for finish_one: the task was cancelled, not run.
constexpr std::size_t kNotExecuted = static_cast<std::size_t>(-1);

// Best-effort thread affinity: worker -> core `index` mod hardware cores
// (Linux only; a failed call, e.g. under a cgroup restriction, leaves
// the worker unpinned).
void pin_to_core(int index) {
#if defined(__linux__)
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<unsigned>(index) % hw, &set);
  (void)pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
#else
  (void)index;
#endif
}

bool message_contains(const char* what, const char* fragment) {
  return std::string(what).find(fragment) != std::string::npos;
}

}  // namespace

int resolve_worker_threads(int requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

ErrorCode classify_error(const std::exception& e) {
  const auto* requirement = dynamic_cast<const RequirementError*>(&e);
  if (requirement == nullptr) return ErrorCode::kInternalError;
  const char* what = e.what();
  if (message_contains(what, "isolated terminal")) {
    return ErrorCode::kIsolatedTerminal;
  }
  if (message_contains(what, "zero-congestion") ||
      message_contains(what, "degenerate demand") ||
      message_contains(what, "no feasible flow")) {
    return ErrorCode::kNumericalFailure;
  }
  if (message_contains(what, "bad source") ||
      message_contains(what, "bad sink") ||
      message_contains(what, "bad terminals") ||
      message_contains(what, "empty terminal set") ||
      message_contains(what, "must be disjoint") ||
      message_contains(what, "demand size mismatch") ||
      message_contains(what, "demand must sum to zero")) {
    return ErrorCode::kInvalidQuery;
  }
  return ErrorCode::kPreconditionFailed;
}

WorkerPool::WorkerPool(int threads, int lanes) {
  DMF_REQUIRE(lanes >= 0, "WorkerPool: lanes must be non-negative");
  lane_count_ = lanes;
  // One slot per query lane plus the control slot — a single shared
  // slot without lanes. Without lanes it has `threads` workers; with
  // lanes every slot has exactly one.
  const auto slots = static_cast<std::size_t>(lanes) + 1;
  thread_count_ = lanes > 0 ? lanes + 1 : resolve_worker_threads(threads);
  work_cv_ = std::make_unique<CondVar[]>(slots);
  queues_.resize(slots);
  executed_.assign(slots, 0);
  workers_.reserve(static_cast<std::size_t>(thread_count_));
  for (int i = 0; i < thread_count_; ++i) {
    const std::size_t slot = lanes > 0 ? static_cast<std::size_t>(i) : 0;
    const bool pin = lanes > 0 && i < lanes;
    workers_.emplace_back([this, slot, pin, i] {
      if (pin) pin_to_core(i);
      worker_loop(slot);
    });
  }
}

WorkerPool::~WorkerPool() { shutdown(); }

std::size_t WorkerPool::slot_of(int lane) const {
  if (lane == kControlLane) {
    return static_cast<std::size_t>(lane_count_);  // 0 without lanes
  }
  DMF_REQUIRE(lane >= 0 && lane < std::max(lane_count_, 1),
              "WorkerPool: lane out of range");
  return static_cast<std::size_t>(lane);
}

void WorkerPool::push_locked(const std::shared_ptr<TaskState>& state) {
  queues_[state->slot].push(QueueEntry{state->priority, state->id, state});
}

std::uint64_t WorkerPool::enqueue(int priority, std::function<void()> run,
                                  CancelFn cancelled, int lane, bool parked) {
  auto state = std::make_shared<TaskState>();
  state->priority = priority;
  state->slot = slot_of(lane);
  state->run = std::move(run);
  state->cancelled = std::move(cancelled);
  if (parked) state->status.store(kParked);
  {
    MutexLock lock(mutex_);
    DMF_REQUIRE(!stopping_, "WorkerPool: submit after shutdown");
    state->id = next_id_++;
    by_id_.emplace(state->id, state);
    if (!parked) push_locked(state);
    ++pending_;
  }
  if (!parked) work_cv_[state->slot].notify_one();
  return state->id;
}

std::uint64_t WorkerPool::submit(int priority, std::function<void()> run,
                                 CancelFn cancelled, int lane) {
  return enqueue(priority, std::move(run), std::move(cancelled), lane,
                 /*parked=*/false);
}

std::uint64_t WorkerPool::submit_parked(int priority,
                                        std::function<void()> run,
                                        CancelFn cancelled, int lane) {
  return enqueue(priority, std::move(run), std::move(cancelled), lane,
                 /*parked=*/true);
}

bool WorkerPool::release(std::uint64_t id) {
  // The whole transition happens under the pool lock so it can never
  // interleave with shutdown(): either the task lands in its queue
  // before the drain (and resolves kShutdown) or release observes
  // stopping_ and leaves it parked for shutdown's kVersionUnavailable
  // sweep.
  std::size_t slot = 0;
  {
    MutexLock lock(mutex_);
    const auto it = by_id_.find(id);
    if (it == by_id_.end() || stopping_) return false;
    const std::shared_ptr<TaskState>& state = it->second;
    int expected = kParked;
    if (!state->status.compare_exchange_strong(expected, kQueued)) {
      return false;
    }
    push_locked(state);
    slot = state->slot;
  }
  work_cv_[slot].notify_one();
  return true;
}

bool WorkerPool::fail_parked(std::uint64_t id, ErrorCode code) {
  std::shared_ptr<TaskState> state;
  {
    MutexLock lock(mutex_);
    const auto it = by_id_.find(id);
    if (it == by_id_.end()) return false;
    state = it->second;
  }
  int expected = kParked;
  if (!state->status.compare_exchange_strong(expected, kCancelled)) {
    return false;
  }
  cancelled_.fetch_add(1, std::memory_order_relaxed);
  state->cancelled(code);
  finish_one(id, kNotExecuted);
  return true;
}

bool WorkerPool::cancel(std::uint64_t id) {
  std::shared_ptr<TaskState> state;
  {
    MutexLock lock(mutex_);
    const auto it = by_id_.find(id);
    if (it == by_id_.end()) return false;
    state = it->second;
  }
  int expected = kQueued;
  if (!state->status.compare_exchange_strong(expected, kCancelled)) {
    expected = kParked;
    if (!state->status.compare_exchange_strong(expected, kCancelled)) {
      return false;
    }
  }
  cancelled_.fetch_add(1, std::memory_order_relaxed);
  state->cancelled(ErrorCode::kCancelled);
  finish_one(id, kNotExecuted);
  return true;
}

void WorkerPool::wait_all() {
  MutexLock lock(mutex_);
  while (pending_ != 0) idle_cv_.wait(mutex_);
}

void WorkerPool::shutdown() {
  std::vector<std::shared_ptr<TaskState>> to_cancel;
  std::vector<std::shared_ptr<TaskState>> parked;
  {
    MutexLock lock(mutex_);
    if (stopping_) {
      // Another caller won the handshake and owns the join. Wait for it
      // rather than racing it to workers_ (two threads joining the same
      // std::thread is undefined behavior).
      while (!joined_) idle_cv_.wait(mutex_);
      return;
    }
    stopping_ = true;
    // Drain every lane: whatever a worker has not yet claimed is failed
    // with kShutdown instead of silently dropped (every promise must be
    // fulfilled).
    for (auto& queue : queues_) {
      while (!queue.empty()) {
        to_cancel.push_back(queue.top().state);
        queue.pop();
      }
    }
    // Parked tasks live only in by_id_; the versions they wait for will
    // never be served now.
    for (const auto& [id, state] : by_id_) {
      if (state->status.load() == kParked) parked.push_back(state);
    }
  }
  for (const auto& state : to_cancel) {
    int expected = kQueued;
    if (state->status.compare_exchange_strong(expected, kCancelled)) {
      state->cancelled(ErrorCode::kShutdown);
      finish_one(state->id, kNotExecuted);
    }
  }
  for (const auto& state : parked) {
    int expected = kParked;
    if (state->status.compare_exchange_strong(expected, kCancelled)) {
      state->cancelled(ErrorCode::kVersionUnavailable);
      finish_one(state->id, kNotExecuted);
    }
  }
  for (int slot = 0; slot <= lane_count_; ++slot) work_cv_[slot].notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  {
    MutexLock lock(mutex_);
    joined_ = true;
  }
  idle_cv_.notify_all();
}

void WorkerPool::worker_loop(std::size_t slot) {
  while (true) {
    std::shared_ptr<TaskState> state;
    {
      MutexLock lock(mutex_);
      std::priority_queue<QueueEntry>& queue = queues_[slot];
      while (!stopping_ && queue.empty()) work_cv_[slot].wait(mutex_);
      if (queue.empty()) return;  // stopping_ and nothing left to run
      state = queue.top().state;
      queue.pop();
    }
    int expected = kQueued;
    if (!state->status.compare_exchange_strong(expected, kRunning)) {
      continue;  // cancelled while queued; its CancelFn already ran
    }
    state->run();
    state->status.store(kDone);
    finish_one(state->id, slot);
  }
}

WorkerPool::LaneStats WorkerPool::lane_stats(int lane) const {
  DMF_REQUIRE(lane >= 0 && lane < std::max(lane_count_, 1),
              "WorkerPool::lane_stats: lane out of range");
  const auto slot = static_cast<std::size_t>(lane);
  MutexLock lock(mutex_);
  return LaneStats{executed_[slot], queues_[slot].size()};
}

void WorkerPool::finish_one(std::uint64_t id, std::size_t executed_slot) {
  bool idle = false;
  {
    MutexLock lock(mutex_);
    by_id_.erase(id);
    if (executed_slot != kNotExecuted) ++executed_[executed_slot];
    DMF_REQUIRE(pending_ > 0, "WorkerPool: pending underflow");
    --pending_;
    idle = pending_ == 0;
  }
  if (idle) idle_cv_.notify_all();
}

}  // namespace dmf
