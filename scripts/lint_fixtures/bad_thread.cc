// dmf-lint-fixture-path: src/maxflow/thread_bad.cpp
// A solver spawning its own std::thread must fail naked-thread:
// parallelism goes through the WorkerPool (or OpenMP inside the
// simulator), never ad-hoc threads in solver code.
#include <thread>

namespace dmf {

void sneak_parallelism() {
  // expect-lint: naked-thread
  std::thread worker([] {});
  worker.join();
}

}  // namespace dmf
