// A small fixed-size thread pool used to execute simulated CTAs in parallel.
//
// The pool only provides what that caller needs: `ParallelFor` over an index
// range with dynamic work stealing. Determinism of *results* never depends on
// the pool: each index owns disjoint output state, and all simulated-cost
// accounting is computed from the plan, not from wall-clock interleaving.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace flashinfer {

class ThreadPool {
 public:
  /// Creates a pool with `num_threads` workers (defaults to hardware
  /// concurrency, at least 1).
  explicit ThreadPool(int num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const noexcept { return static_cast<int>(workers_.size()) + 1; }

  /// Runs fn(i) for i in [0, n) across the pool (including the calling
  /// thread); returns when all iterations finish. Nested calls execute
  /// serially on the caller. If any iteration throws, the remaining
  /// unclaimed iterations are skipped (claimed ones still drain) and the
  /// FIRST exception is rethrown on the calling thread once every claimed
  /// index has settled — the pool stays usable afterwards.
  void ParallelFor(int64_t n, const std::function<void(int64_t)>& fn);

  /// Process-wide pool, lazily constructed on first use with EnvThreads()
  /// workers. Destroyed after main() returns (function-local static): the
  /// destructor signals shutdown under the lock and joins every worker, and
  /// a ParallelFor issued during/after shutdown degrades to the serial path
  /// instead of waking dead workers.
  static ThreadPool& Global();

  /// Thread count the global pool is built with: the FI_THREADS environment
  /// variable when set to a positive integer, otherwise 0 (= hardware
  /// concurrency). Exposed so tests can pin the parsing contract.
  static int EnvThreads() noexcept;

 private:
  // Heap-owned per-call state: workers hold a shared_ptr, so a worker that
  // wakes up late can never touch freed memory. `fn` is only invoked for
  // indices < n, all of which complete before ParallelFor returns, so the
  // caller's captured references stay valid for every invocation.
  struct TaskState {
    std::function<void(int64_t)> fn;
    std::atomic<int64_t> next{0};
    std::atomic<int64_t> done{0};
    int64_t n = 0;
    // First exception thrown by any iteration; `failed` short-circuits the
    // remaining claims so a poisoned task drains quickly.
    std::atomic<bool> failed{false};
    std::mutex error_mu;
    std::exception_ptr error;
  };

  void WorkerLoop();
  void RunTask(TaskState& task);

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  std::shared_ptr<TaskState> current_;
  uint64_t epoch_ = 0;
  bool in_parallel_ = false;
  bool shutdown_ = false;
};

}  // namespace flashinfer
