// Persistent worker pool for the server's data-parallel hot paths.
//
// The paper's real-time claim (~100 ms fixes, 4.4) makes throughput a
// first-class concern: spawning and joining std::threads on every
// heatmap call costs more than the work at fine grain, and the per-AP
// spectrum pipelines are embarrassingly parallel. This pool is created
// once (usually via shared()) and reused for every fix.
//
// Design rules that keep results identical to the serial code:
//   - every parallel region writes disjoint output slots (one per
//     index/chunk); no reductions whose result depends on scheduling;
//   - chunk boundaries depend only on (n, max_parallel), never on
//     which worker picks a chunk up;
//   - the caller participates: it executes chunks too and helps drain
//     the queue while waiting, so nested calls from a worker cannot
//     deadlock and a 1-thread pool degenerates to the serial loop.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace arraytrack::core {

class ThreadPool {
 public:
  /// `workers` background threads; 0 = hardware_concurrency - 1 (the
  /// caller thread always executes chunks itself, so total parallelism
  /// is workers + 1).
  explicit ThreadPool(std::size_t workers = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Background worker count (excludes the participating caller).
  std::size_t workers() const { return threads_.size(); }
  /// Maximum concurrency a parallel region can reach: workers + caller.
  std::size_t size() const { return threads_.size() + 1; }

  /// Tasks handed to the pool's threads so far (the caller's own chunk
  /// of each region is not counted). Each costs a queue push and,
  /// usually, a wake-up, so this counts the fan-out's hand-offs.
  std::uint64_t tasks_queued() const {
    return tasks_queued_.load(std::memory_order_relaxed);
  }

  /// Process-wide pool shared by server, localizer and benches. Built
  /// lazily on first use, sized to the hardware.
  static ThreadPool& shared();

  /// Runs body(i) for every i in [begin, end), blocking until all are
  /// done. At most `max_parallel` indices run concurrently (0 = pool
  /// size): the range splits into ceil(n / step) chunks of step =
  /// ceil(n / width) indices, and the caller runs the first. Exceptions
  /// from `body` are rethrown on the caller (first one wins); remaining
  /// indices still run to completion.
  void parallel_for(std::size_t begin, std::size_t end,
                    std::size_t max_parallel,
                    const std::function<void(std::size_t)>& body);

  /// Splits [0, n) into at most `max_chunks` contiguous ranges (0 =
  /// pool size) and runs body(lo, hi) per range. The split depends
  /// only on (n, max_chunks), so outputs are scheduling-independent.
  void parallel_ranges(std::size_t n, std::size_t max_chunks,
                       const std::function<void(std::size_t, std::size_t)>& body);

 private:
  struct Batch;

  void worker_loop();
  /// Runs one queued task if any; returns false when the queue is empty.
  bool run_one_task();

  std::vector<std::thread> threads_;
  std::deque<std::function<void()>> queue_;
  mutable std::mutex mutex_;
  std::condition_variable work_cv_;
  bool stop_ = false;
  std::atomic<std::uint64_t> tasks_queued_{0};
};

}  // namespace arraytrack::core
