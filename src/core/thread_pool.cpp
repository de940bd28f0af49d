#include "core/thread_pool.h"

#include <algorithm>
#include <exception>

namespace arraytrack::core {

// Completion state for one parallel_for / parallel_ranges call. Tasks
// decrement `remaining`; the submitting thread helps drain the queue
// and then sleeps on `done_cv` until the last task finishes.
struct ThreadPool::Batch {
  std::mutex m;
  std::condition_variable done_cv;
  std::size_t remaining = 0;
  std::exception_ptr error;

  void finish_one() {
    std::lock_guard<std::mutex> lock(m);
    if (--remaining == 0) done_cv.notify_all();
  }
  void record_error() {
    std::lock_guard<std::mutex> lock(m);
    if (!error) error = std::current_exception();
  }
};

ThreadPool::ThreadPool(std::size_t workers) {
  if (workers == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    workers = hw > 1 ? hw - 1 : 0;
  }
  threads_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i)
    threads_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : threads_) t.join();
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool;
  return pool;
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

bool ThreadPool::run_one_task() {
  std::function<void()> task;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (queue_.empty()) return false;
    task = std::move(queue_.front());
    queue_.pop_front();
  }
  task();
  return true;
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              std::size_t max_parallel,
                              const std::function<void(std::size_t)>& body) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  std::size_t width = max_parallel == 0 ? size() : std::min(max_parallel, size());
  width = std::min(width, n);
  if (width <= 1) {
    for (std::size_t i = begin; i < end; ++i) body(i);
    return;
  }

  // Chunks of `step` contiguous indices, so the knob really bounds
  // concurrency. The split depends only on (n, width) — never on which
  // worker picks a chunk — so outputs are scheduling-independent.
  // Rounding `step` up can leave the last chunks empty (n = 6 at width
  // 4 is 2+2+2+0); only the non-empty ones become tasks.
  const std::size_t step = (n + width - 1) / width;
  width = (n + step - 1) / step;
  Batch batch;
  batch.remaining = width;
  auto run_chunk = [&batch, &body, begin, end, step](std::size_t c) {
    const std::size_t lo = begin + c * step;
    const std::size_t hi = std::min(end, lo + step);
    try {
      for (std::size_t i = lo; i < hi; ++i) body(i);
    } catch (...) {
      batch.record_error();
    }
    batch.finish_one();
  };

  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t c = 1; c < width; ++c)
      queue_.push_back([run_chunk, c] { run_chunk(c); });
  }
  tasks_queued_.fetch_add(width - 1, std::memory_order_relaxed);
  work_cv_.notify_all();
  run_chunk(0);

  // Help drain the queue (ours or another batch's), then wait.
  while (run_one_task()) {
  }
  {
    std::unique_lock<std::mutex> lock(batch.m);
    batch.done_cv.wait(lock, [&batch] { return batch.remaining == 0; });
  }
  if (batch.error) std::rethrow_exception(batch.error);
}

void ThreadPool::parallel_ranges(
    std::size_t n, std::size_t max_chunks,
    const std::function<void(std::size_t, std::size_t)>& body) {
  if (n == 0) return;
  std::size_t chunks = max_chunks == 0 ? size() : std::min(max_chunks, size());
  chunks = std::min(chunks, n);
  if (chunks <= 1) {
    body(0, n);
    return;
  }
  const std::size_t step = (n + chunks - 1) / chunks;
  const std::size_t used = (n + step - 1) / step;  // last chunk may vanish
  parallel_for(0, used, used, [&](std::size_t c) {
    const std::size_t lo = c * step;
    const std::size_t hi = std::min(n, lo + step);
    body(lo, hi);
  });
}

}  // namespace arraytrack::core
