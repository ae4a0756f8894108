#pragma once

// Minimal work-helping thread pool used to evaluate NSGA-II populations in
// parallel and to run whole study populations concurrently.  The pool is
// created once and reused; parallel_for blocks until the whole index range
// has been processed so generation barriers stay implicit.
//
// parallel_for may be called from *inside* a pool task (nested parallelism:
// a population task fanning out its offspring-pair tasks).  While a
// caller waits for its own range to finish it helps drain the shared queue,
// so nesting can never deadlock even when every worker is busy.

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace eus {

class ThreadPool {
 public:
  /// Spawns `threads` workers; 0 means std::thread::hardware_concurrency()
  /// (at least 1).  A pool of size 1 executes parallel_for ranges inline in
  /// the calling thread — on single-core hosts fan-out is pure queueing
  /// overhead, and inline execution keeps the sequential order (and thus
  /// results) identical.
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Runs fn(i) for every i in [0, count), partitioned into contiguous
  /// blocks across the workers, and returns once all are done.  fn must be
  /// safe to call concurrently for distinct i.  Exceptions thrown by fn
  /// propagate to the caller (first one wins).  Safe to call from within a
  /// task already running on this pool.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop();
  /// Pops one queued job if any; returns false when the queue was empty.
  bool try_run_one();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace eus
