// A small fixed-size thread pool with a parallel-for helper.
//
// The experiment sweeps in bench/ evaluate many independent (workload,
// algorithm, parameter) cells, and the sharded streaming runner drives one
// engine per shard; both distribute work through the shared process-wide
// pool returned by global_pool() so concurrent callers do not fight over
// cores with transient pools of their own.  Determinism is preserved
// because every cell/shard owns its own seeded Rng and writes to its own
// result slot.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace rrs {

/// Fixed-size worker pool.  Tasks are arbitrary void() callables.
class ThreadPool {
 public:
  /// Creates `num_threads` workers; 0 means default_thread_count().
  explicit ThreadPool(std::size_t num_threads = 0);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Drains outstanding tasks, then joins all workers.
  ~ThreadPool();

  /// Enqueue one task.
  void submit(std::function<void()> task);

  [[nodiscard]] std::size_t size() const { return workers_.size(); }

  /// True when the calling thread is a worker of any ThreadPool.  Used to
  /// guard blocking pool operations against re-entrant use.
  [[nodiscard]] static bool in_worker();

  /// Runs body(i) for i in [0, count), distributing across the pool and
  /// blocking until all iterations finish; tasks other callers submitted
  /// are not waited for.  Exceptions from `body`
  /// propagate to the caller (the first one thrown, by index order being
  /// unspecified).  When called from a worker thread (re-entrant use) the
  /// iterations run inline on the caller, in index order — blocking a
  /// worker on pool completion would deadlock the pool.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& body);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mu_;
  std::condition_variable task_ready_;
  bool shutting_down_ = false;
};

/// Parses an RRS_THREADS value strictly: null or empty text is unset and
/// returns 0 ("use the hardware default"); any other text that is not all
/// digits with a value in [1, INT64_MAX] throws InputError naming the
/// variable and quoting its text, instead of parsing "2e5" as 2.
[[nodiscard]] std::size_t parse_thread_count(const char* text);

/// Worker count for new pools: the RRS_THREADS environment variable when
/// set (a malformed value throws InputError, see parse_thread_count),
/// otherwise std::thread::hardware_concurrency() (minimum 1).
[[nodiscard]] std::size_t default_thread_count();

/// The process-wide shared pool, created on first use and sized once via
/// default_thread_count().  Sweeps and sharded streaming runs all draw
/// from this pool so concurrent work shares the machine instead of
/// oversubscribing it.
[[nodiscard]] ThreadPool& global_pool();

/// Convenience: run body(i) for i in [0, count) on the shared global pool,
/// or inline when count <= 1.
void parallel_for(std::size_t count,
                  const std::function<void(std::size_t)>& body);

}  // namespace rrs
