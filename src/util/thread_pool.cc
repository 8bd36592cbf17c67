#include "util/thread_pool.h"

#include <atomic>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <exception>
#include <utility>

#include "util/check.h"

namespace rrs {

namespace {

// Set for the lifetime of every worker thread's loop; lets blocking pool
// operations detect re-entrant use from inside a task.
thread_local bool t_in_worker = false;

}  // namespace

bool ThreadPool::in_worker() { return t_in_worker; }

std::size_t parse_thread_count(const char* text) {
  if (text == nullptr || *text == '\0') return 0;
  char* end = nullptr;
  errno = 0;
  const long long parsed = std::strtoll(text, &end, 10);
  RRS_REQUIRE(std::isdigit(static_cast<unsigned char>(*text)) != 0 &&
                  *end == '\0' && errno == 0 && parsed > 0,
              "RRS_THREADS must be a positive integer, got \"" << text << "\"");
  return static_cast<std::size_t>(parsed);
}

std::size_t default_thread_count() {
  if (const std::size_t env = parse_thread_count(std::getenv("RRS_THREADS"));
      env > 0) {
    return env;
  }
  const std::size_t hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

ThreadPool& global_pool() {
  static ThreadPool pool;  // sized once, on first use
  return pool;
}

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) num_threads = default_thread_count();
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    shutting_down_ = true;
  }
  task_ready_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    RRS_CHECK(!shutting_down_);
    tasks_.push(std::move(task));
  }
  task_ready_.notify_one();
}

void ThreadPool::worker_loop() {
  t_in_worker = true;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      task_ready_.wait(lock,
                       [this] { return shutting_down_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // shutting down with an empty queue
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& body) {
  if (count == 0) return;
  if (in_worker()) {
    // Re-entrant use: the caller is itself a pool task.  Blocking it on
    // completion of further pool tasks can deadlock (every worker waiting
    // on work only parked workers could run), so run inline instead.
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  std::exception_ptr first_error;
  // Completion is counted per call: other callers' tasks may share the
  // queue, and this call waits only for its own.
  std::mutex done_mu;
  std::condition_variable done;
  std::size_t running = std::min(count, size());
  for (std::size_t shard = running; shard > 0; --shard) {
    submit([&] {
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= count) break;
        try {
          body(i);
        } catch (...) {
          std::scoped_lock lock(done_mu);
          if (!first_error) first_error = std::current_exception();
        }
      }
      // Notify under the lock: the caller's frame, `done` included, may
      // unwind as soon as it can observe running == 0.
      std::scoped_lock lock(done_mu);
      if (--running == 0) done.notify_one();
    });
  }
  std::unique_lock<std::mutex> lock(done_mu);
  done.wait(lock, [&running] { return running == 0; });
  if (first_error) std::rethrow_exception(first_error);
}

void parallel_for(std::size_t count,
                  const std::function<void(std::size_t)>& body) {
  if (count <= 1) {
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }
  global_pool().parallel_for(count, body);
}

}  // namespace rrs
