// ThreadPool contract coverage: the shared pool underpins both the sweep
// harness and the sharded streaming runner, so its blocking semantics
// (wait_idle, destruction, re-entrancy) are tested directly here.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "core/shard_plan.h"
#include "util/check.h"
#include "util/thread_pool.h"
#include "workload/poisson.h"
#include "workload/sharded_source.h"

namespace rrs {
namespace {

TEST(ThreadPoolTest, ParallelForPropagatesBodyException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(8,
                                 [](std::size_t i) {
                                   if (i == 5) throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
  // The pool stays usable after a propagated exception.
  std::atomic<int> hits{0};
  pool.parallel_for(4, [&hits](std::size_t) { ++hits; });
  EXPECT_EQ(hits.load(), 4);
}

TEST(ThreadPoolTest, WaitIdleWithZeroSubmittedTasksReturns) {
  ThreadPool pool(2);
  pool.wait_idle();  // nothing submitted: must return immediately
  pool.submit([] {});
  pool.wait_idle();
  pool.wait_idle();  // idempotent once drained
}

TEST(ThreadPoolTest, DestructionDrainsQueuedTasks) {
  std::atomic<int> completed{0};
  {
    ThreadPool pool(1);  // single worker so tasks genuinely queue up
    for (int i = 0; i < 16; ++i) {
      pool.submit([&completed] {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        ++completed;
      });
    }
    // Destructor runs here with most tasks still queued.
  }
  EXPECT_EQ(completed.load(), 16);
}

TEST(ThreadPoolTest, ReentrantParallelForRunsInline) {
  ThreadPool pool(2);
  std::atomic<int> inner_hits{0};
  std::atomic<int> inline_calls{0};
  pool.parallel_for(4, [&](std::size_t) {
    EXPECT_TRUE(ThreadPool::in_worker());
    // Re-entrant use from a worker: must complete (not deadlock) by
    // running the iterations inline on this worker.
    pool.parallel_for(8, [&](std::size_t) {
      ++inner_hits;
      if (ThreadPool::in_worker()) ++inline_calls;
    });
  });
  EXPECT_EQ(inner_hits.load(), 4 * 8);
  EXPECT_EQ(inline_calls.load(), 4 * 8);
  EXPECT_FALSE(ThreadPool::in_worker());
}

TEST(ThreadPoolTest, WaitIdleFromWorkerFailsLoudly) {
  ThreadPool pool(2);
  pool.parallel_for(1, [&pool](std::size_t) {
    EXPECT_THROW(pool.wait_idle(), InvariantError);
  });
}

TEST(ThreadPoolTest, ParseThreadCount) {
  // Null/empty mean "unset": fall through to the hardware default.
  EXPECT_EQ(parse_thread_count(nullptr), 0u);
  EXPECT_EQ(parse_thread_count(""), 0u);
  EXPECT_EQ(parse_thread_count("1"), 1u);
  EXPECT_EQ(parse_thread_count("12"), 12u);
}

TEST(ThreadPoolTest, ParseThreadCountRejectsMalformedValues) {
  // A set-but-broken RRS_THREADS must fail loudly, not silently fall back
  // to the hardware default.
  EXPECT_THROW((void)parse_thread_count("abc"), InputError);
  EXPECT_THROW((void)parse_thread_count("4abc"), InputError);
  EXPECT_THROW((void)parse_thread_count("4 "), InputError);
  EXPECT_THROW((void)parse_thread_count("-2"), InputError);
  EXPECT_THROW((void)parse_thread_count("0"), InputError);
}

TEST(ThreadPoolTest, GlobalPoolIsSharedAndSized) {
  ThreadPool& first = global_pool();
  ThreadPool& second = global_pool();
  EXPECT_EQ(&first, &second);
  EXPECT_GE(first.size(), 1u);
}

TEST(ThreadPoolTest, FreeParallelForCoversAllIndicesViaGlobalPool) {
  std::vector<std::atomic<int>> hits(64);
  parallel_for(hits.size(), [&hits](std::size_t i) { ++hits[i]; });
  for (const auto& hit : hits) EXPECT_EQ(hit.load(), 1);
}

TEST(ThreadPoolTest, NestedFreeParallelForCompletes) {
  // Sweeps can nest (a sweep cell running a sharded run): the free helper
  // must stay correct when invoked from inside a pool worker.
  std::atomic<int> total{0};
  parallel_for(4, [&total](std::size_t) {
    parallel_for(4, [&total](std::size_t) { ++total; });
  });
  EXPECT_EQ(total.load(), 16);
}

// The sharded splitter's blocking behavior lives next to the pool tests
// because both underpin the multi-threaded sharded runner.

TEST(ShardedSourceBackoff, SlowConsumerDoesNotLivelockTheFastOne) {
  // A consumer that keeps sleeping must not wedge its peer: the producer
  // waits on the slow shard's full queue and the fast shard waits on its
  // own empty one, but every pop wakes the producer, so both streams
  // always finish with the full job count.
  const Round rounds = 512;
  PoissonParams params;
  params.horizon = rounds;
  params.seed = 3;
  PoissonSource source(params);
  const ShardPlan plan = make_shard_plan(source.num_colors(), 2, 8, 2);

  std::int64_t expected = 0;
  {
    PoissonSource reference(params);
    for (Round k = 0; k < rounds; ++k) {
      expected += static_cast<std::int64_t>(
          reference.arrivals_in_round(k).size());
    }
  }

  ShardedSourceOptions options;
  options.chunk_rounds = 8;
  options.max_buffered_chunks = 2;  // tiny: backpressure engages constantly
  options.backpressure = true;
  ShardedSource sharded(source, plan, rounds, options);
  std::int64_t counts[2] = {0, 0};
  std::vector<std::thread> consumers;
  for (int s = 0; s < 2; ++s) {
    consumers.emplace_back([&sharded, &counts, s, rounds] {
      ArrivalSource& stream = sharded.stream(s);
      for (Round k = 0; k < rounds; ++k) {
        counts[s] +=
            static_cast<std::int64_t>(stream.arrivals_in_round(k).size());
        if (s == 1 && k % 64 == 0) {
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
      }
    });
  }
  for (std::thread& t : consumers) t.join();
  EXPECT_EQ(counts[0] + counts[1], expected);
}

}  // namespace
}  // namespace rrs
