// Streaming/materialized equivalence: the tentpole property of the
// ArrivalSource refactor.
//
// For every engine-driven algorithm and every stochastic workload family,
// running the engine directly against the lazy streaming source must
// produce the identical CostBreakdown and executed count as materializing
// the same source into an Instance first.  Per-color RNG streams make the
// two paths draw the same jobs; the engine makes them account the same
// costs.  Several seeds per family, property-style.
#include <gtest/gtest.h>

#include <csignal>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <tuple>
#include <utility>

#include "core/engine.h"
#include "sim/runner.h"
#include "test_util.h"
#include "workload/datacenter.h"
#include "workload/flash_crowd.h"
#include "workload/generator_source.h"
#include "workload/poisson.h"
#include "workload/random_batched.h"

namespace rrs {
namespace {

using testing::kFamilies;
using testing::kStreamingAlgorithms;
using testing::make_source;

using Cell = std::tuple<std::string, std::string, std::uint64_t>;

class StreamedVsMaterialized : public ::testing::TestWithParam<Cell> {};

TEST_P(StreamedVsMaterialized, IdenticalCostAndExecuted) {
  const auto& [algorithm, family, seed] = GetParam();

  // Materialized path: drain one source into an Instance, run the engine
  // on the MaterializedSource wrapper (the pre-refactor code path).
  const auto to_materialize = make_source(family, seed);
  const Instance instance = materialize(*to_materialize);
  const StreamRunRecord reference = run_algorithm(instance, algorithm, 8);

  // Streamed path: a second identical source, pulled round by round.
  const auto source = make_source(family, seed);
  const StreamRunRecord streamed = run_streaming(*source, algorithm, 8);

  EXPECT_EQ(streamed.cost.drops, reference.cost.drops)
      << family << " seed " << seed;
  EXPECT_EQ(streamed.cost.reconfig_cost, reference.cost.reconfig_cost);
  EXPECT_EQ(streamed.cost.reconfig_events, reference.cost.reconfig_events);
  EXPECT_EQ(streamed.cost.total(), reference.cost.total());
  EXPECT_EQ(streamed.executed, reference.executed);
  EXPECT_EQ(streamed.arrived,
            static_cast<std::int64_t>(instance.jobs().size()));
  // The drain may stop early once the pending set empties; it never runs
  // past the materialized horizon (= the last deadline).
  EXPECT_LE(streamed.rounds, instance.horizon());
  // The stream never holds more than the pending set.
  EXPECT_LE(streamed.peak_pending,
            static_cast<std::int64_t>(instance.jobs().size()));
}

std::vector<Cell> all_cells() {
  std::vector<Cell> cells;
  for (const char* const algorithm : kStreamingAlgorithms) {
    for (const char* const family : kFamilies) {
      for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
        cells.emplace_back(algorithm, family, seed);
      }
    }
  }
  return cells;
}

std::string cell_name(const ::testing::TestParamInfo<Cell>& info) {
  std::string name = std::get<0>(info.param) + "_" + std::get<1>(info.param) +
                     "_s" + std::to_string(std::get<2>(info.param));
  for (char& ch : name) {
    if (ch == '-') ch = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(Matrix, StreamedVsMaterialized,
                         ::testing::ValuesIn(all_cells()), cell_name);

TEST(MaterializeHelper, RoundTripsThroughBuilder) {
  PoissonParams params;
  params.horizon = 128;
  params.seed = 7;
  PoissonSource source(params);
  const Instance direct = make_poisson(params);
  const Instance drained = materialize(source);
  ASSERT_EQ(direct.jobs().size(), drained.jobs().size());
  EXPECT_EQ(direct.jobs(), drained.jobs());
  EXPECT_EQ(direct.horizon(), drained.horizon());
  EXPECT_EQ(direct.delta(), drained.delta());
  EXPECT_EQ(direct.num_colors(), drained.num_colors());
}

TEST(MaterializeHelper, TruncatesToRequestedRounds) {
  const auto source = make_source("poisson", 11);
  const Instance head = materialize(*source, 32);
  for (const Job& job : head.jobs()) EXPECT_LT(job.arrival, 32);
  EXPECT_GE(head.horizon(), 32);
}

TEST(StreamingContract, SequentialPullEnforced) {
  PoissonParams params;
  params.seed = 3;
  PoissonSource source(params);
  (void)source.arrivals_in_round(0);
  EXPECT_THROW((void)source.arrivals_in_round(2), InputError);
}

TEST(StreamingContract, InfiniteSourceNeedsMaxRounds) {
  PoissonParams params;
  params.horizon = kInfiniteHorizon;
  PoissonSource source(params);
  EXPECT_FALSE(source.finite());
  EXPECT_THROW((void)run_streaming(source, "dlru-edf", 8), InputError);
}

TEST(StreamingContract, InfiniteSourceRunsWithMaxRounds) {
  PoissonParams params;
  params.horizon = kInfiniteHorizon;
  params.seed = 5;
  PoissonSource source(params);
  const StreamRunRecord record =
      run_streaming(source, "dlru-edf", 8, /*max_rounds=*/512);
  EXPECT_GE(record.rounds, 512);  // arrivals stop at 512, the drain runs on
  EXPECT_GT(record.arrived, 0);
  EXPECT_EQ(record.cost.drops + record.executed, record.arrived)
      << "every unit-cost job either executes or drops by the final sweep";
}

TEST(StreamingMemory, PeakPendingIsAtMostOneBatchPerColor) {
  // Rate-limited batched input (burst factor 1): a color's batch of at most
  // D_c jobs expires in the drop phase of the round that brings its next
  // batch, so the pending set never holds more than sum_c D_c jobs (852 for
  // seed 99), however long the run.  The source is perfbench's
  // dense-serial one.
  RandomBatchedParams params;
  params.seed = 99;
  params.delta = 8;
  params.num_colors = 32;
  params.min_scale = 2;
  params.max_scale = 6;
  params.activity = 0.7;
  params.burst_factor = 1.0;
  params.horizon = kInfiniteHorizon;
  constexpr Round kRounds = 200'000;

  RandomBatchedSource serial_source(params);
  std::int64_t bound = 0;
  for (ColorId c = 0; c < serial_source.num_colors(); ++c) {
    bound += serial_source.delay_bound(c);
  }
  const StreamRunRecord serial =
      run_streaming(serial_source, "dlru-edf", 8, kRounds);
  EXPECT_GT(serial.arrived, 100 * bound);
  EXPECT_GT(serial.peak_pending, 0);
  EXPECT_LE(serial.peak_pending, bound);

  // The merged peak is the sum of the shards' peaks, and each shard's is
  // bounded by its own colors' delay bounds.
  RandomBatchedSource sharded_source(params);
  const ShardedRunRecord sharded =
      run_streaming_sharded(sharded_source, "dlru-edf", 16, 4, kRounds);
  EXPECT_EQ(sharded.merged.arrived, serial.arrived);
  EXPECT_GT(sharded.merged.peak_pending, 0);
  EXPECT_LE(sharded.merged.peak_pending, bound);
}

TEST(StreamingContract, DrainPendingRunsPastArrivals) {
  // One color, delay 16, jobs only in round 0: with drain_pending the
  // engine keeps running after arrivals end until the pending set empties.
  InstanceBuilder builder;
  builder.delta(1);
  const ColorId c = builder.add_color(16);
  builder.add_jobs(c, 0, 4);
  const Instance instance = builder.build();

  MaterializedSource source(instance);
  EngineOptions options;
  const auto policy = make_stream_policy("dlru-edf", options);
  options.num_resources = 4;
  options.record_schedule = false;
  options.max_rounds = 1;  // stop pulling arrivals after round 0
  options.drain_pending = true;
  const EngineResult result = run_policy(source, *policy, options);
  EXPECT_EQ(result.executed + result.cost.drops, 4);
  EXPECT_GT(result.rounds, 1);
  EXPECT_LE(result.rounds, 16);
}

// --- the reductions on streams ---------------------------------------------

/// An infinite random-batched stream whose bursts reach 4 D_l.
RandomBatchedParams bursty_stream_params() {
  RandomBatchedParams params;
  params.seed = 17;
  params.num_colors = 16;
  params.burst_factor = 4.0;
  params.horizon = kInfiniteHorizon;
  return params;
}

TEST(StreamingReductions, LongRunsKeepABoundedPendingSet) {
  // A color's (released) batch expires in the round its next one arrives,
  // so the pending set never holds more than sum_l B_l jobs, B_l being
  // the stream's batch bound, however long the run: serially and on two
  // shards, at 100k and at 200k rounds.  (The peak itself is the running
  // maximum of random batch sizes, so it may still creep up towards the
  // bound as a run lengthens.)
  RandomBatchedSource probe(bursty_stream_params());
  std::int64_t bound = 0;
  for (ColorId c = 0; c < probe.num_colors(); ++c) {
    bound += probe.batch_bound(c);
  }
  for (const char* const name : {"distribute", "varbatch"}) {
    for (const int shards : {1, 2}) {
      for (const Round rounds : {Round{100'000}, Round{200'000}}) {
        RandomBatchedSource source(bursty_stream_params());
        const StreamRunRecord r =
            run_streaming_sharded(source, name, 16, shards, rounds).merged;
        const std::string label = std::string(name) + " K=" +
                                  std::to_string(shards) + " at " +
                                  std::to_string(rounds);
        EXPECT_GE(r.rounds, rounds) << label;
        EXPECT_GT(r.arrived, 10 * bound) << label;
        EXPECT_EQ(r.executed + r.cost.drops, r.arrived) << label;
        EXPECT_GT(r.peak_pending, 0) << label;
        EXPECT_LE(r.peak_pending, bound) << label;
      }
    }
  }
}

TEST(StreamingReductions, StreamedMatchesMaterialized) {
  for (const char* const name : {"distribute", "varbatch"}) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      RandomBatchedParams params;
      params.seed = seed;
      params.horizon = 512;
      params.burst_factor = 2.5;
      RandomBatchedSource source(params);
      const StreamRunRecord streamed = run_streaming(source, name, 8);
      const Instance instance = make_random_batched(params);
      const StreamRunRecord reference = run_algorithm(instance, name, 8);
      const std::string label =
          std::string(name) + " seed " + std::to_string(seed);
      EXPECT_EQ(streamed.cost, reference.cost) << label;
      EXPECT_EQ(streamed.executed, reference.executed) << label;
      EXPECT_EQ(streamed.arrived, reference.arrived) << label;
    }
  }
}

/// The InputError message `run` throws, or "" when it does not throw.
template <typename Run>
std::string input_error(const Run& run) {
  try {
    run();
  } catch (const InputError& e) {
    return e.what();
  }
  return "";
}

TEST(StreamingReductions, UnboundedStreamsAreRejected) {
  for (const char* const name : {"distribute", "varbatch"}) {
    PoissonParams poisson;
    poisson.horizon = kInfiniteHorizon;
    PoissonSource trickle(poisson);
    const std::string from_trickle =
        input_error([&] { (void)run_streaming(trickle, name, 8, 512); });
    EXPECT_NE(from_trickle.find("color 0"), std::string::npos) << name;

    FlashCrowdParams crowd;
    crowd.spike_start = 128;
    crowd.spike_end = 192;
    crowd.horizon = 512;
    FlashCrowdSource spike(crowd);
    const std::string from_spike =
        input_error([&] { (void)run_streaming(spike, name, 8); });
    EXPECT_NE(from_spike.find("batch bound"), std::string::npos) << name;
  }
}

TEST(StreamingReductions, CheckpointsResumeAndStopFlagAreRejected) {
  volatile std::sig_atomic_t stop = 0;
  for (const char* const name : {"distribute", "varbatch"}) {
    ShardedRunOptions checkpoints;
    checkpoints.checkpoint_dir = ::testing::TempDir() + "rrs_reduction_ckpt";
    ShardedRunOptions resume = checkpoints;
    ShardedRunOptions stop_flag = checkpoints;
    checkpoints.checkpoint_every = 64;
    resume.resume = true;
    stop_flag.stop_flag = &stop;
    const std::pair<const ShardedRunOptions*, const char*> cases[] = {
        {&checkpoints, "checkpoint_every"},
        {&resume, "resume"},
        {&stop_flag, "stop flag"},
    };
    for (const auto& [options, knob] : cases) {
      RandomBatchedSource source(bursty_stream_params());
      const std::string what = input_error([&] {
        (void)run_streaming_sharded(source, name, 8, 1, 1024, *options);
      });
      EXPECT_NE(what.find(name), std::string::npos) << what;
      EXPECT_NE(what.find(knob), std::string::npos) << what;
    }
  }
}

TEST(StreamingReductions, AnObserverIsRejected) {
  // The observer would count the adapters' virtual colors, not the mapped
  // run, so a reduction rejects one, serially and sharded.
  for (const char* const name : {"distribute", "varbatch"}) {
    for (const int shards : {1, 2}) {
      RandomBatchedSource source(bursty_stream_params());
      Observer observer;
      ShardedRunOptions options;
      options.observer = &observer;
      const std::string what = input_error([&] {
        if (shards == 1) {
          (void)run_streaming(source, name, 8, 1024, nullptr, false,
                              &observer);
        } else {
          (void)run_streaming_sharded(source, name, 8, shards, 1024, options);
        }
      });
      EXPECT_NE(what.find(name), std::string::npos) << what;
      EXPECT_NE(what.find("observer"), std::string::npos) << what;
    }
  }
}

}  // namespace
}  // namespace rrs
