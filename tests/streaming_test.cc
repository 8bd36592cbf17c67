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

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <tuple>

#include "core/engine.h"
#include "sim/runner.h"
#include "workload/datacenter.h"
#include "workload/flash_crowd.h"
#include "workload/generator_source.h"
#include "workload/poisson.h"
#include "workload/random_batched.h"

namespace rrs {
namespace {

// Engine-driven algorithms runnable on a stream.  ("distribute" and
// "varbatch" are whole-instance transforms, covered by integration_test.)
const char* const kStreamingAlgorithms[] = {
    "dlru", "edf", "dlru-edf", "adaptive", "seq-edf", "ds-seq-edf",
};

const char* const kFamilies[] = {
    "random-batched", "poisson", "flash-crowd", "datacenter",
};

/// Fresh streaming source for (family, seed).  Horizons are kept small so
/// the full matrix stays fast.
std::unique_ptr<ArrivalSource> make_source(const std::string& family,
                                           std::uint64_t seed) {
  if (family == "random-batched") {
    RandomBatchedParams params;
    params.horizon = 256;
    params.seed = seed;
    return std::make_unique<RandomBatchedSource>(params);
  }
  if (family == "poisson") {
    PoissonParams params;
    params.horizon = 256;
    params.seed = seed;
    return std::make_unique<PoissonSource>(params);
  }
  if (family == "flash-crowd") {
    FlashCrowdParams params;
    params.spike_start = 128;
    params.spike_end = 192;
    params.horizon = 512;
    params.seed = seed;
    return std::make_unique<FlashCrowdSource>(params);
  }
  if (family == "datacenter") {
    DatacenterParams params;
    params.horizon = 1024;
    params.seed = seed;
    return std::make_unique<DatacenterSource>(params);
  }
  ADD_FAILURE() << "unknown family " << family;
  return nullptr;
}

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

}  // namespace
}  // namespace rrs
