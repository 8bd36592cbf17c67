// The fast-path equivalence matrix and the weighted-drop parity checks.
//
// Equivalence: a scalar-uniform configuration (scalar Delta, unit drop
// costs, unit lengths) must run bit-identically whether its charges go
// through the scalar fast path or through an all-equal vector or matrix
// model — for run_streaming AND run_streaming_sharded, across every engine
// algorithm x workload family x seed.  This pins the tentpole guarantee
// that generalizing the cost model never perturbs the paper's setting.
//
// Parity: every layer that prices a drop must price it identically —
// engine CostBreakdown == validator recomputation == schedule.cost() ==
// obs StreamStats weighted totals — including under non-uniform weights,
// lengths, and a warm-discount matrix.
#include <gtest/gtest.h>

#ifdef __linux__
#include <sys/personality.h>
#include <unistd.h>
#endif

#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "core/arrival_source.h"
#include "core/validator.h"
#include "obs/observer.h"
#include "sim/runner.h"
#include "test_util.h"
#include "workload/datacenter.h"
#include "workload/flash_crowd.h"
#include "workload/poisson.h"
#include "workload/random_batched.h"

namespace rrs {
namespace {

const char* const kStreamingAlgorithms[] = {
    "dlru", "edf", "dlru-edf", "adaptive", "seq-edf", "ds-seq-edf",
};

const char* const kFamilies[] = {
    "random-batched", "poisson", "flash-crowd", "datacenter",
};

/// Materialized instance for (family, seed); mirrors sharded_test's
/// streaming sources but in instance form so the cost-model tier can be
/// rebuilt around the identical job sequence.
Instance make_instance(const std::string& family, std::uint64_t seed) {
  if (family == "random-batched") {
    RandomBatchedParams params;
    params.horizon = 256;
    params.seed = seed;
    return make_random_batched(params);
  }
  if (family == "poisson") {
    PoissonParams params;
    params.horizon = 256;
    params.seed = seed;
    return make_poisson(params);
  }
  if (family == "flash-crowd") {
    FlashCrowdParams params;
    params.spike_start = 64;
    params.spike_end = 128;
    params.horizon = 256;
    params.seed = seed;
    return make_flash_crowd(params).instance;
  }
  if (family == "datacenter") {
    DatacenterParams params;
    params.horizon = 256;
    params.seed = seed;
    return make_datacenter(params);
  }
  ADD_FAILURE() << "unknown family " << family;
  return {};
}

/// Rebuilds `base` with the identical colors and job sequence but its cost
/// model promoted to `tier`, every entry equal to Delta — behaviorally the
/// same prices, structurally a different charging path.
Instance with_all_equal_tier(const Instance& base, CostModel::Tier tier) {
  InstanceBuilder builder;
  builder.delta(base.delta());
  for (ColorId c = 0; c < base.num_colors(); ++c) {
    builder.add_color(base.delay_bound(c), base.drop_cost(c),
                      base.length(c));
  }
  if (tier != CostModel::Tier::kScalar) {
    for (ColorId c = 0; c < base.num_colors(); ++c) {
      builder.reconfig_cost(c, base.delta());
    }
  }
  if (tier == CostModel::Tier::kMatrix) {
    for (ColorId f = 0; f < base.num_colors(); ++f) {
      for (ColorId t = 0; t < base.num_colors(); ++t) {
        if (f != t) builder.transition_cost(f, t, base.delta());
      }
    }
  }
  for (const Job& job : base.jobs()) {
    builder.add_jobs(job.color, job.arrival, 1);
  }
  builder.min_horizon(base.horizon());
  return builder.build();
}

using Cell = std::tuple<const char*, const char*, std::uint64_t>;

class TierEquivalenceMatrix : public ::testing::TestWithParam<Cell> {};

TEST_P(TierEquivalenceMatrix, StreamingAndShardedAreBitIdentical) {
  const auto& [algorithm, family, seed] = GetParam();
  const Instance scalar = make_instance(family, seed);
  // The family generators all price reconfiguration through the scalar
  // fast path (datacenter carries non-uniform drop weights, which the
  // tier rebuild preserves verbatim — the equivalence is about Delta).
  ASSERT_TRUE(scalar.cost_model().scalar_reconfig());
  const Instance vector =
      with_all_equal_tier(scalar, CostModel::Tier::kVector);
  const Instance matrix =
      with_all_equal_tier(scalar, CostModel::Tier::kMatrix);
  ASSERT_EQ(vector.jobs(), scalar.jobs());
  ASSERT_EQ(matrix.jobs(), scalar.jobs());

  const int n = 8;
  MaterializedSource scalar_source(scalar);
  const StreamRunRecord want = run_streaming(scalar_source, algorithm, n);
  for (const auto& [label, instance] :
       {std::pair<const char*, const Instance*>{"vector", &vector},
        std::pair<const char*, const Instance*>{"matrix", &matrix}}) {
    MaterializedSource source(*instance);
    testing::expect_same_run(run_streaming(source, algorithm, n), want,
                             std::string("streaming/") + label);
  }

  // The sharded phase needs a shape every algorithm's replication
  // granularity accepts: 16 resources hold four blocks of four, so two
  // shards are valid even for dlru-edf and adaptive.
  const int sharded_n = 16;
  const int num_shards = 2;
  MaterializedSource sharded_scalar(scalar);
  const ShardedRunRecord sharded_want =
      run_streaming_sharded(sharded_scalar, algorithm, sharded_n, num_shards);
  for (const auto& [label, instance] :
       {std::pair<const char*, const Instance*>{"vector", &vector},
        std::pair<const char*, const Instance*>{"matrix", &matrix}}) {
    MaterializedSource source(*instance);
    const ShardedRunRecord got =
        run_streaming_sharded(source, algorithm, sharded_n, num_shards);
    testing::expect_same_run(got.merged, sharded_want.merged,
                             std::string("sharded-merged/") + label);
    ASSERT_EQ(got.shards.size(), sharded_want.shards.size());
    for (std::size_t s = 0; s < got.shards.size(); ++s) {
      testing::expect_same_run(got.shards[s], sharded_want.shards[s],
                               std::string("shard/") + label);
    }
  }
}

std::string cell_name(const ::testing::TestParamInfo<Cell>& info) {
  std::string name = std::string(std::get<0>(info.param)) + "_" +
                     std::get<1>(info.param) + "_s" +
                     std::to_string(std::get<2>(info.param));
  for (char& ch : name) {
    if (ch == '-') ch = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, TierEquivalenceMatrix,
    ::testing::Combine(::testing::ValuesIn(kStreamingAlgorithms),
                       ::testing::ValuesIn(kFamilies),
                       ::testing::Values(std::uint64_t{1}, std::uint64_t{2},
                                         std::uint64_t{3})),
    cell_name);

// --- weighted-drop cross-layer parity --------------------------------------

/// A deliberately contended non-uniform instance: weights 1..5, lengths
/// 1..3, vector cold prices, and warm discounts between the first two
/// colors.  Too few resources to serve everything, so drops are plentiful.
Instance make_nonuniform_instance() {
  InstanceBuilder builder;
  builder.delta(4);
  std::vector<ColorId> colors;
  for (int c = 0; c < 6; ++c) {
    colors.push_back(
        builder.add_color(/*d=*/4 << (c % 3), /*drop_cost=*/1 + (c % 5),
                          /*length=*/1 + (c % 3)));
  }
  for (const ColorId c : colors) {
    builder.reconfig_cost(c, 3 + static_cast<Cost>(c));
  }
  builder.transition_cost(colors[0], colors[1], 1);
  builder.transition_cost(colors[1], colors[0], 0);
  builder.transition_cost(colors[2], colors[3], 2);
  for (Round t = 0; t < 192; ++t) {
    for (const ColorId c : colors) {
      if (t % (1 + static_cast<Round>(c)) == 0) builder.add_jobs(c, t, 2);
    }
  }
  return builder.build();
}

TEST(WeightedDropParity, EngineValidatorScheduleAndObsAgree) {
  const Instance instance = make_nonuniform_instance();
  ASSERT_EQ(instance.cost_model().tier(), CostModel::Tier::kMatrix);
  for (const char* const algorithm : kStreamingAlgorithms) {
    SCOPED_TRACE(algorithm);
    Schedule schedule;
    const StreamRunRecord record =
        run_algorithm(instance, algorithm, 4, &schedule);
    EXPECT_GT(record.cost.drops, 0) << "parity needs actual drops";

    // The validator's independent replay recomputes the same breakdown...
    EXPECT_EQ(validate_or_throw(instance, schedule), record.cost);
    // ...and Schedule::cost's recomputation agrees.
    EXPECT_EQ(schedule.cost(instance), record.cost);

    // The streaming run's snapshot totals match the engine's charges.
    MaterializedSource source(instance);
    Observer observer;
    const StreamRunRecord stream = run_streaming(source, algorithm, 4,
                                                 kInfiniteHorizon, nullptr,
                                                 false, &observer);
    const Snapshot& totals = observer.final_snapshot;
    EXPECT_EQ(stream.cost, record.cost);
    EXPECT_EQ(totals.drop_weight, record.cost.drops);
    EXPECT_EQ(totals.reconfig_events, record.cost.reconfig_events);
    EXPECT_EQ(totals.executed, record.executed);
    // Every job is dropped or completed; the priced totals must tile the
    // instance's total weight.
    EXPECT_EQ(totals.drop_weight + totals.completed_weight,
              instance.total_weight());
  }
}

}  // namespace
}  // namespace rrs

// gtest prints a const char* parameter as its address, and ctest names each
// TierEquivalenceMatrix case after that print, so under address-space
// randomization every build names the cases afresh. Re-executing once with
// randomization off, as the sanitizer runtimes do, puts the literals at the
// same addresses on every run. Where the kernel refuses, the tests still run,
// under randomized names.
int main(int argc, char** argv) {
#ifdef __linux__
  const int persona = personality(0xffffffff);
  if (persona != -1 && (persona & ADDR_NO_RANDOMIZE) == 0 &&
      personality(persona | ADDR_NO_RANDOMIZE) != -1 &&
      (personality(0xffffffff) & ADDR_NO_RANDOMIZE) != 0) {
    execv("/proc/self/exe", argv);  // returns only on failure
  }
#endif
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
