// Sparse-round fast-forward equivalence: a run with
// EngineOptions::fast_forward on must be bit-identical — costs, drops,
// reconfigurations, rounds, degraded accounting, policy stats, snapshot
// series — to the same run with it off, across every engine-driven
// algorithm, workload family, and seed, with and without fault plans,
// and through the sharded runner.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "algs/adaptive.h"
#include "algs/registry.h"
#include "core/engine.h"
#include "core/fault_plan.h"
#include "obs/observer.h"
#include "sim/runner.h"
#include "test_util.h"
#include "util/bits.h"
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

/// Fresh streaming source for (family, seed).  Rates are kept low (sparse
/// streams) so the fast-forward path actually fires.
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
    params.horizon = 512;
    params.mean_rate = 0.002;  // sparse: most rounds carry nothing
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

class FastForwardMatrix : public ::testing::TestWithParam<Cell> {};

TEST_P(FastForwardMatrix, BitIdenticalToSequentialRun) {
  const auto& [algorithm, family, seed] = GetParam();

  const auto slow_source = make_source(family, seed);
  const StreamRunRecord off =
      run_streaming(*slow_source, algorithm, 8, kInfiniteHorizon, nullptr,
                    false, nullptr, /*fast_forward=*/false);

  const auto fast_source = make_source(family, seed);
  const StreamRunRecord on =
      run_streaming(*fast_source, algorithm, 8, kInfiniteHorizon, nullptr,
                    false, nullptr, /*fast_forward=*/true);

  testing::expect_same_run(on, off, algorithm + "/" + family);
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

INSTANTIATE_TEST_SUITE_P(Matrix, FastForwardMatrix,
                         ::testing::ValuesIn(all_cells()), cell_name);

TEST(FastForwardFaults, IdenticalUnderCapacityChurn) {
  MtbfParams mtbf;
  mtbf.num_resources = 8;
  mtbf.horizon = 512;
  mtbf.mean_up = 100;
  mtbf.mean_down = 20;
  mtbf.seed = 5;
  const FaultPlan plan = make_mtbf_plan(mtbf);

  for (const char* const algorithm : kStreamingAlgorithms) {
    const auto slow_source = make_source("poisson", 7);
    const StreamRunRecord off =
        run_streaming(*slow_source, algorithm, 8, kInfiniteHorizon, &plan,
                      true, nullptr, /*fast_forward=*/false);
    const auto fast_source = make_source("poisson", 7);
    const StreamRunRecord on =
        run_streaming(*fast_source, algorithm, 8, kInfiniteHorizon, &plan,
                      true, nullptr, /*fast_forward=*/true);
    testing::expect_same_run(on, off, std::string(algorithm) + " under faults");
    EXPECT_GT(on.degraded.fault_events, 0) << "plan must actually fire";
  }
}

TEST(FastForwardSnapshots, SnapshotSeriesIsByteIdentical) {
  const auto run = [](bool fast_forward, std::string* json_out) {
    ObsConfig config;
    config.snapshot_every = 64;
    Observer observer(config);
    std::ostringstream sink;
    observer.snapshot_out = &sink;
    const auto source = make_source("poisson", 9);
    const StreamRunRecord record =
        run_streaming(*source, "dlru-edf", 8, kInfiniteHorizon, nullptr,
                      false, &observer, fast_forward);
    *json_out = sink.str();
    return record;
  };

  std::string on_json;
  std::string off_json;
  const StreamRunRecord on = run(true, &on_json);
  const StreamRunRecord off = run(false, &off_json);
  testing::expect_same_run(on, off, "observed run");
  EXPECT_FALSE(on_json.empty());
  // Snapshots fire at the same rounds with the same cumulative counters:
  // the JSON-lines series must match byte for byte.
  EXPECT_EQ(on_json, off_json);
}

TEST(FastForwardSharded, IdenticalAcrossShards) {
  ShardedRunOptions on_options;
  on_options.fast_forward = true;
  ShardedRunOptions off_options = on_options;
  off_options.fast_forward = false;

  const auto on_source = make_source("poisson", 11);
  const ShardedRunRecord on = run_streaming_sharded(
      *on_source, "dlru-edf", 16, 2, kInfiniteHorizon, on_options);
  const auto off_source = make_source("poisson", 11);
  const ShardedRunRecord off = run_streaming_sharded(
      *off_source, "dlru-edf", 16, 2, kInfiniteHorizon, off_options);

  testing::expect_same_run(on.merged, off.merged, "sharded");
  ASSERT_EQ(on.shards.size(), off.shards.size());
  for (std::size_t s = 0; s < on.shards.size(); ++s) {
    testing::expect_same_run(on.shards[s], off.shards[s],
                             "shard " + std::to_string(s));
  }
}

TEST(FastForwardSkips, LongGapIsActuallyJumped) {
  // A two-burst instance with a 100k-round gap: the run must stay exact
  // AND finish the full horizon (rounds includes the skipped span).
  InstanceBuilder builder;
  const ColorId c = builder.add_color(/*d=*/8);
  builder.add_jobs(c, 0, 4);
  builder.add_jobs(c, 100000, 4);
  const Instance instance = builder.build();

  MaterializedSource on_source(instance);
  const StreamRunRecord on = run_streaming(on_source, "edf", 4);
  MaterializedSource off_source(instance);
  const StreamRunRecord off = run_streaming(
      off_source, "edf", 4, kInfiniteHorizon, nullptr, false, nullptr,
      /*fast_forward=*/false);

  testing::expect_same_run(on, off, "two-burst gap");
  EXPECT_EQ(on.arrived, 8);
  EXPECT_GT(on.rounds, 100000);
}

TEST(FastForwardContract, PolicyEventIsTheNextBlockStart) {
  // Fast-forward must stop at every block start: k on a multiple of some
  // delay bound, else the earliest multiple after k.  The ranked policies
  // report that round, and adaptive the earlier of it and its window end
  // (a window closes at each multiple of kWindow when every round runs).
  for (const char* const family : {"random-batched", "poisson"}) {
    for (const std::uint64_t seed : {1ULL, 2ULL}) {
      for (const char* const name : kStreamingAlgorithms) {
        const std::string algorithm = name;
        const auto source = make_source(family, seed);
        std::vector<Round> delays;
        for (ColorId c = 0; c < source->num_colors(); ++c) {
          delays.push_back(source->delay_bound(c));
        }
        EngineOptions options;
        options.num_resources = 8;
        options.record_schedule = false;
        const std::unique_ptr<Policy> policy =
            make_stream_policy(algorithm, options);
        Engine engine(*source, *policy, options);
        for (Round k = 0; k < engine.arrival_end(); ++k) {
          engine.run_rounds(*source, k);
          Round stop = std::numeric_limits<Round>::max();
          for (const Round d : delays) {
            stop = std::min(stop, k % d == 0 ? k : ceil_multiple(k, d));
          }
          if (algorithm == "adaptive") {
            const Round window_end =
                std::max(ceil_multiple(k, AdaptiveSplitPolicy::kWindow),
                         AdaptiveSplitPolicy::kWindow);
            stop = std::min(stop, window_end);
          }
          ASSERT_EQ(policy->next_policy_event(k), stop)
              << algorithm << "/" << family << " seed " << seed << " round "
              << k;
        }
      }
    }
  }
}

TEST(FastForwardContract, DefaultSourceHintNeverSkips) {
  // The base-class next_event_round returns k: an unaudited source is
  // never skipped past, so fast-forward on it degrades to the plain loop.
  class OpaqueSource final : public ArrivalSource {
   public:
    explicit OpaqueSource(const Instance& instance) : inner_(instance) {}
    [[nodiscard]] Cost delta() const override { return inner_.delta(); }
    [[nodiscard]] ColorId num_colors() const override {
      return inner_.num_colors();
    }
    [[nodiscard]] Round delay_bound(ColorId color) const override {
      return inner_.delay_bound(color);
    }
    [[nodiscard]] Cost drop_cost(ColorId color) const override {
      return inner_.drop_cost(color);
    }
    [[nodiscard]] Round horizon() const override { return inner_.horizon(); }
    [[nodiscard]] std::span<const Job> arrivals_in_round(Round k) override {
      ++pulls_;
      return inner_.arrivals_in_round(k);
    }
    [[nodiscard]] std::int64_t pulls() const { return pulls_; }

   private:
    MaterializedSource inner_;
    std::int64_t pulls_ = 0;
  };

  InstanceBuilder builder;
  const ColorId c = builder.add_color(/*d=*/4);
  builder.add_jobs(c, 0, 2);
  builder.add_jobs(c, 500, 2);
  const Instance instance = builder.build();

  OpaqueSource opaque(instance);
  const StreamRunRecord through = run_streaming(opaque, "edf", 4);
  MaterializedSource plain(instance);
  const StreamRunRecord reference = run_streaming(plain, "edf", 4);
  testing::expect_same_run(through, reference, "opaque source");
  // Every arrival-range round was pulled individually.
  EXPECT_GE(opaque.pulls(), 500);
}

}  // namespace
}  // namespace rrs
