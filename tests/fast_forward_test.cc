// Sparse-round fast-forward equivalence: a run with
// EngineOptions::fast_forward on must be bit-identical — costs, drops,
// reconfigurations, rounds, degraded accounting, policy stats, snapshot
// series — to the same run with it off, across every engine-driven
// algorithm, workload family, and seed, with and without fault plans,
// and through the sharded runner.  Two of the families have arbitrary
// delay bounds, one of them weighted: there a deadline caught up to the
// wrong block can reorder EDF ranks, which nested power-of-two bounds
// hide.  The flash-trickle family's spike starts and ends inside quiet
// stretches, so skips cross both edges of the source's quiet-round
// lanes.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
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
#include "util/rng.h"
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
    "random-batched",    "poisson",          "flash-crowd",   "datacenter",
    "poisson-arbitrary", "weighted-trickle", "flash-trickle",
};

/// A materialized weighted trickle over 1024 rounds: eight colors with
/// arbitrary delay bounds 3-40, drop costs 1-4 and lengths 1-3, each
/// starting a burst of 1-3 jobs in about one round in 250.  Built once
/// per seed (a MaterializedSource only points at its instance).
const Instance& weighted_trickle(std::uint64_t seed) {
  static std::map<std::uint64_t, Instance> built;
  if (const auto it = built.find(seed); it != built.end()) return it->second;
  constexpr ColorId kColors = 8;
  constexpr Round kHorizon = 1024;
  Rng rng(seed);
  InstanceBuilder builder;
  builder.delta(6);
  for (ColorId c = 0; c < kColors; ++c) {
    builder.add_color(rng.uniform(3, 40), /*drop_cost=*/1 + c % 4,
                      /*length=*/1 + c % 3);
  }
  for (Round k = 0; k < kHorizon; ++k) {
    for (ColorId c = 0; c < kColors; ++c) {
      if (rng.bernoulli(0.004)) builder.add_jobs(c, k, rng.uniform(1, 3));
    }
  }
  builder.min_horizon(kHorizon);
  return built.emplace(seed, builder.build()).first->second;
}

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
  if (family == "poisson-arbitrary") {
    PoissonParams params;
    params.horizon = 512;
    params.mean_rate = 0.002;
    params.arbitrary_delays = true;
    params.min_delay = 3;
    params.max_delay = 40;
    params.seed = seed;
    return std::make_unique<PoissonSource>(params);
  }
  if (family == "weighted-trickle") {
    return std::make_unique<MaterializedSource>(weighted_trickle(seed));
  }
  if (family == "flash-trickle") {
    // A trickle with a spike of 0.5 jobs per round: quiet rounds inside
    // the spike let the engine skip across its end as well as into it.
    FlashCrowdParams params;
    params.base_rate = 0.002;
    params.spike_factor = 250.0;
    params.spike_start = 300;
    params.spike_end = 400;
    params.spike_delay = 8;
    params.background_colors = 3;
    params.background_rate = 0.001;
    params.background_delay = 64;
    params.horizon = 1024;
    params.seed = seed;
    return std::make_unique<FlashCrowdSource>(params);
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

TEST(FastForwardSkips, FlashGapVisitsFewRounds) {
  // E9's flash-gap stream: a trickle with one dense spike in 1M rounds.
  // Quiescent block starts are skipped, so the engine visits the rounds
  // around arrivals, wraps and epoch ends, not every block start of the
  // D = 8 color (which alone is 12.5% of rounds).  The run must also
  // equal the one that visits every round.
  FlashCrowdParams params;
  params.seed = 99;
  params.base_rate = 0.0005;
  params.spike_factor = 4000.0;
  params.spike_start = 500'000;
  params.spike_end = 501'024;
  params.background_colors = 3;
  params.background_rate = 0.0002;
  params.background_delay = 64;
  params.horizon = kInfiniteHorizon;
  struct VisitCounter final : RunSink {
    std::int64_t visited = 0;
    void on_round_end(const RoundEnd&) override { ++visited; }
  };
  const auto run = [&params](bool fast_forward, VisitCounter& counter) {
    FlashCrowdSource source(params);
    EngineOptions options;
    options.num_resources = 8;
    options.record_schedule = false;
    options.max_rounds = 1'000'000;
    options.drain_pending = true;
    options.fast_forward = fast_forward;
    const std::unique_ptr<Policy> policy =
        make_stream_policy("dlru-edf", options);
    Engine engine(source, *policy, options);
    engine.attach(counter);
    engine.run_rounds(source, engine.arrival_end());
    return engine.finish();
  };
  VisitCounter counter;
  const EngineResult result = run(true, counter);
  VisitCounter every_round;
  const EngineResult sequential = run(false, every_round);
  testing::expect_same_run(result, sequential, "flash-gap");
  EXPECT_EQ(every_round.visited, sequential.rounds);
  EXPECT_GE(result.rounds, 1'000'000);
  EXPECT_GT(result.arrived, 2'500) << "the spike must arrive";
  EXPECT_GT(counter.visited, 0);
  EXPECT_LT(static_cast<double>(counter.visited),
            0.025 * static_cast<double>(result.rounds))
      << counter.visited << " of " << result.rounds << " rounds visited";
}

/// The logical cached set, rebuilt from the engine's membership events.
class CachedSet final : public RunSink {
 public:
  explicit CachedSet(ColorId colors)
      : cached_(static_cast<std::size_t>(colors), false) {}
  void on_membership(const Membership& e) override {
    cached_[static_cast<std::size_t>(e.color)] = e.inserted;
  }
  [[nodiscard]] bool contains(ColorId color) const {
    return cached_[static_cast<std::size_t>(color)];
  }

 private:
  std::vector<bool> cached_;
};

TEST(FastForwardContract, PolicyEventIsTheNextActiveBlockStart) {
  // Fast-forward must stop at each block start that changes more than a
  // deadline.  The reference applies Section 3.1's block-start rule to
  // each color's exported state and the cached set the membership events
  // left: at its next block start a color ends its epoch if it is
  // eligible and not cached, and records max(last wrap, 0) as its
  // timestamp.  The policy must report the earliest start where either
  // changes the color, or none; adaptive also stops at its window end (a
  // window closes at each multiple of kWindow when every round runs).
  std::int64_t quiescent = 0;
  std::int64_t active = 0;
  for (const char* const family :
       {"random-batched", "poisson", "poisson-arbitrary", "weighted-trickle"}) {
    for (const std::uint64_t seed : {1ULL, 2ULL}) {
      for (const char* const name : kStreamingAlgorithms) {
        const std::string algorithm = name;
        const auto source = make_source(family, seed);
        EngineOptions options;
        options.num_resources = 8;
        options.record_schedule = false;
        const std::unique_ptr<Policy> policy =
            make_stream_policy(algorithm, options);
        Engine engine(*source, *policy, options);
        CachedSet cached(source->num_colors());
        engine.attach(cached);
        // Before its first round the policy has seen no cache.
        ASSERT_EQ(policy->next_policy_event(0), 0) << algorithm;
        for (Round k = 1; k < engine.arrival_end(); ++k) {
          engine.run_rounds(*source, k);
          Round stop = kInfiniteHorizon;
          for (ColorId c = 0; c < source->num_colors(); ++c) {
            PolicyColorState state;
            ASSERT_TRUE(policy->export_color_state(c, state));
            const bool ends_epoch = state.eligible && !cached.contains(c);
            const Round timestamp = std::max<Round>(state.last_wrap, 0);
            if (!ends_epoch && timestamp == state.timestamp) continue;
            const Round start = ceil_multiple(k, source->delay_bound(c));
            if (stop == kInfiniteHorizon || start < stop) stop = start;
          }
          (stop == kInfiniteHorizon ? quiescent : active) += 1;
          if (algorithm == "adaptive") {
            const Round window_end =
                ceil_multiple(k, AdaptiveSplitPolicy::kWindow);
            stop = stop == kInfiniteHorizon ? window_end
                                            : std::min(stop, window_end);
          }
          ASSERT_EQ(policy->next_policy_event(k), stop)
              << algorithm << "/" << family << " seed " << seed << " round "
              << k;
        }
      }
    }
  }
  // Both answers occur, so neither half of the contract goes unchecked.
  EXPECT_GT(quiescent, 0);
  EXPECT_GT(active, 0);
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
