// Sharded streaming execution: the color-partitioned multi-engine path.
//
// Three layers are covered.  ShardPlan: the partition covers every color
// exactly once, resources split proportionally in replication units, no
// shard gets more colors than its slice caches whenever all colors fit,
// and plans are deterministic.  ShardedSource: the union of the per-shard
// streams is exactly the underlying stream (ids preserved, colors
// relabeled densely per shard).  run_streaming_sharded: with K = 1 the
// merged record is bit-identical to run_streaming for every engine
// algorithm x workload family x seed, fixed (seed, K > 1) runs are
// deterministic across repetitions with exactly additive costs, and the
// demux fabric agrees bit for bit with the shard-native generator views.
#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <exception>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "core/shard_plan.h"
#include "obs/observer.h"
#include "sim/runner.h"
#include "test_util.h"
#include "util/thread_pool.h"
#include "workload/datacenter.h"
#include "workload/flash_crowd.h"
#include "workload/poisson.h"
#include "workload/random_batched.h"
#include "workload/sharded_source.h"

namespace rrs {
namespace {

const char* const kStreamingAlgorithms[] = {
    "dlru", "edf", "dlru-edf", "adaptive", "seq-edf", "ds-seq-edf",
};

const char* const kFamilies[] = {
    "random-batched", "poisson", "flash-crowd", "datacenter",
};

/// Fresh streaming source for (family, seed); mirrors streaming_test.
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

// --- ShardPlan -------------------------------------------------------------

TEST(ShardPlanTest, PartitionCoversEveryColorExactlyOnce) {
  const ShardPlan plan = make_shard_plan(17, 4, 16, 2);
  ASSERT_EQ(plan.num_shards, 4);
  ASSERT_EQ(plan.num_colors(), 17);
  std::set<ColorId> seen;
  for (int s = 0; s < plan.num_shards; ++s) {
    const auto& colors = plan.shard_colors[static_cast<std::size_t>(s)];
    EXPECT_FALSE(colors.empty());
    EXPECT_TRUE(std::is_sorted(colors.begin(), colors.end()));
    for (const ColorId c : colors) {
      EXPECT_TRUE(seen.insert(c).second) << "color " << c << " duplicated";
      EXPECT_EQ(plan.shard_of_color[static_cast<std::size_t>(c)], s);
    }
  }
  EXPECT_EQ(seen.size(), 17u);
}

TEST(ShardPlanTest, ResourcesSplitInReplicationUnitsSummingToBudget) {
  const ShardPlan plan = make_shard_plan(12, 3, 16, 2);
  EXPECT_EQ(plan.total_resources(), 16);
  for (const int r : plan.shard_resources) {
    EXPECT_GE(r, 2);
    EXPECT_EQ(r % 2, 0);
  }
}

TEST(ShardPlanTest, SingleShardIsTheIdentity) {
  const ShardPlan plan = make_shard_plan(8, 1, 8, 2);
  ASSERT_EQ(plan.shard_colors.size(), 1u);
  for (ColorId c = 0; c < 8; ++c) {
    EXPECT_EQ(plan.shard_colors[0][static_cast<std::size_t>(c)], c);
    EXPECT_EQ(plan.shard_of_color[static_cast<std::size_t>(c)], 0);
  }
  EXPECT_EQ(plan.shard_resources[0], 8);
}

TEST(ShardPlanTest, DeterministicAcrossRepetitions) {
  const ColorId colors = make_source("poisson", 42)->num_colors();
  const ShardPlan a = make_shard_plan(colors, 4, 16, 2);
  const ShardPlan b = make_shard_plan(colors, 4, 16, 2);
  EXPECT_EQ(a.shard_of_color, b.shard_of_color);
  EXPECT_EQ(a.shard_resources, b.shard_resources);
  EXPECT_EQ(a.shard_colors, b.shard_colors);
}

TEST(ShardPlanOddGranularity, LargestRemainderSplitsIndivisibleUnits) {
  // n = 24 with unit 4 gives 6 units over 3 shards holding 3, 3 and 2 of
  // 8 colors.  After one unit each, the 3 spare units split 1.125, 1.125
  // and 0.75: the floors give the first two shards one each, and the
  // largest remainder gives the last unit to the third shard, not to the
  // lowest index.
  const ShardPlan plan = make_shard_plan(8, 3, 24, 4);
  const std::vector<std::size_t> held = {plan.shard_colors[0].size(),
                                         plan.shard_colors[1].size(),
                                         plan.shard_colors[2].size()};
  EXPECT_EQ(held, (std::vector<std::size_t>{3, 3, 2}));
  EXPECT_EQ(plan.shard_resources, (std::vector<int>{8, 8, 8}));

  // n = 20 gives 5 units: the 2 spare units split 0.75, 0.75, 0.5, and
  // the tied largest remainders go to the lower indices.
  const ShardPlan odd = make_shard_plan(8, 3, 20, 4);
  EXPECT_EQ(odd.shard_resources, (std::vector<int>{8, 8, 4}));
}

TEST(ShardPlanOddGranularity, RebalanceIsDeterministic) {
  // At an odd granularity (5 blocks of 4 over 3 shards) the same shape
  // must always yield the identical plan, or a fixed seed would not
  // reproduce its sharded run.
  const ShardPlan first = make_shard_plan(7, 3, 20, 4);
  for (int repeat = 0; repeat < 5; ++repeat) {
    const ShardPlan again = make_shard_plan(7, 3, 20, 4);
    EXPECT_EQ(again.shard_of_color, first.shard_of_color);
    EXPECT_EQ(again.shard_colors, first.shard_colors);
    EXPECT_EQ(again.shard_resources, first.shard_resources);
  }
}

/// Checks the invariants every plan keeps, plus the capacity rule: no
/// shard holds more colors than its slice caches at `replication`.
void expect_plan_fits(const ShardPlan& plan, int num_resources,
                      int replication) {
  EXPECT_EQ(plan.total_resources(), num_resources);
  for (std::size_t s = 0; s < plan.shard_colors.size(); ++s) {
    const auto held = static_cast<int>(plan.shard_colors[s].size());
    const int resources = plan.shard_resources[s];
    EXPECT_GE(held, 1) << "shard " << s;
    EXPECT_GE(resources, plan.resource_unit) << "shard " << s;
    EXPECT_EQ(resources % plan.resource_unit, 0) << "shard " << s;
    EXPECT_LE(held * replication, resources)
        << "shard " << s << " holds " << held << " colors";
  }
}

/// "C=<colors> K=<shards> n=<n> unit=<unit> r=<r>", for failure traces.
std::string shape_label(ColorId colors, int shards, int n, int unit, int r) {
  std::ostringstream os;
  os << "C=" << colors << " K=" << shards << " n=" << n;
  os << " unit=" << unit << " r=" << r;
  return os.str();
}

TEST(ShardPlanTest, NoShardExceedsItsSliceWheneverAllColorsFit) {
  // Every small shape with C * r <= n.
  const std::pair<int, int> unit_and_replication[] = {
      {1, 1}, {2, 1}, {2, 2}, {4, 2}, {4, 4}};
  for (const auto& [unit, replication] : unit_and_replication) {
    for (int shards = 1; shards <= 4; ++shards) {
      for (int n = shards * unit; n <= 8 * unit; n += unit) {
        for (ColorId colors = shards; colors * replication <= n; ++colors) {
          SCOPED_TRACE(shape_label(colors, shards, n, unit, replication));
          expect_plan_fits(make_shard_plan(colors, shards, n, unit,
                                           replication),
                           n, replication);
        }
      }
    }
  }
  // Unit rounding alone overloaded a shard: 5 blocks of 4 over 3 shards
  // left one 4-resource shard with 3 colors.
  expect_plan_fits(make_shard_plan(9, 3, 20, 4, 2), 20, 2);
}

TEST(ShardPlanTest, ShapesThatCannotFitIgnoreReplication) {
  // When C * r > n no plan fits every cache, and the plan is the
  // count-only one, byte for byte (matrix-sharded's 32 colors on 16, say).
  for (const int shards : {2, 3, 4}) {
    const ShardPlan count_only = make_shard_plan(32, shards, 16, 4);
    const ShardPlan with_r = make_shard_plan(32, shards, 16, 4, 2);
    EXPECT_EQ(with_r.shard_of_color, count_only.shard_of_color);
    EXPECT_EQ(with_r.shard_colors, count_only.shard_colors);
    EXPECT_EQ(with_r.shard_resources, count_only.shard_resources);
  }
}

TEST(ShardPlanTest, UniformPlansArePinned) {
  // FNV-1a over every plan's shard_of_color and shard_resources on a grid
  // of shapes: units from {1, 2, 4}, replications from {0, 1, 2, 4} that
  // divide the unit (0 = no capacity rule), K <= 5, n <= 12 units and
  // C <= 40.  The hash was recorded while the planner still took
  // per-color weights, so dealing colors by count keeps every plan it
  // built with uniform ones.
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  const auto mix = [&hash](std::int64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (static_cast<std::uint64_t>(value) >> (8 * byte)) & 0xffU;
      hash *= 0x100000001b3ULL;
    }
  };
  int shapes = 0;
  for (const int unit : {1, 2, 4}) {
    for (const int replication : {0, 1, 2, 4}) {
      if (replication > 0 && unit % replication != 0) continue;
      for (int shards = 1; shards <= 5; ++shards) {
        for (int units = shards; units <= 12; ++units) {
          for (ColorId colors = shards; colors <= 40; ++colors) {
            const ShardPlan plan = make_shard_plan(colors, shards, units * unit,
                                                   unit, replication);
            for (const int s : plan.shard_of_color) mix(s);
            for (const int r : plan.shard_resources) mix(r);
            ++shapes;
          }
        }
      }
    }
  }
  EXPECT_EQ(shapes, 17190);
  EXPECT_EQ(hash, 0x26ad2f08c3312900ULL);
}

TEST(ShardPlanTest, RejectsReplicationThatDoesNotDivideTheUnit) {
  EXPECT_THROW((void)make_shard_plan(4, 2, 16, 4, 3), InputError);
  EXPECT_THROW((void)make_shard_plan(4, 2, 16, 2, -1), InputError);
}

TEST(ShardPlanTest, RejectsInvalidShapes) {
  EXPECT_THROW((void)make_shard_plan(4, 5, 16, 2), InputError);   // K > colors
  EXPECT_THROW((void)make_shard_plan(8, 3, 4, 2), InputError);    // units < K
  EXPECT_THROW((void)make_shard_plan(8, 2, 7, 2), InputError);    // indivisible
  EXPECT_THROW((void)make_shard_plan(0, 1, 8, 2), InputError);    // no colors
}

// --- ShardedSource ---------------------------------------------------------

TEST(ShardedSourceTest, ShardStreamsPartitionTheUnderlyingStream) {
  const Round rounds = 128;
  const auto underlying = make_source("poisson", 9);
  const ShardPlan plan =
      make_shard_plan(underlying->num_colors(), 3, 8, 2);

  // Reference pull: job ids per (round, shard), in order.
  const auto reference = make_source("poisson", 9);
  std::vector<std::vector<std::vector<Job>>> expected(
      static_cast<std::size_t>(plan.num_shards));
  for (auto& per_round : expected) {
    per_round.resize(static_cast<std::size_t>(rounds));
  }
  for (Round k = 0; k < rounds; ++k) {
    for (const Job& job : reference->arrivals_in_round(k)) {
      const auto s =
          static_cast<std::size_t>(
              plan.shard_of_color[static_cast<std::size_t>(job.color)]);
      expected[s][static_cast<std::size_t>(k)].push_back(job);
    }
  }

  // Split pull, serially (backpressure off so one thread can walk shard 0
  // to the end before shard 1 starts).
  ShardedSourceOptions options;
  options.chunk_rounds = 16;
  options.backpressure = false;
  ShardedSource sharded(*underlying, plan, rounds, options);
  for (int s = 0; s < plan.num_shards; ++s) {
    ArrivalSource& stream = sharded.stream(s);
    EXPECT_EQ(stream.horizon(), rounds);
    EXPECT_EQ(stream.num_colors(),
              static_cast<ColorId>(
                  plan.shard_colors[static_cast<std::size_t>(s)].size()));
    for (Round k = 0; k < rounds; ++k) {
      const std::span<const Job> got = stream.arrivals_in_round(k);
      const auto& want =
          expected[static_cast<std::size_t>(s)][static_cast<std::size_t>(k)];
      ASSERT_EQ(got.size(), want.size()) << "shard " << s << " round " << k;
      for (std::size_t i = 0; i < want.size(); ++i) {
        // Global ids, arrival, and the per-color metadata survive the
        // split; the color is relabeled to the shard-local id.
        EXPECT_EQ(got[i].id, want[i].id);
        EXPECT_EQ(got[i].arrival, want[i].arrival);
        EXPECT_EQ(got[i].delay_bound, want[i].delay_bound);
        EXPECT_EQ(got[i].drop_cost, want[i].drop_cost);
        const ColorId global =
            plan.shard_colors[static_cast<std::size_t>(s)]
                            [static_cast<std::size_t>(got[i].color)];
        EXPECT_EQ(global, want[i].color);
        EXPECT_EQ(stream.delay_bound(got[i].color), want[i].delay_bound);
        EXPECT_EQ(stream.drop_cost(got[i].color), want[i].drop_cost);
      }
    }
  }
}

TEST(ShardedSourceTest, SequentialPullEnforcedPerShard) {
  const auto underlying = make_source("poisson", 4);
  const ShardPlan plan = make_shard_plan(underlying->num_colors(), 2, 8, 2);
  ShardedSourceOptions options;
  options.backpressure = false;
  ShardedSource sharded(*underlying, plan, 64, options);
  (void)sharded.stream(0).arrivals_in_round(0);
  EXPECT_THROW((void)sharded.stream(0).arrivals_in_round(5), InputError);
}

TEST(ShardedSourceTest, CloseWakesABlockedStream) {
  // Nobody reads shard 1, so with one chunk of room the producer stalls
  // behind its queue and a walker of shard 0 runs dry.  close() must turn
  // the walker's wait into an InvariantError instead of leaving it there.
  const auto underlying = make_source("poisson", 4);
  const Round rounds = underlying->horizon();
  const ShardPlan plan = make_shard_plan(underlying->num_colors(), 2, 8, 2);
  ShardedSourceOptions options;
  options.chunk_rounds = 4;
  options.max_buffered_chunks = 1;
  ShardedSource sharded(*underlying, plan, rounds, options);
  std::exception_ptr error;
  std::thread walker([&sharded, &error, rounds] {
    try {
      ArrivalSource& stream = sharded.stream(0);
      for (Round k = 0; k < rounds; ++k) (void)stream.arrivals_in_round(k);
    } catch (...) {
      error = std::current_exception();
    }
  });
  sharded.close();
  walker.join();
  ASSERT_NE(error, nullptr);
  EXPECT_THROW(std::rethrow_exception(error), InvariantError);
}

// --- run_streaming_sharded -------------------------------------------------

using Cell = std::tuple<std::string, std::string, std::uint64_t>;

class SingleShardBitIdentity : public ::testing::TestWithParam<Cell> {};

TEST_P(SingleShardBitIdentity, MatchesRunStreaming) {
  const auto& [algorithm, family, seed] = GetParam();

  const auto plain_source = make_source(family, seed);
  const StreamRunRecord plain =
      run_streaming(*plain_source, algorithm, 8);

  const auto sharded_source = make_source(family, seed);
  const ShardedRunRecord sharded =
      run_streaming_sharded(*sharded_source, algorithm, 8, 1);

  testing::expect_same_run(sharded.merged, plain,
                           family + " seed " + std::to_string(seed));
  ASSERT_EQ(sharded.shards.size(), 1u);
  EXPECT_EQ(sharded.shards[0].cost, plain.cost);
  EXPECT_EQ(sharded.shards[0].n, 8);
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

INSTANTIATE_TEST_SUITE_P(Matrix, SingleShardBitIdentity,
                         ::testing::ValuesIn(all_cells()), cell_name);

TEST(ShardedRunTest, FixedSeedAndShardCountIsDeterministic) {
  for (const int shards : {2, 3}) {
    const std::string label = std::to_string(shards) + " shards";
    std::vector<ShardedRunRecord> runs;
    for (int repeat = 0; repeat < 3; ++repeat) {
      const auto source = make_source("random-batched", 7);
      runs.push_back(run_streaming_sharded(*source, "dlru-edf", 16, shards));
    }
    for (std::size_t repeat = 1; repeat < runs.size(); ++repeat) {
      const ShardedRunRecord& again = runs[repeat];
      testing::expect_same_run(runs[0].merged, again.merged, label);
      ASSERT_EQ(runs[0].shards.size(), again.shards.size()) << label;
      for (std::size_t s = 0; s < again.shards.size(); ++s) {
        testing::expect_same_run(runs[0].shards[s], again.shards[s], label);
      }
    }
  }
}

TEST(ShardedRunTest, MergedRecordAggregatesShards) {
  const auto source = make_source("datacenter", 5);
  const ShardedRunRecord record =
      run_streaming_sharded(*source, "dlru-edf", 16, 4);
  ASSERT_EQ(record.shards.size(), 4u);
  EXPECT_EQ(record.plan.num_shards, 4);

  CostBreakdown cost_sum;
  std::int64_t executed = 0, arrived = 0, peak = 0;
  Round rounds = 0;
  int resources = 0;
  for (const StreamRunRecord& shard : record.shards) {
    cost_sum.reconfig_events += shard.cost.reconfig_events;
    cost_sum.reconfig_cost += shard.cost.reconfig_cost;
    cost_sum.drops += shard.cost.drops;
    executed += shard.executed;
    arrived += shard.arrived;
    peak += shard.peak_pending;
    rounds = std::max(rounds, shard.rounds);
    resources += shard.n;
  }
  EXPECT_EQ(record.merged.cost, cost_sum);
  EXPECT_EQ(record.merged.executed, executed);
  EXPECT_EQ(record.merged.arrived, arrived);
  EXPECT_EQ(record.merged.peak_pending, peak);
  EXPECT_EQ(record.merged.rounds, rounds);
  EXPECT_EQ(record.merged.n, 16);
  EXPECT_EQ(resources, 16);
  // Datacenter drop costs are weighted (> 1 per job), so `drops` is a
  // cost, not a count: conservation here is an inequality.
  EXPECT_GE(record.merged.executed + record.merged.cost.drops,
            record.merged.arrived);
  EXPECT_LE(record.merged.executed, record.merged.arrived);
}

TEST(ShardedRunTest, ShardCountsAgreeOnArrivals) {
  // The same stream split K ways always carries the same jobs.
  std::vector<std::int64_t> arrived;
  for (const int shards : {1, 2, 4}) {
    const auto source = make_source("flash-crowd", 11);
    const ShardedRunRecord record =
        run_streaming_sharded(*source, "dlru-edf", 16, shards);
    arrived.push_back(record.merged.arrived);
  }
  EXPECT_EQ(arrived[0], arrived[1]);
  EXPECT_EQ(arrived[0], arrived[2]);
}

/// A flash crowd that inherits its clone(): the runner's typeid guard
/// cannot vouch that the clone synthesizes this class's arrivals, so runs
/// over it go through the demux fabric.
class FabricFlashCrowd : public FlashCrowdSource {
 public:
  using FlashCrowdSource::FlashCrowdSource;
};

TEST(ShardedRunTest, NativeVsFabricPin) {
  // The demuxed fabric and the shard-native clone path are entirely
  // different data paths (threads + queues vs per-shard RNG streams) and
  // must agree bit-identically, shard by shard and in every snapshot byte:
  // the fabric's timing-dependent queue gauges stay out of the snapshots.
  FlashCrowdParams params;
  params.spike_start = 96;
  params.spike_end = 256;
  params.horizon = 320;
  params.seed = 21;
  ObsConfig config;
  config.snapshot_every = 64;
  const auto observed_run = [](ArrivalSource& source, Observer& observer,
                               std::ostringstream& bytes) {
    observer.snapshot_out = &bytes;
    ShardedRunOptions options;
    options.observer = &observer;
    return run_streaming_sharded(source, "dlru-edf", 16, 2, kInfiniteHorizon,
                                 options);
  };

  FlashCrowdSource native_source(params);
  Observer native_obs(config);
  std::ostringstream native_bytes;
  const ShardedRunRecord native =
      observed_run(native_source, native_obs, native_bytes);
  EXPECT_TRUE(native.native_sources);
  EXPECT_EQ(native.splitter_chunks_produced, 0);

  FabricFlashCrowd fabric_source(params);
  Observer fabric_obs(config);
  std::ostringstream fabric_bytes;
  const ShardedRunRecord fabric =
      observed_run(fabric_source, fabric_obs, fabric_bytes);
  EXPECT_FALSE(fabric.native_sources);
  EXPECT_GT(fabric.splitter_chunks_produced, 0);

  EXPECT_EQ(native.plan.shard_of_color, fabric.plan.shard_of_color);
  testing::expect_same_run(native.merged, fabric.merged, "merged");
  ASSERT_EQ(native.shards.size(), fabric.shards.size());
  for (std::size_t s = 0; s < native.shards.size(); ++s) {
    testing::expect_same_run(native.shards[s], fabric.shards[s],
                             "shard " + std::to_string(s));
  }
  EXPECT_EQ(native.merged.executed + native.merged.cost.drops,
            native.merged.arrived);
  EXPECT_EQ(native_obs.final_snapshot, fabric_obs.final_snapshot);
  ASSERT_GE(native_obs.snapshots.size(), 4u);
  EXPECT_EQ(native_bytes.str(), fabric_bytes.str());
}

/// An opaque random-batched stream (no shard-native clone, so sharded runs
/// take the fabric) whose color-0 jobs have zero length from round
/// `from` on, which the engine rejects with an InvariantError.
class ZeroLengthFrom final : public ArrivalSource {
 public:
  ZeroLengthFrom(const RandomBatchedParams& params, Round from)
      : inner_(params), from_(from) {}
  Cost delta() const override { return inner_.delta(); }
  ColorId num_colors() const override { return inner_.num_colors(); }
  Round delay_bound(ColorId c) const override { return inner_.delay_bound(c); }
  Cost drop_cost(ColorId c) const override { return inner_.drop_cost(c); }
  Round horizon() const override { return inner_.horizon(); }
  std::span<const Job> arrivals_in_round(Round k) override {
    const std::span<const Job> jobs = inner_.arrivals_in_round(k);
    if (k < from_) return jobs;
    jobs_.assign(jobs.begin(), jobs.end());
    for (Job& job : jobs_) {
      if (job.color == 0) job.length = 0;
    }
    return jobs_;
  }

 private:
  RandomBatchedSource inner_;
  Round from_;
  std::vector<Job> jobs_;
};

TEST(ShardedRunTest, DeadShardFailsTheRunAtOnce) {
  // Color 0's shard dies at round 20,000 of 2M.  Closing the fabric must
  // stop the producer and the healthy shard at once instead of leaving
  // them waiting on the dead shard's queue.
  RandomBatchedParams params;
  params.num_colors = 16;
  params.horizon = kInfiniteHorizon;
  params.seed = 3;
  ZeroLengthFrom source(params, 20'000);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW((void)run_streaming_sharded(source, "dlru-edf", 16, 2,
                                           /*max_rounds=*/2'000'000),
               InvariantError);
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(4));
}

TEST(ShardedRunTest, FabricStaysBoundedWhenShardsRunSerially) {
  // Started inside a pool worker, a fabric run's shards take turns on
  // that worker one chunk at a time: no queue holds more than
  // max_buffered_chunks, and the result is the concurrent run's.
  FlashCrowdParams params;  // horizon 4096: 256 chunks of 16 rounds
  params.seed = 5;
  ShardedRunOptions options;
  options.chunk_rounds = 16;
  options.max_buffered_chunks = 2;
  const auto run = [&params, &options] {
    FabricFlashCrowd source(params);
    return run_streaming_sharded(source, "dlru-edf", 16, 2, kInfiniteHorizon,
                                 options);
  };
  ShardedRunRecord serial;
  global_pool().parallel_for(1, [&](std::size_t) { serial = run(); });
  EXPECT_FALSE(serial.native_sources);
  ASSERT_EQ(serial.splitter_peak_chunks.size(), 2u);
  for (const std::int64_t peak : serial.splitter_peak_chunks) {
    EXPECT_LE(peak, 2);
  }
  const ShardedRunRecord outside = run();
  testing::expect_same_run(serial.merged, outside.merged, "merged");
  ASSERT_EQ(serial.shards.size(), outside.shards.size());
  for (std::size_t s = 0; s < serial.shards.size(); ++s) {
    testing::expect_same_run(serial.shards[s], outside.shards[s],
                             "shard " + std::to_string(s));
  }
}

TEST(ShardedRunTest, InfiniteSourceNeedsMaxRounds) {
  PoissonParams params;
  params.horizon = kInfiniteHorizon;
  params.seed = 5;
  PoissonSource source(params);
  EXPECT_THROW((void)run_streaming_sharded(source, "dlru-edf", 8, 2),
               InputError);
}

TEST(ShardedRunTest, InfiniteSourceRunsWithMaxRounds) {
  PoissonParams params;
  params.horizon = kInfiniteHorizon;
  params.seed = 5;
  PoissonSource source(params);
  const ShardedRunRecord record =
      run_streaming_sharded(source, "dlru-edf", 8, 2, /*max_rounds=*/512);
  EXPECT_GE(record.merged.rounds, 512);
  EXPECT_GT(record.merged.arrived, 0);
  EXPECT_EQ(record.merged.executed + record.merged.cost.drops,
            record.merged.arrived);
}

TEST(ShardedRunTest, SeqEdfRunsUnreplicated) {
  // seq-edf uses replication 1, so the plan splits n into units of 1.
  const auto source = make_source("random-batched", 2);
  const ShardedRunRecord record =
      run_streaming_sharded(*source, "seq-edf", 4, 3);
  EXPECT_EQ(record.plan.resource_unit, 1);
  EXPECT_EQ(record.plan.total_resources(), 4);
  EXPECT_EQ(record.merged.executed + record.merged.cost.drops,
            record.merged.arrived);
}

TEST(ShardedRunTest, ZeroArrivalShardsMergeCleanly) {
  // Two colors, but every job belongs to one of them: the other shard
  // streams zero arrivals for the whole run and must still terminate and
  // merge as an all-zero record.
  InstanceBuilder builder;
  builder.delta(2);
  const ColorId hot = builder.add_color(8);
  (void)builder.add_color(8);  // cold color: declared, never requested
  builder.add_jobs(hot, 0, 12);
  const Instance inst = builder.build();
  MaterializedSource source(inst);

  const ShardedRunRecord record =
      run_streaming_sharded(source, "dlru-edf", 8, 2);
  ASSERT_EQ(record.shards.size(), 2u);
  int empty_shards = 0;
  for (const StreamRunRecord& shard : record.shards) {
    if (shard.arrived > 0) continue;
    ++empty_shards;
    EXPECT_EQ(shard.executed, 0);
    EXPECT_EQ(shard.cost, CostBreakdown{});
    EXPECT_EQ(shard.peak_pending, 0);
  }
  EXPECT_EQ(empty_shards, 1);
  EXPECT_EQ(record.merged.arrived, 12);
  EXPECT_EQ(record.merged.executed + record.merged.cost.drops, 12);
}

TEST(ShardedRunTest, SnapshotMergeIsAdditiveAndOrderIndependent) {
  // Property: each shard's relabeled sub-workload, run solo at K=1, yields
  // a final snapshot, and merging those K snapshots in ANY permutation
  // yields the sharded run's merged snapshot — so the merge is exactly
  // additive (the partition makes shards fully independent), with no order
  // sensitivity.
  constexpr int kShards = 3;
  Observer merged;
  ShardedRunOptions options;
  options.observer = &merged;

  const auto source = make_source("poisson", 21);
  const Round arrival_end = source->horizon();
  const ShardedRunRecord record = run_streaming_sharded(
      *source, "dlru-edf", 24, kShards, kInfiniteHorizon, options);

  const auto resplit_source = make_source("poisson", 21);
  ShardedSourceOptions split_options;
  split_options.backpressure = false;
  ShardedSource resplit(*resplit_source, record.plan, arrival_end,
                        split_options);
  std::vector<Snapshot> solo_finals;
  for (int s = 0; s < kShards; ++s) {
    Observer solo;
    (void)run_streaming(
        resplit.stream(s), "dlru-edf",
        record.plan.shard_resources[static_cast<std::size_t>(s)],
        kInfiniteHorizon, nullptr, false, &solo);
    solo_finals.push_back(solo.final_snapshot);
  }

  std::vector<std::size_t> order = {0, 1, 2};
  do {
    Snapshot folded;
    for (const std::size_t s : order) merge_into(folded, solo_finals[s]);
    EXPECT_EQ(folded, merged.final_snapshot)
        << "permutation " << order[0] << order[1] << order[2];
  } while (std::next_permutation(order.begin(), order.end()));
}

TEST(ShardedRunTest, MergedObserverMatchesMergedRecord) {
  Observer merged;
  ShardedRunOptions options;
  options.observer = &merged;
  const auto source = make_source("datacenter", 5);
  const ShardedRunRecord record = run_streaming_sharded(
      *source, "dlru-edf", 16, 4, kInfiniteHorizon, options);
  EXPECT_EQ(merged.final_snapshot.arrived, record.merged.arrived);
  EXPECT_EQ(merged.final_snapshot.executed, record.merged.executed);
  EXPECT_EQ(merged.final_snapshot.drop_weight, record.merged.cost.drops);
  EXPECT_EQ(merged.final_snapshot.reconfig_events,
            record.merged.cost.reconfig_events);
  EXPECT_EQ(merged.final_snapshot.round, record.merged.rounds);
  EXPECT_EQ(merged.final_snapshot.pending, 0);
}

// --- non-uniform cost models across shards ---------------------------------

/// A contended instance with non-uniform weights, lengths > 1, per-color
/// cold prices, and warm discounts — so shard engines charge through the
/// restricted matrix, not the scalar fast path.
Instance make_nonuniform_instance() {
  InstanceBuilder builder;
  builder.delta(4);
  std::vector<ColorId> colors;
  for (int c = 0; c < 9; ++c) {
    colors.push_back(
        builder.add_color(/*d=*/4 << (c % 3), /*drop_cost=*/1 + (c % 4),
                          /*length=*/1 + (c % 3)));
  }
  for (const ColorId c : colors) {
    builder.reconfig_cost(c, 2 + static_cast<Cost>(c % 5));
  }
  builder.transition_cost(colors[0], colors[1], 1);
  builder.transition_cost(colors[1], colors[0], 0);
  builder.transition_cost(colors[3], colors[4], 2);
  builder.transition_cost(colors[7], colors[8], 1);
  for (Round t = 0; t < 256; ++t) {
    for (const ColorId c : colors) {
      if (t % (2 + static_cast<Round>(c % 4)) == 0) builder.add_jobs(c, t, 2);
    }
  }
  return builder.build();
}

TEST(ShardedNonUniform, SingleShardBitIdenticalWithLengthsAndMatrixDelta) {
  const Instance instance = make_nonuniform_instance();
  ASSERT_EQ(instance.cost_model().tier(), CostModel::Tier::kMatrix);
  ASSERT_FALSE(instance.unit_lengths());
  for (const std::string algorithm :
       {"dlru", "edf", "dlru-edf", "adaptive", "seq-edf", "ds-seq-edf"}) {
    SCOPED_TRACE(algorithm);
    MaterializedSource plain_source(instance);
    const StreamRunRecord plain = run_streaming(plain_source, algorithm, 8);

    MaterializedSource sharded_source(instance);
    const ShardedRunRecord sharded =
        run_streaming_sharded(sharded_source, algorithm, 8, 1);
    testing::expect_same_run(sharded.merged, plain, algorithm);
    EXPECT_GT(plain.work_units, plain.executed)
        << "lengths > 1 must leave partial units behind";
  }
}

TEST(ShardedNonUniform, MergedCostsExactlyAdditiveUnderMatrixDelta) {
  const Instance instance = make_nonuniform_instance();
  MaterializedSource source(instance);
  const ShardedRunRecord record =
      run_streaming_sharded(source, "dlru-edf", 12, 3);
  ASSERT_EQ(record.shards.size(), 3u);

  CostBreakdown cost_sum;
  std::int64_t executed = 0, work_units = 0, arrived = 0;
  for (const StreamRunRecord& shard : record.shards) {
    cost_sum.reconfig_events += shard.cost.reconfig_events;
    cost_sum.reconfig_cost += shard.cost.reconfig_cost;
    cost_sum.drops += shard.cost.drops;
    cost_sum.churn_reconfigs += shard.cost.churn_reconfigs;
    executed += shard.executed;
    work_units += shard.work_units;
    arrived += shard.arrived;
  }
  EXPECT_EQ(record.merged.cost, cost_sum);
  EXPECT_EQ(record.merged.executed, executed);
  EXPECT_EQ(record.merged.work_units, work_units);
  EXPECT_EQ(record.merged.arrived, arrived);
  // Warm discounts make per-event prices vary: the merged reconfig cost
  // cannot be events * Delta here.
  EXPECT_NE(record.merged.cost.reconfig_cost,
            record.merged.cost.reconfig_events * instance.delta());

  // Determinism across repetitions.
  MaterializedSource source2(instance);
  const ShardedRunRecord again =
      run_streaming_sharded(source2, "dlru-edf", 12, 3);
  EXPECT_EQ(again.merged.cost, record.merged.cost);
  EXPECT_EQ(again.merged.work_units, record.merged.work_units);
}

TEST(ShardedRunTest, RejectsCheckpointsAndStopOverTheFabric) {
  // With K > 1 every shard's source position must be checkpointable; the
  // demux fabric's run-ahead is not, so any knob that checkpoints is
  // rejected up front.  One engine checkpoints the same source fine.
  const Instance instance = materialize(*make_source("poisson", 1));
  const std::string dir = ::testing::TempDir() + "/fabric_ckpt";
  volatile std::sig_atomic_t flag = 0;
  for (int knob = 0; knob < 3; ++knob) {
    MaterializedSource source(instance);
    ShardedRunOptions options;
    options.checkpoint_dir = dir;
    if (knob == 0) options.checkpoint_every = 64;
    if (knob == 1) options.resume = true;
    if (knob == 2) options.stop_flag = &flag;
    EXPECT_THROW((void)run_streaming_sharded(source, "dlru-edf", 8, 2,
                                             kInfiniteHorizon, options),
                 InputError)
        << "knob " << knob;
  }
  MaterializedSource source(instance);
  ShardedRunOptions options;
  options.checkpoint_dir = dir;
  options.checkpoint_every = 64;
  const ShardedRunRecord one = run_streaming_sharded(
      source, "dlru-edf", 8, 1, kInfiniteHorizon, options);
  EXPECT_GT(one.checkpoints_written, 0);
  std::filesystem::remove_all(dir);
}

TEST(ShardedRunTest, RejectsUnknownAlgorithmAndBadShardCounts) {
  const auto source = make_source("poisson", 1);
  EXPECT_THROW(
      (void)run_streaming_sharded(*source, "no-such-algorithm", 8, 2),
      InputError);
  const auto source2 = make_source("poisson", 1);
  EXPECT_THROW((void)run_streaming_sharded(*source2, "dlru-edf", 8, 0),
               InputError);
  const auto source3 = make_source("poisson", 1);
  // 8 resources at dLRU-EDF's granularity of 4 hold 2 blocks; 5 shards
  // cannot fit.
  EXPECT_THROW((void)run_streaming_sharded(*source3, "dlru-edf", 8, 5),
               InputError);
}

}  // namespace
}  // namespace rrs
