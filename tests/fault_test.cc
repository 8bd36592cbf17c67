// Fault-injection coverage: plan generators, cache churn semantics, the
// engine's fault phase, and the sharded runner under capacity churn.
//
// The two load-bearing guarantees are pinned here.  First, an absent or
// empty FaultPlan leaves every run bit-identical to fault-free execution
// (matrix over algorithms x families x seeds, streaming and sharded).
// Second, the recorded Schedule carries every churn event, charged repairs
// marked, so the validator's replay blanks each failed location and prices
// every reconfiguration and charged repair as the engine did: the
// validated cost equals the engine's exactly on every cost tier, with free
// or charged repairs, drained or not.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "algs/dlru_edf.h"
#include "core/engine.h"
#include "core/fault_plan.h"
#include "core/shard_plan.h"
#include "core/validator.h"
#include "sim/runner.h"
#include "test_util.h"
#include "util/rng.h"
#include "workload/datacenter.h"
#include "workload/poisson.h"
#include "workload/random_batched.h"

namespace rrs {
namespace {

const char* const kAlgorithms[] = {"dlru", "edf", "dlru-edf", "adaptive"};

const char* const kFamilies[] = {"random-batched", "poisson", "datacenter"};

/// Fresh streaming source for (family, seed); mirrors sharded_test.
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
  if (family == "datacenter") {
    DatacenterParams params;
    params.horizon = 1024;
    params.seed = seed;
    return std::make_unique<DatacenterSource>(params);
  }
  ADD_FAILURE() << "unknown family " << family;
  return nullptr;
}

// --- generators ------------------------------------------------------------

TEST(FaultPlanTest, MtbfPlanIsDeterministicSortedAndValid) {
  MtbfParams params;
  params.num_resources = 8;
  params.horizon = 2048;
  params.mean_up = 100;
  params.mean_down = 20;
  params.seed = 7;
  const FaultPlan plan = make_mtbf_plan(params);
  EXPECT_EQ(plan, make_mtbf_plan(params));
  ASSERT_FALSE(plan.empty());
  validate_fault_plan(plan, params.num_resources);
  EXPECT_TRUE(std::is_sorted(plan.events.begin(), plan.events.end(),
                             [](const FaultEvent& a, const FaultEvent& b) {
                               return a.round < b.round;
                             }));
  for (const FaultEvent& ev : plan.events) {
    EXPECT_GE(ev.round, 0);
    EXPECT_LT(ev.round, params.horizon);
    EXPECT_GE(ev.resource, 0);
    EXPECT_LT(ev.resource, params.num_resources);
  }

  MtbfParams other = params;
  other.seed = 8;
  EXPECT_NE(plan, make_mtbf_plan(other));
}

TEST(FaultPlanTest, GeneratorsRejectBadParameters) {
  MtbfParams mtbf;
  mtbf.num_resources = 0;
  EXPECT_THROW((void)make_mtbf_plan(mtbf), InputError);
  mtbf.num_resources = 4;
  mtbf.mean_up = 0;
  EXPECT_THROW((void)make_mtbf_plan(mtbf), InputError);
}

TEST(FaultPlanTest, ValidateRejectsMalformedPlans) {
  const struct {
    const char* label;
    FaultPlan plan;
  } kBad[] = {
      {"negative round", {{{-1, 0, true}}}},
      {"unsorted rounds", {{{5, 0, true}, {3, 1, true}}}},
      {"resource out of range", {{{0, 8, true}}}},
      {"resource -1, once the hottest-resource sentinel", {{{0, -1, true}}}},
      {"double failure", {{{0, 0, true}, {1, 0, true}}}},
      {"repair while up", {{{0, 0, false}}}},
  };
  for (const auto& [label, plan] : kBad) {
    EXPECT_THROW(validate_fault_plan(plan, 8), InputError) << label;
  }

  // Sanity: a well-formed plan passes.
  validate_fault_plan({{{0, 0, true}, {4, 0, false}, {4, 1, true}}}, 8);
}

TEST(FaultPlanTest, SplitMapsExplicitEventsToOwningShards) {
  FaultPlan plan;
  plan.events = {{0, 0, true}, {1, 3, true}, {2, 5, true}, {3, 7, true}};
  const int shard_resources[] = {4, 4};
  const std::vector<FaultPlan> shards = split_fault_plan(plan, shard_resources);
  ASSERT_EQ(shards.size(), 2u);
  const FaultPlan want0{{{0, 0, true}, {1, 3, true}}};
  const FaultPlan want1{{{2, 1, true}, {3, 3, true}}};
  EXPECT_EQ(shards[0], want0);
  EXPECT_EQ(shards[1], want1);
}

// --- CacheAssignment churn -------------------------------------------------

TEST(CacheChurn, FailingAFreeLocationShrinksCapacity) {
  CacheAssignment cache(4, 2);
  EXPECT_EQ(cache.max_distinct(), 2);
  EXPECT_EQ(cache.fail_location(3), kBlack);
  EXPECT_TRUE(cache.location_down(3));
  EXPECT_EQ(cache.num_down(), 1);
  EXPECT_EQ(cache.max_distinct(), 1);  // (4 - 1) / 2
  EXPECT_EQ(cache.color_at(3), kBlack);
}

TEST(CacheChurn, FailingAClaimedLocationEvictsItsColor) {
  CacheAssignment cache(4, 2);
  cache.begin_phase();
  cache.insert(0);
  EXPECT_EQ(cache.finish_phase().size(), 2u);  // both replicas recolored

  // Find one of color 0's locations and fail it.
  int loc = -1;
  for (int r = 0; r < 4; ++r) {
    if (cache.color_at(r) == 0) loc = r;
  }
  ASSERT_GE(loc, 0);
  EXPECT_EQ(cache.fail_location(loc), 0);
  EXPECT_FALSE(cache.contains(0));
  EXPECT_EQ(cache.num_cached(), 0);

  // The surviving replica still physically holds color 0, so re-inserting
  // it reclaims that location for free: exactly zero or one recolorings
  // depending on which free location fills the second replica slot -- but
  // capacity is now 1, so insert takes 2 locations out of the 3 still up.
  cache.begin_phase();
  cache.insert(0);
  EXPECT_LE(cache.finish_phase().size(), 1u);
  EXPECT_TRUE(cache.contains(0));
}

TEST(CacheChurn, RepairedLocationComesBackBlank) {
  CacheAssignment cache(4, 2);
  cache.begin_phase();
  cache.insert(0);
  (void)cache.finish_phase();
  int loc = -1;
  for (int r = 0; r < 4; ++r) {
    if (cache.color_at(r) == 0) loc = r;
  }
  ASSERT_GE(loc, 0);
  EXPECT_EQ(cache.fail_location(loc), 0);
  cache.repair_location(loc);
  EXPECT_FALSE(cache.location_down(loc));
  EXPECT_EQ(cache.num_down(), 0);
  EXPECT_EQ(cache.max_distinct(), 2);
  // Repair re-images the location: it is physically black, so unlike the
  // surviving replica it cannot be reclaimed for free.
  EXPECT_EQ(cache.color_at(loc), kBlack);
  cache.begin_phase();
  cache.insert(0);
  const auto events = cache.finish_phase();
  EXPECT_EQ(events.size(), 1u);  // one replica reclaimed free, one recolored
  EXPECT_TRUE(cache.contains(0));
}

TEST(CacheChurn, SurvivorsKeepMembershipAcrossChurn) {
  CacheAssignment cache(8, 2);
  cache.begin_phase();
  cache.insert(0);
  cache.insert(1);
  cache.insert(2);
  (void)cache.finish_phase();

  // Failing a free location leaves all cached colors intact but makes the
  // cache full at the reduced capacity.
  int free_loc = -1;
  for (int r = 0; r < 8; ++r) {
    if (cache.color_at(r) == kBlack) free_loc = r;
  }
  ASSERT_GE(free_loc, 0);
  EXPECT_EQ(cache.fail_location(free_loc), kBlack);
  EXPECT_TRUE(cache.contains(0));
  EXPECT_TRUE(cache.contains(1));
  EXPECT_TRUE(cache.contains(2));
  EXPECT_EQ(cache.max_distinct(), 3);
  EXPECT_TRUE(cache.full());

  // Failing one of color 2's locations evicts only color 2.
  int loc2 = -1;
  for (int r = 0; r < 8; ++r) {
    if (!cache.location_down(r) && cache.color_at(r) == 2) loc2 = r;
  }
  ASSERT_GE(loc2, 0);
  EXPECT_EQ(cache.fail_location(loc2), 2);
  EXPECT_TRUE(cache.contains(0));
  EXPECT_TRUE(cache.contains(1));
  EXPECT_FALSE(cache.contains(2));
}

TEST(CacheChurn, ChurnCallsOutsidePhasesOnly) {
  CacheAssignment cache(4, 2);
  ASSERT_EQ(cache.fail_location(0), kBlack);
  EXPECT_THROW((void)cache.fail_location(0), InvariantError);  // already down
  EXPECT_THROW(cache.repair_location(1), InvariantError);      // still up
  cache.begin_phase();
  EXPECT_THROW((void)cache.fail_location(1), InvariantError);  // mid-phase
  EXPECT_THROW(cache.repair_location(0), InvariantError);      // mid-phase
  (void)cache.finish_phase();
  cache.repair_location(0);
  EXPECT_EQ(cache.num_down(), 0);
}

// --- engine: empty plan is the identity ------------------------------------

using Cell = std::tuple<std::string, std::string, std::uint64_t>;

class EmptyPlanBitIdentity : public ::testing::TestWithParam<Cell> {};

TEST_P(EmptyPlanBitIdentity, StreamingAndShardedMatchFaultFreeRuns) {
  const auto& [algorithm, family, seed] = GetParam();
  const FaultPlan empty;

  const auto plain_source = make_source(family, seed);
  const StreamRunRecord plain = run_streaming(*plain_source, algorithm, 8);

  // An empty plan -- even with charged repairs -- must not perturb a single
  // bit of the run.
  const auto faulty_source = make_source(family, seed);
  const StreamRunRecord with_empty =
      run_streaming(*faulty_source, algorithm, 8, kInfiniteHorizon, &empty,
                    /*charge_repair=*/true);
  const std::string label = family + " seed " + std::to_string(seed);
  testing::expect_same_run(plain, with_empty, label);
  EXPECT_EQ(with_empty.degraded, DegradedStats{});

  const auto plain_sharded = make_source(family, seed);
  const ShardedRunRecord sharded =
      run_streaming_sharded(*plain_sharded, algorithm, 8, 2);

  const auto faulty_sharded = make_source(family, seed);
  ShardedRunOptions options;
  options.fault_plan = &empty;
  options.charge_repair = true;
  const ShardedRunRecord sharded_empty = run_streaming_sharded(
      *faulty_sharded, algorithm, 8, 2, kInfiniteHorizon, options);
  testing::expect_same_run(sharded.merged, sharded_empty.merged, label);
  ASSERT_EQ(sharded.shards.size(), sharded_empty.shards.size());
  for (std::size_t s = 0; s < sharded.shards.size(); ++s) {
    testing::expect_same_run(sharded.shards[s], sharded_empty.shards[s],
                             label + " shard " + std::to_string(s));
  }
}

std::vector<Cell> all_cells() {
  std::vector<Cell> cells;
  for (const char* const algorithm : kAlgorithms) {
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

INSTANTIATE_TEST_SUITE_P(Matrix, EmptyPlanBitIdentity,
                         ::testing::ValuesIn(all_cells()), cell_name);

// --- engine: runs under churn ----------------------------------------------

FaultPlan aggressive_mtbf(int num_resources, Round horizon) {
  MtbfParams params;
  params.num_resources = num_resources;
  params.horizon = horizon;
  params.mean_up = 20;
  params.mean_down = 5;
  params.seed = 2;
  return make_mtbf_plan(params);
}

TEST(FaultRunTest, FaultRunsAreDeterministic) {
  const FaultPlan plan = aggressive_mtbf(8, 256);
  std::vector<StreamRunRecord> runs;
  for (int repeat = 0; repeat < 2; ++repeat) {
    const auto source = make_source("random-batched", 5);
    runs.push_back(
        run_streaming(*source, "dlru-edf", 8, kInfiniteHorizon, &plan));
  }
  testing::expect_same_run(runs[0], runs[1], "repeat");
  EXPECT_GT(runs[0].degraded.fault_events, 0);
  EXPECT_GT(runs[0].degraded.degraded_rounds, 0);
}

TEST(FaultRunTest, DegradedCountersAreConsistent) {
  const FaultPlan plan = aggressive_mtbf(8, 256);
  const auto source = make_source("random-batched", 5);
  const StreamRunRecord r =
      run_streaming(*source, "dlru-edf", 8, kInfiniteHorizon, &plan);
  EXPECT_GE(r.degraded.fault_events, r.degraded.repair_events);
  EXPECT_LE(r.degraded.churn_evictions, r.degraded.fault_events);
  EXPECT_LE(r.degraded.degraded_rounds, r.rounds);
  EXPECT_LE(r.degraded.drops_while_degraded, r.cost.drops);
  EXPECT_EQ(r.cost.churn_reconfigs, 0);  // free repairs by default
  // random-batched drop costs are unit, so drops is a job count.
  EXPECT_EQ(r.executed + r.cost.drops, r.arrived);
  // The policy heard about every churn notification batch.
  std::int64_t capacity_changes = -1;
  for (const auto& [key, value] : r.stats) {
    if (key == "capacity_changes") capacity_changes = value;
  }
  EXPECT_GT(capacity_changes, 0);
}

TEST(FaultRunTest, ValidatorAcceptsFreeChurnScheduleExactly) {
  RandomBatchedParams params;
  params.horizon = 128;
  params.seed = 4;
  const Instance inst = make_random_batched(params);
  const FaultPlan plan = aggressive_mtbf(8, 128);

  DLruEdfPolicy policy;
  EngineOptions options;
  options.num_resources = 8;
  options.replication = 2;
  options.fault_plan = &plan;
  const EngineResult r = run_policy(inst, policy, options);
  ASSERT_GT(r.degraded.fault_events, 0);

  // The schedule records the churn; with free repairs it costs nothing
  // itself, but the replay must blank each failed location.
  const CostBreakdown validated = validate_or_throw(inst, r.schedule);
  EXPECT_EQ(validated, r.cost);
}

TEST(FaultRunTest, ChargedRepairAddsExactlyTheChurnReconfigs) {
  RandomBatchedParams params;
  params.horizon = 128;
  params.seed = 4;
  const Instance inst = make_random_batched(params);
  const FaultPlan plan = aggressive_mtbf(8, 128);

  EngineOptions options;
  options.num_resources = 8;
  options.replication = 2;
  options.fault_plan = &plan;
  DLruEdfPolicy free_policy;
  const EngineResult free_run = run_policy(inst, free_policy, options);

  options.charge_repair = true;
  DLruEdfPolicy charged_policy;
  const EngineResult charged = run_policy(inst, charged_policy, options);

  // Charging repairs changes accounting, never behavior.
  EXPECT_EQ(charged.executed, free_run.executed);
  EXPECT_EQ(charged.cost.drops, free_run.cost.drops);
  EXPECT_EQ(charged.degraded, free_run.degraded);
  EXPECT_EQ(charged.schedule.reconfigs, free_run.schedule.reconfigs);

  ASSERT_GT(charged.cost.churn_reconfigs, 0);
  EXPECT_EQ(charged.cost.churn_reconfigs, charged.degraded.repair_events);
  EXPECT_EQ(charged.cost.reconfig_events,
            free_run.cost.reconfig_events + charged.cost.churn_reconfigs);
  const CostBreakdown validated = validate_or_throw(inst, charged.schedule);
  EXPECT_EQ(validated, charged.cost);
}

TEST(FaultRunTest, DrainWithChargedRepairMatchesValidatorAcrossSeeds) {
  // drain_pending, a non-empty FaultPlan, and charge_repair were only
  // exercised separately before; combined, the drain keeps executing under
  // churn while repairs accrue charged reconfigs.  Pin engine cost to the
  // validator across seeds: the replay prices the recorded charged repairs
  // too, so it must reproduce the engine's cost exactly.
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    RandomBatchedParams params;
    params.horizon = 128;
    params.seed = seed;
    const Instance inst = make_random_batched(params);
    const FaultPlan plan = aggressive_mtbf(8, 128);

    MaterializedSource source(inst);
    DLruEdfPolicy policy;
    EngineOptions options;
    options.num_resources = 8;
    options.replication = 2;
    options.fault_plan = &plan;
    options.charge_repair = true;
    options.drain_pending = true;
    const EngineResult r = run_policy(source, policy, options);
    ASSERT_GT(r.degraded.fault_events, 0) << "seed " << seed;
    ASSERT_GT(r.cost.churn_reconfigs, 0) << "seed " << seed;

    const CostBreakdown validated = validate_or_throw(inst, r.schedule);
    EXPECT_EQ(validated, r.cost) << "seed " << seed;
    EXPECT_EQ(validated.drops, r.cost.drops) << "seed " << seed;
  }
}

TEST(FaultRunTest, MatrixTierValidationIsExactUnderChurn) {
  // Warm transitions undercut the cold price, so pricing a recoloring of a
  // repaired location from the color it held before failing would be too
  // cheap: the replay must see the failure blank it, as the engine does.
  constexpr ColorId kColors = 12;
  constexpr Round kHorizon = 256;
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    InstanceBuilder builder;
    builder.delta(8);
    for (ColorId c = 0; c < kColors; ++c) {
      builder.add_color(Round{4} << (c % 3));
    }
    for (ColorId f = 0; f < kColors; ++f) {
      for (ColorId t = 0; t < kColors; ++t) {
        if (f != t) builder.transition_cost(f, t, 1 + (f + t) % 3);
      }
    }
    Rng rng(seed);
    for (ColorId c = 0; c < kColors; ++c) {
      const Round delay = Round{4} << (c % 3);
      for (Round k = 0; k < kHorizon; k += delay) {
        const std::int64_t count = rng.uniform(0, 3);
        if (count > 0) builder.add_jobs(c, k, count);
      }
    }
    const Instance inst = builder.build();
    ASSERT_EQ(inst.cost_model().tier(), CostModel::Tier::kMatrix);
    MtbfParams mtbf;
    mtbf.num_resources = 8;
    mtbf.horizon = kHorizon;
    mtbf.mean_up = 20;
    mtbf.mean_down = 5;
    mtbf.seed = seed;
    const FaultPlan plan = make_mtbf_plan(mtbf);

    for (const bool charge_repair : {false, true}) {
      for (const bool drain : {false, true}) {
        MaterializedSource source(inst);
        DLruEdfPolicy policy;
        EngineOptions options;
        options.num_resources = 8;
        options.replication = 2;
        options.fault_plan = &plan;
        options.charge_repair = charge_repair;
        options.drain_pending = drain;
        const EngineResult r = run_policy(source, policy, options);
        ASSERT_GT(r.degraded.repair_events, 0) << "seed " << seed;
        EXPECT_EQ(validate(inst, r.schedule).cost, r.cost)
            << "seed " << seed << " charge_repair " << charge_repair
            << " drain " << drain;
      }
    }
  }
}

TEST(FaultRunTest, AllResourcesDownDropsEverythingAndTerminates) {
  FaultPlan plan;
  for (int r = 0; r < 4; ++r) plan.events.push_back({0, r, true});
  const auto source = make_source("random-batched", 3);
  const StreamRunRecord r =
      run_streaming(*source, "dlru-edf", 4, kInfiniteHorizon, &plan);
  EXPECT_EQ(r.executed, 0);
  EXPECT_EQ(r.cost.drops, r.arrived);
  EXPECT_EQ(r.cost.reconfig_events, 0);
  EXPECT_EQ(r.degraded.fault_events, 4);
  EXPECT_EQ(r.degraded.churn_evictions, 0);  // nothing was cached yet
  EXPECT_EQ(r.degraded.degraded_rounds, r.rounds);
  EXPECT_EQ(r.degraded.drops_while_degraded, r.cost.drops);
}

/// Policy that pins colors 0 and 1 and records every capacity notification.
class ProbePolicy : public Policy {
 public:
  struct Call {
    Round round;
    int up;
    int total;
    std::vector<ColorId> evicted;
  };

  [[nodiscard]] std::string_view name() const override { return "probe"; }

  void on_round(RoundContext& ctx) override {
    if (ctx.final_sweep()) return;
    for (const ColorId c : {0, 1}) {
      if (!ctx.cache().contains(c) && !ctx.cache().full()) {
        ctx.cache().insert(c);
      }
    }
  }

  void on_capacity_change(Round round, int up, int total,
                          std::span<const ColorId> evicted) override {
    calls.push_back({round, up, total, {evicted.begin(), evicted.end()}});
  }

  std::vector<Call> calls;
};

TEST(FaultRunTest, HottestFailureEvictsTheBusiestColor) {
  // The probe caches color 0 on locations 0-1 and color 1, the one with
  // the larger backlog, on locations 2-3.  Failing location 2 at round 2
  // must evict color 1 and surface it in the capacity notification.
  InstanceBuilder builder;
  builder.delta(1);
  const ColorId a = builder.add_color(8);
  const ColorId b = builder.add_color(8);
  builder.add_jobs(a, 0, 1).add_jobs(b, 0, 6);
  const Instance inst = builder.build();

  FaultPlan plan;
  plan.events = {{2, 2, true}, {4, 2, false}};

  ProbePolicy probe;
  EngineOptions options;
  options.num_resources = 4;
  options.replication = 2;
  options.fault_plan = &plan;
  const EngineResult r = run_policy(inst, probe, options);

  ASSERT_EQ(probe.calls.size(), 2u);
  EXPECT_EQ(probe.calls[0].round, 2);
  EXPECT_EQ(probe.calls[0].up, 3);
  EXPECT_EQ(probe.calls[0].total, 4);
  EXPECT_EQ(probe.calls[0].evicted, std::vector<ColorId>{b});
  EXPECT_EQ(probe.calls[1].round, 4);
  EXPECT_EQ(probe.calls[1].up, 4);
  EXPECT_TRUE(probe.calls[1].evicted.empty());

  EXPECT_EQ(r.degraded.fault_events, 1);
  EXPECT_EQ(r.degraded.repair_events, 1);
  EXPECT_EQ(r.degraded.churn_evictions, 1);
  EXPECT_EQ(r.degraded.degraded_rounds, 2);  // rounds 2 and 3
  // b's remaining jobs (deadline 8) still fit after the round-4 repair.
  EXPECT_EQ(r.executed, 7);
  EXPECT_EQ(r.cost.drops, 0);
}

// --- sharded runs under churn ----------------------------------------------

TEST(ShardedFaultTest, CostsRemainExactlyAdditiveUnderChurn) {
  const FaultPlan plan = aggressive_mtbf(16, 1024);
  ShardedRunOptions options;
  options.fault_plan = &plan;
  options.charge_repair = true;

  const auto source = make_source("datacenter", 5);
  const ShardedRunRecord record = run_streaming_sharded(
      *source, "dlru-edf", 16, 4, kInfiniteHorizon, options);
  ASSERT_EQ(record.shards.size(), 4u);
  EXPECT_GT(record.merged.degraded.fault_events, 0);

  CostBreakdown cost_sum;
  DegradedStats degraded_sum;
  std::int64_t executed = 0, arrived = 0;
  for (const StreamRunRecord& shard : record.shards) {
    cost_sum.reconfig_events += shard.cost.reconfig_events;
    cost_sum.reconfig_cost += shard.cost.reconfig_cost;
    cost_sum.drops += shard.cost.drops;
    cost_sum.churn_reconfigs += shard.cost.churn_reconfigs;
    degraded_sum.fault_events += shard.degraded.fault_events;
    degraded_sum.repair_events += shard.degraded.repair_events;
    degraded_sum.churn_evictions += shard.degraded.churn_evictions;
    degraded_sum.degraded_rounds += shard.degraded.degraded_rounds;
    degraded_sum.drops_while_degraded += shard.degraded.drops_while_degraded;
    executed += shard.executed;
    arrived += shard.arrived;
  }
  EXPECT_EQ(record.merged.cost, cost_sum);
  EXPECT_EQ(record.merged.degraded, degraded_sum);
  EXPECT_EQ(record.merged.executed, executed);
  EXPECT_EQ(record.merged.arrived, arrived);

  // Determinism: the same churned run reproduces bit-for-bit.
  const auto source2 = make_source("datacenter", 5);
  const ShardedRunRecord again = run_streaming_sharded(
      *source2, "dlru-edf", 16, 4, kInfiniteHorizon, options);
  testing::expect_same_run(record.merged, again.merged, "repeat");
}

TEST(ShardedFaultTest, SplitPlanUnderMatrixDeltaStaysExactAndAdditive) {
  // Non-uniform model: weights, lengths > 1, cold prices, warm discounts.
  // Churn repairs must charge through the model's cold column, and the
  // split plan's per-shard charges must sum exactly to the merged record.
  InstanceBuilder builder;
  builder.delta(3);
  std::vector<ColorId> colors;
  for (int c = 0; c < 8; ++c) {
    colors.push_back(
        builder.add_color(/*d=*/4 << (c % 2), /*drop_cost=*/1 + (c % 3),
                          /*length=*/1 + (c % 2)));
  }
  for (const ColorId c : colors) {
    builder.reconfig_cost(c, 2 + static_cast<Cost>(c % 4));
  }
  builder.transition_cost(colors[0], colors[1], 1);
  builder.transition_cost(colors[4], colors[5], 0);
  for (Round t = 0; t < 256; ++t) {
    for (const ColorId c : colors) {
      if (t % (2 + static_cast<Round>(c % 3)) == 0) builder.add_jobs(c, t, 2);
    }
  }
  const Instance instance = builder.build();
  ASSERT_EQ(instance.cost_model().tier(), CostModel::Tier::kMatrix);

  FaultPlan plan;
  for (int r = 0; r < 16; r += 3) {
    plan.events.push_back({16 + 4 * r, r, true});
    plan.events.push_back({48 + 4 * r, r, false});
  }
  std::sort(plan.events.begin(), plan.events.end(),
            [](const FaultEvent& a, const FaultEvent& b) {
              return a.round < b.round;
            });
  validate_fault_plan(plan, 16);

  ShardedRunOptions options;
  options.fault_plan = &plan;
  options.charge_repair = true;

  // K = 1 is bit-identical to the serial churned run.
  MaterializedSource serial_source(instance);
  const StreamRunRecord serial = run_streaming(
      serial_source, "dlru-edf", 16, kInfiniteHorizon, &plan, true);
  MaterializedSource single_source(instance);
  const ShardedRunRecord single =
      run_streaming_sharded(single_source, "dlru-edf", 16, 1,
                            kInfiniteHorizon, options);
  EXPECT_EQ(single.merged.cost, serial.cost);
  EXPECT_EQ(single.merged.executed, serial.executed);
  EXPECT_EQ(single.merged.work_units, serial.work_units);
  EXPECT_EQ(single.merged.degraded, serial.degraded);
  EXPECT_GT(serial.cost.churn_reconfigs, 0);

  // K = 4: the split plan's shard charges sum exactly to the merge.
  MaterializedSource sharded_source(instance);
  const ShardedRunRecord record = run_streaming_sharded(
      sharded_source, "dlru-edf", 16, 4, kInfiniteHorizon, options);
  ASSERT_EQ(record.shards.size(), 4u);
  CostBreakdown cost_sum;
  DegradedStats degraded_sum;
  std::int64_t work_units = 0;
  for (const StreamRunRecord& shard : record.shards) {
    cost_sum.reconfig_events += shard.cost.reconfig_events;
    cost_sum.reconfig_cost += shard.cost.reconfig_cost;
    cost_sum.drops += shard.cost.drops;
    cost_sum.churn_reconfigs += shard.cost.churn_reconfigs;
    degraded_sum.fault_events += shard.degraded.fault_events;
    degraded_sum.repair_events += shard.degraded.repair_events;
    degraded_sum.churn_evictions += shard.degraded.churn_evictions;
    degraded_sum.degraded_rounds += shard.degraded.degraded_rounds;
    degraded_sum.drops_while_degraded += shard.degraded.drops_while_degraded;
    work_units += shard.work_units;
  }
  EXPECT_EQ(record.merged.cost, cost_sum);
  EXPECT_EQ(record.merged.degraded, degraded_sum);
  EXPECT_EQ(record.merged.work_units, work_units);
  // Every explicit event lands on exactly one shard.
  EXPECT_EQ(record.merged.degraded.fault_events,
            serial.degraded.fault_events);
  EXPECT_EQ(record.merged.degraded.repair_events,
            serial.degraded.repair_events);
}

TEST(ShardedFaultTest, FullShardFailureCompletesWithPendingAsDrops) {
  // Learn the deterministic shard layout from a fault-free probe run, then
  // kill shard 0's whole resource block at round 0.
  const auto probe = make_source("random-batched", 7);
  const ShardedRunRecord layout =
      run_streaming_sharded(*probe, "dlru-edf", 16, 2);
  ASSERT_EQ(layout.plan.shard_resources.size(), 2u);
  const int dead_block = layout.plan.shard_resources[0];
  ASSERT_GT(dead_block, 0);

  FaultPlan plan;
  for (int r = 0; r < dead_block; ++r) plan.events.push_back({0, r, true});
  ShardedRunOptions options;
  options.fault_plan = &plan;

  const auto source = make_source("random-batched", 7);
  const ShardedRunRecord record = run_streaming_sharded(
      *source, "dlru-edf", 16, 2, kInfiniteHorizon, options);
  ASSERT_EQ(record.plan.shard_resources, layout.plan.shard_resources);

  // The dead shard terminates (no deadlock) with every job accounted as a
  // drop; the surviving shard matches its fault-free self.
  const StreamRunRecord& dead = record.shards[0];
  EXPECT_EQ(dead.executed, 0);
  EXPECT_EQ(dead.cost.drops, dead.arrived);
  EXPECT_EQ(dead.degraded.degraded_rounds, dead.rounds);
  EXPECT_EQ(record.shards[1].cost, layout.shards[1].cost);
  EXPECT_EQ(record.shards[1].executed, layout.shards[1].executed);
  EXPECT_EQ(record.merged.executed + record.merged.cost.drops,
            record.merged.arrived);
  EXPECT_EQ(record.merged.arrived, layout.merged.arrived);
}

}  // namespace
}  // namespace rrs
