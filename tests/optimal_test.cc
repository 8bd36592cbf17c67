// Tests for offline/optimal: the exact DP on hand-solvable instances.
#include <gtest/gtest.h>

#include "sim/runner.h"
#include "offline/greedy_offline.h"
#include "core/validator.h"
#include "offline/optimal.h"
#include "util/check.h"
#include "workload/random_batched.h"

namespace rrs {
namespace {

TEST(Optimal, EmptyInstanceCostsNothing) {
  InstanceBuilder builder;
  builder.add_color(4);
  EXPECT_EQ(optimal_offline_cost(builder.build(), 1), 0);
}

TEST(Optimal, SingleColorConfigureOnce) {
  // 4 jobs, delay 4, Delta 3: configure once (3) and run all 4 jobs.
  InstanceBuilder builder;
  builder.delta(3);
  const ColorId c = builder.add_color(4);
  builder.add_jobs(c, 0, 4);
  EXPECT_EQ(optimal_offline_cost(builder.build(), 1), 3);
}

TEST(Optimal, DropCheaperThanConfigure) {
  // 2 jobs, Delta 5: dropping (2) beats configuring (5).
  InstanceBuilder builder;
  builder.delta(5);
  const ColorId c = builder.add_color(4);
  builder.add_jobs(c, 0, 2);
  EXPECT_EQ(optimal_offline_cost(builder.build(), 1), 2);
}

TEST(Optimal, CapacityForcesDrops) {
  // 6 jobs in a 2-round window on one resource: 4 drops + Delta.
  InstanceBuilder builder;
  builder.delta(1);
  const ColorId c = builder.add_color(2);
  builder.add_jobs(c, 0, 6);
  EXPECT_EQ(optimal_offline_cost(builder.build(), 1), 1 + 4);
}

TEST(Optimal, TwoResourcesHalveTheDrops) {
  InstanceBuilder builder;
  builder.delta(1);
  const ColorId c = builder.add_color(2);
  builder.add_jobs(c, 0, 6);
  // Two resources on the same color: 4 executions, 2 drops, 2 reconfigs.
  EXPECT_EQ(optimal_offline_cost(builder.build(), 2), 2 + 2);
}

TEST(Optimal, InterleavingBeatsThrashing) {
  // Two colors alternate demand; one resource.  Serving both means
  // reconfiguring every block (expensive); the optimum picks the cheaper
  // of thrash vs. drop.
  InstanceBuilder builder;
  builder.delta(4);
  const ColorId a = builder.add_color(2);
  const ColorId b = builder.add_color(2);
  for (Round t = 0; t < 16; t += 4) {
    builder.add_jobs(a, t, 2);
    builder.add_jobs(b, t + 2, 2);
  }
  const Instance inst = builder.build();
  // Serving one color fully: Delta + 8 drops = 12.
  // Thrashing both: 8 reconfigs * 4 = 32.
  // Serving both on... there is only one resource; best is 12.
  EXPECT_EQ(optimal_offline_cost(inst, 1), 12);
}

TEST(Optimal, ReconfigureMidStreamWhenWorthIt) {
  // Color a: jobs early; color b: jobs late; one resource can serve both
  // with exactly two configurations.
  InstanceBuilder builder;
  builder.delta(2);
  const ColorId a = builder.add_color(4);
  const ColorId b = builder.add_color(4);
  builder.add_jobs(a, 0, 4);
  builder.add_jobs(b, 4, 4);
  EXPECT_EQ(optimal_offline_cost(builder.build(), 1), 4);
}

TEST(Optimal, NeverWorseThanAnyHeuristic) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    RandomBatchedParams params;
    params.seed = seed;
    params.num_colors = 3;
    params.min_scale = 1;
    params.max_scale = 3;
    params.horizon = 16;
    params.delta = 3;
    const Instance inst = make_random_batched(params);
    const Cost opt = optimal_offline_cost(inst, 1);
    EXPECT_LE(opt, best_offline_heuristic_cost(inst, 1)) << "seed " << seed;
  }
}

TEST(Optimal, NeverWorseThanOnlineWithSameResources) {
  for (const std::uint64_t seed : {6u, 7u, 8u}) {
    RandomBatchedParams params;
    params.seed = seed;
    params.num_colors = 3;
    params.min_scale = 1;
    params.max_scale = 3;
    params.horizon = 16;
    params.delta = 2;
    const Instance inst = make_random_batched(params);
    const Cost opt = optimal_offline_cost(inst, 2);
    const StreamRunRecord online = run_algorithm(inst, "seq-edf", 2);
    EXPECT_LE(opt, online.cost.total()) << "seed " << seed;
  }
}

TEST(Optimal, StateBudgetGuardTrips) {
  RandomBatchedParams params;
  params.seed = 1;
  params.num_colors = 8;
  params.horizon = 256;
  const Instance inst = make_random_batched(params);
  EXPECT_THROW((void)optimal_offline_cost(inst, 2, /*max_states=*/100),
               InputError);
}

TEST(OptimalSchedule, WitnessValidatesAtExactCost) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u}) {
    RandomBatchedParams params;
    params.seed = seed;
    params.num_colors = 3;
    params.min_scale = 1;
    params.max_scale = 3;
    params.horizon = 16;
    params.delta = 3;
    const Instance inst = make_random_batched(params);
    const OptimalResult opt = optimal_offline_schedule(inst, 1);
    const CostBreakdown validated = validate_or_throw(inst, opt.schedule);
    EXPECT_EQ(validated.total(), opt.cost) << "seed " << seed;
    EXPECT_EQ(opt.cost, optimal_offline_cost(inst, 1)) << "seed " << seed;
  }
}

TEST(OptimalSchedule, MultiResourceWitness) {
  InstanceBuilder builder;
  builder.delta(1);
  const ColorId a = builder.add_color(2);
  const ColorId b = builder.add_color(2);
  builder.add_jobs(a, 0, 2).add_jobs(b, 0, 2);
  const Instance inst = builder.build();
  const OptimalResult opt = optimal_offline_schedule(inst, 2);
  EXPECT_EQ(validate_or_throw(inst, opt.schedule).total(), opt.cost);
  EXPECT_EQ(opt.cost, 2);  // two reconfigs, no drops
  EXPECT_EQ(opt.schedule.execs.size(), 4u);
}

TEST(OptimalSchedule, WeightedWitness) {
  InstanceBuilder builder;
  builder.delta(3);
  const ColorId gold = builder.add_color(2, 10);
  const ColorId lead = builder.add_color(2, 1);
  builder.add_jobs(gold, 0, 2).add_jobs(lead, 0, 2);
  const Instance inst = builder.build();
  const OptimalResult opt = optimal_offline_schedule(inst, 1);
  EXPECT_EQ(opt.cost, 5);  // serve gold (Delta 3), drop lead (2 x 1)
  EXPECT_EQ(validate_or_throw(inst, opt.schedule).total(), 5);
  for (const ExecEvent& e : opt.schedule.execs) {
    EXPECT_EQ(inst.jobs()[static_cast<std::size_t>(e.job)].color, gold);
  }
}

TEST(OptimalSchedule, EmptyInstance) {
  InstanceBuilder builder;
  builder.add_color(4);
  const OptimalResult opt = optimal_offline_schedule(builder.build(), 2);
  EXPECT_EQ(opt.cost, 0);
  EXPECT_TRUE(opt.schedule.execs.empty());
  EXPECT_TRUE(opt.schedule.reconfigs.empty());
}

TEST(Optimal, RejectsBadM) {
  InstanceBuilder builder;
  builder.add_color(2);
  EXPECT_THROW((void)optimal_offline_cost(builder.build(), 0), InputError);
}

TEST(Optimal, MatrixTierRejectsMoreThanEightResources) {
  // The matrix-tier transition pricing uses a bitmask bijection DP that is
  // documented (and now enforced) to support at most m = 8; beyond that
  // callers must use exact_offline_bnb.
  InstanceBuilder builder;
  const ColorId a = builder.add_color(2);
  const ColorId b = builder.add_color(2);
  builder.reconfig_cost(a, 1).reconfig_cost(b, 1);
  builder.transition_cost(a, b, 3).transition_cost(b, a, 3);
  builder.add_jobs(a, 0, 1);
  const Instance inst = builder.build();
  EXPECT_THROW((void)optimal_offline_cost(inst, 9), InputError);
  // m = 8 is still in range; scalar/vector tiers have no such limit.
  EXPECT_NO_THROW((void)optimal_offline_cost(inst, 8));
  InstanceBuilder scalar;
  const ColorId c = scalar.add_color(2);
  scalar.add_jobs(c, 0, 1);
  EXPECT_NO_THROW((void)optimal_offline_cost(scalar.build(), 9));
}

}  // namespace
}  // namespace rrs
