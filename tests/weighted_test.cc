// Tests for the weighted (per-color drop cost) extension.
//
// The paper fixes unit drop costs; the companion SPAA 2006 paper studies
// variable drop costs (with uniform delay bounds).  This extension grafts
// per-color drop costs onto the variable-delay machinery: drop cost is the
// summed weight of unexecuted jobs, and eligibility counters accumulate
// weight (a color becomes eligible once Delta worth of droppable value has
// arrived).  Everything must reduce exactly to the paper's semantics when
// all weights are 1 — which the rest of the suite pins down — so these
// tests focus on the weighted behaviours.
#include <gtest/gtest.h>

#include <sstream>

#include "algs/dlru_edf.h"
#include "core/validator.h"
#include "offline/greedy_offline.h"
#include "offline/lower_bound.h"
#include "offline/optimal.h"
#include "sim/runner.h"
#include "workload/datacenter.h"
#include "workload/random_batched.h"
#include "workload/trace_io.h"

namespace rrs {
namespace {

TEST(Weighted, InstanceTracksWeights) {
  InstanceBuilder builder;
  const ColorId gold = builder.add_color(4, 10);
  const ColorId lead = builder.add_color(4, 1);
  builder.add_jobs(gold, 0, 3).add_jobs(lead, 0, 5);
  const Instance inst = builder.build();
  EXPECT_EQ(inst.drop_cost(gold), 10);
  EXPECT_EQ(inst.drop_cost(lead), 1);
  EXPECT_EQ(inst.weight_of_color(gold), 30);
  EXPECT_EQ(inst.weight_of_color(lead), 5);
  EXPECT_EQ(inst.total_weight(), 35);
  EXPECT_FALSE(inst.unit_drop_costs());
  EXPECT_EQ(inst.jobs()[0].drop_cost, 10);
}

TEST(Weighted, UnitCostsDetected) {
  InstanceBuilder builder;
  builder.add_color(4);
  builder.add_color(8, 1);
  const Instance inst = builder.build();
  EXPECT_TRUE(inst.unit_drop_costs());
}

TEST(Weighted, BuilderRejectsNonPositiveWeight) {
  InstanceBuilder builder;
  EXPECT_THROW((void)builder.add_color(4, 0), InputError);
  EXPECT_THROW((void)builder.add_color(4, -3), InputError);
}

TEST(Weighted, EngineChargesWeightedDrops) {
  // Nothing configured: drop cost = total weight, not job count.
  InstanceBuilder builder;
  builder.delta(1000);  // nothing ever becomes eligible
  const ColorId gold = builder.add_color(4, 10);
  builder.add_jobs(gold, 0, 3);
  const Instance inst = builder.build();
  const StreamRunRecord r = run_algorithm(inst, "dlru-edf", 8);
  EXPECT_EQ(r.cost.drops, 30);
  EXPECT_EQ(r.cost.reconfig_cost, 0);
}

TEST(Weighted, ScheduleCostUsesWeights) {
  InstanceBuilder builder;
  builder.delta(2);
  const ColorId gold = builder.add_color(4, 10);
  builder.add_jobs(gold, 0, 2);
  const Instance inst = builder.build();

  Schedule schedule;
  schedule.num_resources = 1;
  schedule.reconfigs = {{0, 0, 0, gold}};
  schedule.execs = {{0, 0, 0, 0}};  // one of two jobs executed
  const CostBreakdown cost = validate_or_throw(inst, schedule);
  EXPECT_EQ(cost.reconfig_cost, 2);
  EXPECT_EQ(cost.drops, 10);  // one weighted job forfeited
}

TEST(Weighted, EligibilityAcceleratedByWeight) {
  // Delta 10: a weight-10 color becomes eligible on its FIRST job; a
  // weight-1 color needs ten.  With one cache pair, the valuable color is
  // served first.
  InstanceBuilder builder;
  builder.delta(10);
  const ColorId gold = builder.add_color(8, 10);
  const ColorId lead = builder.add_color(8, 1);
  builder.add_jobs(lead, 0, 4);
  builder.add_jobs(gold, 0, 4);
  const Instance inst = builder.build();

  const StreamRunRecord r = run_algorithm(inst, "dlru-edf", 4);
  // gold (weight 40) is eligible immediately and served; lead never
  // accumulates Delta worth of value in its first block but eventually
  // does (4 + 4 < 10 per epoch; total 4 jobs of weight 1 -> cnt 4 < 10,
  // never eligible): all 4 lead jobs drop at weight 1 each.
  EXPECT_EQ(r.cost.drops, 4);
}

TEST(Weighted, LowerBoundUsesWeights) {
  InstanceBuilder builder;
  builder.delta(50);
  const ColorId gold = builder.add_color(4, 30);  // weight 60 > Delta
  const ColorId lead = builder.add_color(4, 1);   // weight 2  < Delta
  builder.add_jobs(gold, 0, 2).add_jobs(lead, 0, 2);
  const Instance inst = builder.build();
  const LowerBound lb = offline_lower_bound(inst, 1);
  EXPECT_EQ(lb.configure_or_drop, 50 + 2);
}

TEST(Weighted, OptimalDpAccountsWeights) {
  // One resource, two colors with equal job counts but unequal value and
  // overlapping windows: the optimum configures the valuable one and
  // drops the cheap one.
  InstanceBuilder builder;
  builder.delta(3);
  const ColorId gold = builder.add_color(2, 10);
  const ColorId lead = builder.add_color(2, 1);
  builder.add_jobs(gold, 0, 2).add_jobs(lead, 0, 2);
  const Instance inst = builder.build();
  // Serve gold: Delta(3) + lead weight(2) = 5.  Serve lead: 3 + 20 = 23.
  EXPECT_EQ(optimal_offline_cost(inst, 1), 5);
}

TEST(Weighted, GreedyPrefersValuableBacklog) {
  InstanceBuilder builder;
  builder.delta(2);
  const ColorId gold = builder.add_color(4, 10);
  const ColorId lead = builder.add_color(4, 1);
  builder.add_jobs(lead, 0, 4);  // more jobs...
  builder.add_jobs(gold, 0, 3);  // ...but less value than 3 x 10
  const Instance inst = builder.build();
  const EngineResult r = run_demand_greedy(inst, 1);
  // gold (backlog value 30) must win the single slot; lead (value 4)
  // drops.  Cost: Delta + 4 (gold finishes, lead lost by deadline 4 after
  // 3 gold rounds leave 1 round: 1 lead executes? gold takes rounds 0-2,
  // lead's window ends at round 4 -> round 3 serves one lead job).
  EXPECT_LE(r.cost.drops, 4);
  const Cost gold_weight = inst.weight_of_color(gold);
  EXPECT_LT(r.cost.drops, gold_weight) << "gold must not be forfeited";
}

TEST(Weighted, TraceRoundTripPreservesWeights) {
  RandomBatchedParams params;
  params.seed = 3;
  params.horizon = 64;
  params.min_drop_cost = 1;
  params.max_drop_cost = 12;
  const Instance original = make_random_batched(params);
  ASSERT_FALSE(original.unit_drop_costs());

  std::ostringstream out;
  write_trace(out, original);
  std::istringstream in(out.str());
  const Instance reread = read_trace(in);
  for (ColorId c = 0; c < original.num_colors(); ++c) {
    EXPECT_EQ(reread.drop_cost(c), original.drop_cost(c));
  }
  EXPECT_EQ(reread.jobs(), original.jobs());
}

TEST(Weighted, LegacyTraceWithoutWeightsStillParses) {
  std::istringstream in(
      "# rrs-trace v1\n"
      "delta,3\n"
      "color,0,8\n"
      "job,0,0,2\n"
      "# end\n");
  const Instance inst = read_trace(in);
  EXPECT_EQ(inst.drop_cost(0), 1);
  EXPECT_TRUE(inst.unit_drop_costs());
}

TEST(Weighted, DatacenterMixIsWeighted) {
  DatacenterParams params;
  params.seed = 2;
  params.horizon = 512;
  const Instance inst = make_datacenter(params);
  EXPECT_FALSE(inst.unit_drop_costs());
  EXPECT_EQ(inst.drop_cost(0), 8);  // interactive tier
}

TEST(Weighted, ReductionsPreserveWeights) {
  RandomBatchedParams params;
  params.seed = 7;
  params.horizon = 256;
  params.min_drop_cost = 1;
  params.max_drop_cost = 8;
  const Instance inst = make_random_batched(params);

  Schedule schedule;
  const StreamRunRecord r = run_algorithm(inst, "varbatch", 8, &schedule);
  const CostBreakdown validated = validate_or_throw(inst, schedule);
  EXPECT_EQ(validated, r.cost);
}

TEST(Weighted, TrackerSplitsDropWeight) {
  RandomBatchedParams params;
  params.seed = 9;
  params.horizon = 512;
  params.min_drop_cost = 1;
  params.max_drop_cost = 6;
  const Instance inst = make_random_batched(params);

  DLruEdfPolicy policy;
  EngineOptions options;
  options.num_resources = 8;
  options.replication = 2;
  options.record_schedule = false;
  const EngineResult r = run_policy(inst, policy, options);
  EXPECT_EQ(policy.tracker().eligible_drop_weight() +
                policy.tracker().ineligible_drop_weight(),
            r.cost.drops);
  EXPECT_GE(policy.tracker().eligible_drop_weight(),
            policy.tracker().eligible_drops());
}

}  // namespace
}  // namespace rrs
