// Edge-case sweep: boundary conditions across the whole stack that the
// module-focused tests do not reach.
#include <gtest/gtest.h>

#include "algs/adaptive.h"
#include "algs/distribute.h"
#include "algs/par_edf.h"
#include "algs/registry.h"
#include "algs/varbatch.h"
#include "core/validator.h"
#include "offline/greedy_offline.h"
#include "offline/lower_bound.h"
#include "offline/optimal.h"
#include "sim/metrics.h"
#include "sim/runner.h"
#include "sim/timeline.h"
#include "util/check.h"

namespace rrs {
namespace {

Instance empty_instance() {
  InstanceBuilder builder;
  builder.add_color(4);
  return builder.build();
}

TEST(EdgeCases, EveryAlgorithmHandlesEmptyInstance) {
  const Instance inst = empty_instance();
  for (const AlgorithmInfo& info : algorithm_registry()) {
    Schedule schedule;
    const StreamRunRecord r = run_algorithm(inst, info.name, 8, &schedule);
    EXPECT_EQ(r.cost.total(), 0) << info.name;
    EXPECT_TRUE(validate(inst, schedule).ok) << info.name;
  }
}

TEST(EdgeCases, OfflineMachineryHandlesEmptyInstance) {
  const Instance inst = empty_instance();
  EXPECT_EQ(offline_lower_bound(inst, 1).best(), 0);
  EXPECT_EQ(best_offline_heuristic_cost(inst, 1), 0);
  EXPECT_EQ(optimal_offline_cost(inst, 2), 0);
  EXPECT_EQ(run_par_edf(inst, 1).drops, 0);
}

TEST(EdgeCases, SingleJobSingleRound) {
  InstanceBuilder builder;
  builder.delta(1);
  const ColorId c = builder.add_color(1);
  builder.add_jobs(c, 0, 1);
  const Instance inst = builder.build();
  EXPECT_EQ(inst.horizon(), 1);

  for (const std::string name : {"dlru-edf", "varbatch", "edf"}) {
    Schedule schedule;
    const StreamRunRecord r = run_algorithm(inst, name, 8, &schedule);
    EXPECT_TRUE(validate(inst, schedule).ok) << name;
    // With Delta = 1 the single job wraps its counter instantly; the
    // winner either serves it (Delta + 0) or drops it (1).
    EXPECT_LE(r.cost.total(), 2) << name;
  }
}

TEST(EdgeCases, DelayBoundOnePassesEverywhere) {
  // D = 1 colors are batched by definition and have zero scheduling
  // slack: each job must run the round it arrives.
  InstanceBuilder builder;
  builder.delta(1);
  const ColorId c = builder.add_color(1);
  for (Round t = 0; t < 32; ++t) builder.add_jobs(c, t, 1);
  const Instance inst = builder.build();
  ASSERT_TRUE(inst.is_batched());
  ASSERT_TRUE(inst.is_rate_limited());

  const StreamRunRecord direct = run_algorithm(inst, "dlru-edf", 4);
  EXPECT_EQ(direct.cost.drops, 0);
  const StreamRunRecord pipeline = run_algorithm(inst, "varbatch", 4);
  EXPECT_EQ(pipeline.cost.drops, 0) << "D=1 passes through untouched";
}

TEST(EdgeCases, HugeDeltaMakesDropsOptimal) {
  InstanceBuilder builder;
  builder.delta(1'000'000);
  const ColorId c = builder.add_color(8);
  builder.add_jobs(c, 0, 100);
  const Instance inst = builder.build();
  EXPECT_EQ(optimal_offline_cost(inst, 1), 100);
  const StreamRunRecord r = run_algorithm(inst, "dlru-edf", 8);
  EXPECT_EQ(r.cost.total(), 100);  // never configures (Lemma 3.1 regime)
}

TEST(EdgeCases, DeltaOneDegeneratesToPagingLikeBehaviour) {
  // Delta = 1 (the Sleator-Tarjan paging special case direction): every
  // arrival wraps the counter, eligibility is instant.
  InstanceBuilder builder;
  builder.delta(1);
  std::vector<ColorId> colors;
  for (int c = 0; c < 6; ++c) colors.push_back(builder.add_color(4));
  for (Round t = 0; t < 64; t += 4) {
    builder.add_jobs(colors[static_cast<std::size_t>((t / 4) % 6)], t, 2);
  }
  const Instance inst = builder.build();
  const StreamRunRecord r = run_algorithm(inst, "dlru-edf", 8);
  EXPECT_EQ(r.cost.drops, 0);
}

TEST(EdgeCases, ManyColorsFewResources) {
  InstanceBuilder builder;
  builder.delta(4);
  for (int c = 0; c < 64; ++c) {
    const ColorId color = builder.add_color(8);
    builder.add_jobs(color, 0, 8);
  }
  const Instance inst = builder.build();
  Schedule schedule;
  const StreamRunRecord r = run_algorithm(inst, "dlru-edf", 4, &schedule);
  EXPECT_TRUE(validate(inst, schedule).ok);
  // Capacity is 2 colors x 2 slots x 8 rounds = 32 executions max.
  EXPECT_LE(r.executed, 32);
}

TEST(EdgeCases, GapsBetweenArrivalsSpanBoundaries) {
  // Long silent stretches between batches: eligibility resets, epochs
  // turn over, and the algorithm must re-earn eligibility each time.
  InstanceBuilder builder;
  builder.delta(3);
  const ColorId c = builder.add_color(4);
  builder.add_jobs(c, 0, 4);
  builder.add_jobs(c, 400, 4);
  builder.add_jobs(c, 800, 4);
  const Instance inst = builder.build();
  Schedule schedule;
  const StreamRunRecord r = run_algorithm(inst, "dlru-edf", 4, &schedule);
  EXPECT_TRUE(validate(inst, schedule).ok);
  EXPECT_EQ(r.executed + r.cost.drops, 12);
}

TEST(EdgeCases, AdaptiveOnEmptyAndTinyInstances) {
  AdaptiveSplitPolicy policy;
  EngineOptions options;
  options.num_resources = 8;
  options.replication = 2;
  EXPECT_EQ(run_policy(empty_instance(), policy, options).cost.total(), 0);
}

TEST(EdgeCases, TransformsOfEmptyInstances) {
  const Instance inst = empty_instance();
  const DistributeTransform dt = distribute_transform(inst);
  EXPECT_EQ(dt.rate_limited.jobs().size(), 0u);
  const VarBatchTransform vt = varbatch_transform(inst);
  EXPECT_EQ(vt.batched.jobs().size(), 0u);
  EXPECT_EQ(vt.batched.num_colors(), 1);
}

TEST(EdgeCases, MetricsAndTimelineOnDoubleSpeedSchedules) {
  InstanceBuilder builder;
  builder.delta(1);
  const ColorId c = builder.add_color(4);
  builder.add_jobs(c, 0, 4);
  const Instance inst = builder.build();

  const EngineResult r =
      find_algorithm("ds-seq-edf").run(inst, 1, /*record=*/true);
  ASSERT_EQ(r.schedule.speed, 2);
  const ScheduleMetrics m = compute_metrics(inst, r.schedule);
  EXPECT_EQ(m.wait.count, r.executed);
  // 4 jobs in 2 rounds on one double-speed resource: full utilization.
  EXPECT_NEAR(m.utilization, 1.0, 1e-9);
  const auto timeline = compute_timeline(inst, r.schedule, 4);
  ASSERT_FALSE(timeline.empty());
  EXPECT_EQ(timeline[0].executions, 4);
}

TEST(EdgeCases, ValidatorHorizonBoundary) {
  // An execution in the very last round, one past it, and a job whose
  // window straddles the horizon.
  InstanceBuilder builder;
  builder.delta(1);
  const ColorId c = builder.add_color(4);
  builder.add_jobs(c, 4, 1);  // window [4, 8), horizon 8
  const Instance inst = builder.build();
  Schedule ok;
  ok.num_resources = 1;
  ok.reconfigs = {{0, 0, 0, c}};
  ok.execs = {{7, 0, 0, 0}};
  EXPECT_TRUE(validate(inst, ok).ok);
  Schedule bad = ok;
  bad.execs[0].round = 8;
  EXPECT_FALSE(validate(inst, bad).ok);
}

TEST(EdgeCases, SeqEdfWithOneResource) {
  InstanceBuilder builder;
  builder.delta(1);
  const ColorId a = builder.add_color(4);
  const ColorId b = builder.add_color(4);
  builder.add_jobs(a, 0, 2).add_jobs(b, 0, 2);
  const Instance inst = builder.build();
  const EngineResult r = find_algorithm("seq-edf").run(inst, 1, true);
  EXPECT_TRUE(validate(inst, r.schedule).ok);
  EXPECT_GE(r.executed, 2);  // at least one color fully served
}

}  // namespace
}  // namespace rrs
