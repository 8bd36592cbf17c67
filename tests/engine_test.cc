// Unit tests for core/engine: phase ordering, cost accounting, recording.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/engine.h"
#include "core/validator.h"
#include "util/check.h"

namespace rrs {
namespace {

/// Policy that pins a fixed set of colors from round 0 onward.
class PinPolicy : public Policy {
 public:
  explicit PinPolicy(std::vector<ColorId> colors)
      : colors_(std::move(colors)) {}

  [[nodiscard]] std::string_view name() const override { return "pin"; }

  void on_round(RoundContext& ctx) override {
    if (ctx.final_sweep()) return;
    for (const ColorId c : colors_) {
      if (!ctx.cache().contains(c)) ctx.cache().insert(c);
    }
  }

 private:
  std::vector<ColorId> colors_;
};

/// Policy that never configures anything.
class IdlePolicy : public Policy {
 public:
  [[nodiscard]] std::string_view name() const override { return "idle"; }
  void on_round(RoundContext&) override {}
};

Instance two_color_instance() {
  InstanceBuilder builder;
  builder.delta(2);
  const ColorId a = builder.add_color(4);
  const ColorId b = builder.add_color(4);
  builder.add_jobs(a, 0, 4).add_jobs(b, 0, 2);
  return builder.build();
}

TEST(Engine, CostAndDegradedPlusEqualsSumEveryField) {
  CostBreakdown cost{.reconfig_events = 1,
                     .reconfig_cost = 20,
                     .drops = 300,
                     .churn_reconfigs = 4000};
  cost += CostBreakdown{.reconfig_events = 5,
                        .reconfig_cost = 60,
                        .drops = 700,
                        .churn_reconfigs = 8000};
  EXPECT_EQ(cost, (CostBreakdown{.reconfig_events = 6,
                                 .reconfig_cost = 80,
                                 .drops = 1000,
                                 .churn_reconfigs = 12000}));

  DegradedStats degraded{.fault_events = 1,
                         .repair_events = 20,
                         .churn_evictions = 300,
                         .degraded_rounds = 4000,
                         .drops_while_degraded = 50000};
  degraded += DegradedStats{.fault_events = 2,
                            .repair_events = 30,
                            .churn_evictions = 400,
                            .degraded_rounds = 5000,
                            .drops_while_degraded = 60000};
  EXPECT_EQ(degraded, (DegradedStats{.fault_events = 3,
                                     .repair_events = 50,
                                     .churn_evictions = 700,
                                     .degraded_rounds = 9000,
                                     .drops_while_degraded = 110000}));
}

TEST(Engine, IdlePolicyDropsEverything) {
  const Instance inst = two_color_instance();
  IdlePolicy policy;
  EngineOptions options;
  options.num_resources = 2;
  const EngineResult r = run_policy(inst, policy, options);
  EXPECT_EQ(r.executed, 0);
  EXPECT_EQ(r.cost.drops, 6);
  EXPECT_EQ(r.cost.reconfig_cost, 0);
  EXPECT_EQ(r.cost.total(), 6);
}

TEST(Engine, PinnedColorExecutesOnePerRoundPerLocation) {
  const Instance inst = two_color_instance();
  PinPolicy policy({0});
  EngineOptions options;
  options.num_resources = 1;
  options.replication = 1;
  const EngineResult r = run_policy(inst, policy, options);
  // 4 rounds, 1 resource on color 0 -> exactly the 4 color-0 jobs run.
  EXPECT_EQ(r.executed, 4);
  EXPECT_EQ(r.cost.drops, 2);
  EXPECT_EQ(r.cost.reconfig_events, 1);
  EXPECT_EQ(r.cost.reconfig_cost, 2);  // Delta = 2
}

TEST(Engine, ReplicationExecutesTwicePerRound) {
  const Instance inst = two_color_instance();
  PinPolicy policy({0});
  EngineOptions options;
  options.num_resources = 2;
  options.replication = 2;
  const EngineResult r = run_policy(inst, policy, options);
  // Color 0 in two locations: its 4 jobs finish in 2 rounds.
  EXPECT_EQ(r.executed, 4);
  EXPECT_EQ(r.cost.reconfig_events, 2);  // two locations colored once
}

TEST(Engine, DoubleSpeedExecutesTwoMiniRounds) {
  const Instance inst = two_color_instance();
  PinPolicy policy({0, 1});
  EngineOptions options;
  options.num_resources = 2;
  options.replication = 1;
  options.speed = 2;
  const EngineResult r = run_policy(inst, policy, options);
  EXPECT_EQ(r.executed, 6);  // all jobs fit: 2 res x 2 mini x 4 rounds
  EXPECT_EQ(r.cost.drops, 0);
}

TEST(Engine, RecordedScheduleValidatesAndMatchesCost) {
  const Instance inst = two_color_instance();
  PinPolicy policy({0, 1});
  EngineOptions options;
  options.num_resources = 2;
  options.replication = 1;
  options.record_schedule = true;
  const EngineResult r = run_policy(inst, policy, options);
  const CostBreakdown validated = validate_or_throw(inst, r.schedule);
  EXPECT_EQ(validated, r.cost);
}

TEST(Engine, RecordingOffProducesSameCost) {
  const Instance inst = two_color_instance();
  EngineOptions options;
  options.num_resources = 2;
  options.replication = 1;
  PinPolicy p1({0, 1});
  options.record_schedule = true;
  const EngineResult with = run_policy(inst, p1, options);
  PinPolicy p2({0, 1});
  options.record_schedule = false;
  const EngineResult without = run_policy(inst, p2, options);
  EXPECT_EQ(with.cost, without.cost);
  EXPECT_EQ(with.executed, without.executed);
  EXPECT_TRUE(without.schedule.execs.empty());
}

TEST(Engine, ExecutionIsEarliestDeadlineFirstWithinColor) {
  InstanceBuilder builder;
  builder.delta(1);
  const ColorId c = builder.add_color(8);
  builder.add_jobs(c, 0, 1);  // job 0, deadline 8
  builder.add_jobs(c, 8, 1);  // job 1, deadline 16
  const Instance inst = builder.build();

  PinPolicy policy({c});
  EngineOptions options;
  options.num_resources = 1;
  options.replication = 1;
  options.record_schedule = true;
  const EngineResult r = run_policy(inst, policy, options);
  ASSERT_EQ(r.schedule.execs.size(), 2u);
  EXPECT_EQ(r.schedule.execs[0].job, 0);
  EXPECT_EQ(r.schedule.execs[1].job, 1);
}

TEST(Engine, DropPhasePrecedesExecutionInSameRound) {
  // Job with deadline exactly at round k is dropped in round k's drop
  // phase and cannot be executed in round k.
  InstanceBuilder builder;
  builder.delta(1);
  const ColorId c = builder.add_color(1);  // deadline = arrival + 1
  builder.add_jobs(c, 0, 2);               // only 1 can run (round 0)
  const Instance inst = builder.build();

  PinPolicy policy({c});
  EngineOptions options;
  options.num_resources = 1;
  options.replication = 1;
  const EngineResult r = run_policy(inst, policy, options);
  EXPECT_EQ(r.executed, 1);
  EXPECT_EQ(r.cost.drops, 1);
}

TEST(Engine, InvalidOptionsRejected) {
  const Instance inst = two_color_instance();
  IdlePolicy policy;
  EngineOptions options;
  options.num_resources = 0;
  EXPECT_THROW((void)run_policy(inst, policy, options), InputError);
  options.num_resources = -3;
  EXPECT_THROW((void)run_policy(inst, policy, options), InputError);
  options.num_resources = 2;
  options.speed = 0;
  EXPECT_THROW((void)run_policy(inst, policy, options), InputError);
  options.speed = 1;
  options.replication = 0;
  EXPECT_THROW((void)run_policy(inst, policy, options), InputError);
  options.replication = -1;
  EXPECT_THROW((void)run_policy(inst, policy, options), InputError);
  // Replication must divide the resource count.
  options.num_resources = 3;
  options.replication = 2;
  EXPECT_THROW((void)run_policy(inst, policy, options), InputError);
}

TEST(Engine, MalformedFaultPlansRejectedUpFront) {
  const Instance inst = two_color_instance();
  IdlePolicy policy;
  EngineOptions options;
  options.num_resources = 2;
  const struct {
    const char* label;
    FaultPlan plan;
  } kBad[] = {
      {"unsorted rounds", {{{5, 0, true}, {3, 1, true}}}},
      {"resource out of range", {{{0, 2, true}}}},
      {"double failure", {{{0, 0, true}, {1, 0, true}}}},
      {"repair while up", {{{0, 1, false}}}},
      {"mixed explicit and hottest",
       {{{0, 0, true}, {1, kHottestResource, true}}}},
  };
  for (const auto& [label, plan] : kBad) {
    options.fault_plan = &plan;
    EXPECT_THROW((void)run_policy(inst, policy, options), InputError) << label;
  }
  // A well-formed plan passes the same gate.
  const FaultPlan good{{{0, 0, true}, {2, 0, false}}};
  options.fault_plan = &good;
  const EngineResult r = run_policy(inst, policy, options);
  EXPECT_EQ(r.degraded.fault_events, 1);
  EXPECT_EQ(r.degraded.repair_events, 1);
}

TEST(Engine, NegativeMaxRoundsRejected) {
  const Instance inst = two_color_instance();
  IdlePolicy policy;
  EngineOptions options;
  options.num_resources = 2;
  options.max_rounds = -5;
  EXPECT_THROW((void)run_policy(inst, policy, options), InputError);
}

// --- generalized cost model: lengths and matrix Delta ----------------------

TEST(EngineLengths, MultiUnitJobsCompleteAfterLengthUnits) {
  InstanceBuilder builder;
  builder.delta(2);
  const ColorId a = builder.add_color(8, /*drop_cost=*/1, /*length=*/3);
  builder.add_jobs(a, 0, 1);
  const Instance inst = builder.build();

  PinPolicy policy({a});
  EngineOptions options;
  options.num_resources = 1;
  const EngineResult r = run_policy(inst, policy, options);
  const Schedule& schedule = r.schedule;
  EXPECT_EQ(r.executed, 1);
  EXPECT_EQ(r.work_units, 3);
  EXPECT_EQ(r.cost.drops, 0);
  // One exec event per unit, all for the same job, consecutive rounds.
  ASSERT_EQ(schedule.execs.size(), 3u);
  for (const ExecEvent& e : schedule.execs) EXPECT_EQ(e.job, 0);
  EXPECT_EQ(validate_or_throw(inst, schedule), r.cost);
}

TEST(EngineLengths, ExpiredPartialJobChargesFullDropWeight) {
  InstanceBuilder builder;
  builder.delta(2);
  // Deadline 2 allows only 2 of the 3 needed units: the job is dropped,
  // and partial execution earns nothing — full drop weight is charged.
  const ColorId a = builder.add_color(2, /*drop_cost=*/5, /*length=*/3);
  builder.add_jobs(a, 0, 1);
  const Instance inst = builder.build();

  PinPolicy policy({a});
  EngineOptions options;
  options.num_resources = 1;
  const EngineResult r = run_policy(inst, policy, options);
  const Schedule& schedule = r.schedule;
  EXPECT_EQ(r.executed, 0);
  EXPECT_EQ(r.work_units, 2);
  EXPECT_EQ(r.cost.drops, 5);
  EXPECT_EQ(validate_or_throw(inst, schedule), r.cost);
}

TEST(EngineLengths, UnitsGoToTheFrontJobFirst) {
  InstanceBuilder builder;
  builder.delta(1);
  const ColorId a = builder.add_color(4, /*drop_cost=*/1, /*length=*/2);
  builder.add_jobs(a, 0, 1).add_jobs(a, 1, 1);
  const Instance inst = builder.build();

  PinPolicy policy({a});
  EngineOptions options;
  options.num_resources = 1;
  const EngineResult r = run_policy(inst, policy, options);
  const Schedule& schedule = r.schedule;
  EXPECT_EQ(r.executed, 2);
  EXPECT_EQ(r.work_units, 4);
  EXPECT_EQ(r.cost.drops, 0);
  // EDF within color: the earlier-deadline job absorbs both its units
  // before the second job receives any.
  ASSERT_EQ(schedule.execs.size(), 4u);
  EXPECT_EQ(schedule.execs[0].job, 0);
  EXPECT_EQ(schedule.execs[1].job, 0);
  EXPECT_EQ(schedule.execs[2].job, 1);
  EXPECT_EQ(schedule.execs[3].job, 1);
}

TEST(EngineMatrix, ReconfigChargesWarmTransitionFromPrevOccupant) {
  InstanceBuilder builder;
  builder.delta(3);
  const ColorId a = builder.add_color(4);
  const ColorId b = builder.add_color(4);
  builder.reconfig_cost(a, 5);
  builder.reconfig_cost(b, 7);
  builder.transition_cost(a, b, 1);  // warm discount: a -> b costs 1, not 7
  builder.add_jobs(a, 0, 1).add_jobs(b, 1, 1);
  const Instance inst = builder.build();

  /// Caches {a} in round 0, then switches to {b} from round 1 onward.
  class SwitchPolicy : public Policy {
   public:
    SwitchPolicy(ColorId a, ColorId b) : a_(a), b_(b) {}
    [[nodiscard]] std::string_view name() const override { return "switch"; }
    void on_round(RoundContext& ctx) override {
      if (ctx.final_sweep()) return;
      const ColorId want = ctx.round() == 0 ? a_ : b_;
      const ColorId other = ctx.round() == 0 ? b_ : a_;
      if (ctx.cache().contains(other)) ctx.cache().erase(other);
      if (!ctx.cache().contains(want)) ctx.cache().insert(want);
    }

   private:
    ColorId a_, b_;
  };

  SwitchPolicy policy(a, b);
  EngineOptions options;
  options.num_resources = 1;
  const EngineResult r = run_policy(inst, policy, options);
  const Schedule& schedule = r.schedule;
  // Round 0: kBlack -> a prices cold (5).  Round 1: the freed location
  // still physically holds a, so a -> b prices the warm discount (1).
  EXPECT_EQ(r.cost.reconfig_events, 2);
  EXPECT_EQ(r.cost.reconfig_cost, 6);
  EXPECT_EQ(r.executed, 2);
  EXPECT_EQ(r.cost.drops, 0);
  // The validator's from-color replay reprices the events identically.
  EXPECT_EQ(validate_or_throw(inst, schedule), r.cost);
}

TEST(Engine, PolicyStatsSurfaced) {
  class StatPolicy : public IdlePolicy {
   public:
    [[nodiscard]] std::vector<std::pair<std::string, std::int64_t>> stats()
        const override {
      return {{"touched", 7}};
    }
  };
  const Instance inst = two_color_instance();
  StatPolicy policy;
  EngineOptions options;
  options.num_resources = 1;
  const EngineResult r = run_policy(inst, policy, options);
  ASSERT_EQ(r.policy_stats.size(), 1u);
  EXPECT_EQ(r.policy_stats[0].first, "touched");
  EXPECT_EQ(r.policy_stats[0].second, 7);
}

}  // namespace
}  // namespace rrs
