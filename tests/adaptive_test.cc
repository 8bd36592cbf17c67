// Tests for algs/adaptive: the ARC-inspired self-tuning split extension.
#include <gtest/gtest.h>

#include "algs/adaptive.h"
#include "core/validator.h"
#include "sim/runner.h"
#include "workload/adversary_dlru.h"
#include "workload/adversary_edf.h"
#include "workload/random_batched.h"

namespace rrs {
namespace {

EngineOptions section3_options(int n, bool record = false) {
  EngineOptions options;
  options.num_resources = n;
  options.replication = 2;
  options.record_schedule = record;
  return options;
}

/// Exposes the final fraction for assertions.
class InspectableAdaptive : public AdaptiveSplitPolicy {
 public:
  using AdaptiveSplitPolicy::AdaptiveSplitPolicy;
  [[nodiscard]] double fraction() const { return lru_fraction(); }
};

TEST(Adaptive, SchedulesAreValid) {
  RandomBatchedParams params;
  params.seed = 4;
  params.horizon = 512;
  const Instance inst = make_random_batched(params);
  Schedule schedule;
  const StreamRunRecord r = run_algorithm(inst, "adaptive", 8, &schedule);
  EXPECT_EQ(validate_or_throw(inst, schedule), r.cost);
}

TEST(Adaptive, RegisteredWithStats) {
  RandomBatchedParams params;
  params.seed = 5;
  params.horizon = 512;
  const Instance inst = make_random_batched(params);
  const StreamRunRecord r = run_algorithm(inst, "adaptive", 8);
  bool saw_adaptations = false, saw_fraction = false;
  for (const auto& [key, value] : r.stats) {
    if (key == "adaptations") saw_adaptations = value >= 0;
    if (key == "final_lru_percent") {
      saw_fraction = value >= 0 && value < 100;
    }
  }
  EXPECT_TRUE(saw_adaptations);
  EXPECT_TRUE(saw_fraction);
}

TEST(Adaptive, DropPressureShrinksLruShare) {
  // Pure drop pressure, zero reconfigurations: a color whose TOTAL job
  // count stays below Delta never wraps its counter (the counter is only
  // reset at eligible epochs' ends), so nothing is ever cached and every
  // job drops.  The rule must walk the fraction to its floor.
  InstanceBuilder builder;
  builder.delta(2000);  // > 512 total jobs: never eligible
  const ColorId c = builder.add_color(4);
  for (Round t = 0; t < 1024; t += 4) builder.add_jobs(c, t, 2);
  const Instance inst = builder.build();

  InspectableAdaptive policy;
  (void)run_policy(inst, policy, section3_options(8));
  EXPECT_LT(policy.fraction(), 0.5);
  EXPECT_NEAR(policy.fraction(), AdaptiveSplitPolicy::kMinFraction, 1e-9);
}

/// Pure reconfiguration pressure, zero drops: three always-eligible colors
/// rotate through two cache slots, forcing one insertion per block while
/// every job is served, for 16 adaptation windows.
Instance thrash_instance() {
  InstanceBuilder builder;
  builder.delta(1);
  const ColorId a = builder.add_color(4);
  const ColorId b = builder.add_color(4);
  const ColorId c = builder.add_color(4);
  const ColorId pairs[][2] = {{a, b}, {b, c}, {c, a}};
  for (Round t = 0; t < 1024; t += 4) {
    const auto& pair = pairs[(t / 4) % 3];
    builder.add_jobs(pair[0], t, 4);
    builder.add_jobs(pair[1], t, 4);
  }
  return builder.build();
}

TEST(Adaptive, ThrashPressureGrowsLruShare) {
  // The rule must grow the fraction.
  InspectableAdaptive policy;
  const EngineResult r =
      run_policy(thrash_instance(), policy, section3_options(4));
  EXPECT_EQ(r.cost.drops, 0) << "everything is servable by construction";
  EXPECT_GT(policy.fraction(), 0.5);
}

TEST(Adaptive, FractionStaysClamped) {
  // Sustained thrash pressure steps the split up by 0.05 per window from
  // 0.5; it must stop at the 0.9 ceiling, which leaves an eviction victim.
  InspectableAdaptive policy;
  (void)run_policy(thrash_instance(), policy, section3_options(4));
  EXPECT_NEAR(policy.fraction(), AdaptiveSplitPolicy::kMaxFraction, 1e-9);
  EXPECT_EQ(AdaptiveSplitPolicy::kMaxFraction, 0.9);
}

TEST(Adaptive, NoWorseThanFixedSplitOnBothAdversaries) {
  // The extension must not break the headline behaviour: bounded on both
  // killers (within a small factor of the fixed-split result).
  {
    const AdversaryAInstance adv =
        make_adversary_a({.n = 8, .delta = 2, .j = 6, .k = 8});
    const Cost fixed =
        run_algorithm(adv.instance, "dlru-edf", 8).cost.total();
    const Cost adaptive =
        run_algorithm(adv.instance, "adaptive", 8).cost.total();
    EXPECT_LE(adaptive, 3 * fixed);
  }
  {
    const AdversaryBInstance adv = make_adversary_b({.n = 8, .j = 4, .k = 7});
    const Cost fixed =
        run_algorithm(adv.instance, "dlru-edf", 8).cost.total();
    const Cost adaptive =
        run_algorithm(adv.instance, "adaptive", 8).cost.total();
    EXPECT_LE(adaptive, 3 * fixed);
  }
}

TEST(DLruEdfSplit, FractionZeroActsLikeEdfOnAppendixB) {
  // lru_fraction 0 removes the recency half; on the EDF killer the cost
  // must blow up relative to the paper's 0.5 split.
  const AdversaryBInstance adv = make_adversary_b({.n = 8, .j = 4, .k = 8});
  DLruEdfPolicy pure_edfish(0.0);
  const Cost edfish =
      run_policy(adv.instance, pure_edfish, section3_options(8))
          .cost.total();
  DLruEdfPolicy paper_split(0.5);
  const Cost split =
      run_policy(adv.instance, paper_split, section3_options(8))
          .cost.total();
  EXPECT_GT(edfish, 2 * split);
}

TEST(DLruEdfSplit, OneEdfSlotSufficesOnAppendixA) {
  // Ablation insight: on the recency killer even a 3:1 LRU-heavy split
  // stays bounded, because a SINGLE deadline-driven slot is enough to
  // drain the long-term backlog — it is the existence of the EDF half,
  // not its size, that defeats Appendix A.  (Pure dLRU, i.e. no EDF slot
  // at all, is unbounded there: see dlru_test.cc.)
  const AdversaryAInstance adv =
      make_adversary_a({.n = 8, .delta = 2, .j = 6, .k = 9});
  const Cost long_jobs = adv.instance.jobs_of_color(adv.long_color);
  for (const double fraction : {0.25, 0.5, 0.75, 0.9}) {
    DLruEdfPolicy policy(fraction);
    const EngineResult r =
        run_policy(adv.instance, policy, section3_options(8));
    EXPECT_LT(r.cost.drops, long_jobs / 4) << "fraction " << fraction;
  }
}

}  // namespace
}  // namespace rrs
