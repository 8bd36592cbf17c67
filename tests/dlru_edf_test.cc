// Tests for algs/dlru_edf: the paper's main algorithm.
//
// Covers mechanical correctness (valid schedules, capacity splits) and the
// headline behaviour: unlike its two halves, dLRU-EDF stays within a
// constant factor of OFF on BOTH adversarial constructions.
#include <gtest/gtest.h>

#include "algs/dlru_edf.h"
#include "algs/section3_shadow.h"
#include "core/validator.h"
#include "offline/appendix_off.h"
#include "offline/lower_bound.h"
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

TEST(DLruEdf, RequiresDivisibleResourceCount) {
  InstanceBuilder builder;
  builder.add_color(2);
  const Instance inst = builder.build();
  DLruEdfPolicy policy;
  EngineOptions options = section3_options(6);
  EXPECT_THROW((void)run_policy(inst, policy, options), InputError);
}

TEST(DLruEdf, SchedulesAreValidOnRandomBatched) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    RandomBatchedParams params;
    params.seed = seed;
    params.horizon = 256;
    const Instance inst = make_random_batched(params);
    Schedule schedule;
    const StreamRunRecord record =
        run_algorithm(inst, "dlru-edf", 8, &schedule);
    const CostBreakdown validated = validate_or_throw(inst, schedule);
    EXPECT_EQ(validated, record.cost) << "seed " << seed;
  }
}

TEST(DLruEdf, ServesSingleSteadyColor) {
  InstanceBuilder builder;
  builder.delta(2);
  const ColorId c = builder.add_color(4);
  for (Round t = 0; t <= 64; t += 4) builder.add_jobs(c, t, 4);
  const Instance inst = builder.build();

  const StreamRunRecord r = run_algorithm(inst, "dlru-edf", 4);
  EXPECT_EQ(r.cost.drops, 0);
  EXPECT_EQ(r.cost.reconfig_events, 2);  // cached once in two locations
}

TEST(DLruEdf, HandlesAppendixA) {
  // Where dLRU drops the whole long-term backlog, dLRU-EDF's EDF half
  // picks the (nonidle) long-term color up and drains it.
  const AdversaryAInstance adv =
      make_adversary_a({.n = 8, .delta = 2, .j = 5, .k = 7});
  const StreamRunRecord online =
      run_algorithm(adv.instance, "dlru-edf", adv.params.n);
  const Schedule off = appendix_a_off_schedule(adv);
  const Cost off_cost = validate_or_throw(adv.instance, off).total();
  const double ratio = static_cast<double>(online.cost.total()) /
                       static_cast<double>(off_cost);
  EXPECT_LT(ratio, 3.0) << "constant-factor behaviour on Appendix A";
}

TEST(DLruEdf, HandlesAppendixB) {
  // Where EDF thrashes, dLRU-EDF's LRU half keeps the short color pinned.
  const AdversaryBInstance adv = make_adversary_b({.n = 8, .j = 4, .k = 7});
  const StreamRunRecord online =
      run_algorithm(adv.instance, "dlru-edf", adv.params.n);
  const Schedule off = appendix_b_off_schedule(adv);
  const Cost off_cost = validate_or_throw(adv.instance, off).total();
  const double ratio = static_cast<double>(online.cost.total()) /
                       static_cast<double>(off_cost);
  EXPECT_LT(ratio, 8.0) << "constant-factor behaviour on Appendix B";
}

TEST(DLruEdf, RatioStaysFlatAsAppendixAScales) {
  // The dLRU killer gets harder with j; dLRU-EDF's ratio must not grow.
  std::vector<double> ratios;
  for (int j = 5; j <= 7; ++j) {
    const AdversaryAInstance adv =
        make_adversary_a({.n = 8, .delta = 2, .j = j, .k = j + 2});
    const StreamRunRecord online =
        run_algorithm(adv.instance, "dlru-edf", adv.params.n);
    const Schedule off = appendix_a_off_schedule(adv);
    const Cost off_cost = validate_or_throw(adv.instance, off).total();
    ratios.push_back(static_cast<double>(online.cost.total()) /
                     static_cast<double>(off_cost));
  }
  for (const double ratio : ratios) EXPECT_LT(ratio, 3.0);
}

TEST(DLruEdf, RatioStaysFlatAsAppendixBScales) {
  for (int bump = 2; bump <= 4; ++bump) {
    const AdversaryBInstance adv =
        make_adversary_b({.n = 8, .j = 4, .k = 4 + bump});
    const StreamRunRecord online =
        run_algorithm(adv.instance, "dlru-edf", adv.params.n);
    const Schedule off = appendix_b_off_schedule(adv);
    const Cost off_cost = validate_or_throw(adv.instance, off).total();
    const double ratio = static_cast<double>(online.cost.total()) /
                         static_cast<double>(off_cost);
    EXPECT_LT(ratio, 8.0) << "k - j = " << bump;
  }
}

TEST(DLruEdf, TrackerStatsAreConsistent) {
  RandomBatchedParams params;
  params.seed = 11;
  params.horizon = 512;
  const Instance inst = make_random_batched(params);

  MaterializedSource source(inst);
  DLruEdfPolicy policy;
  const EngineOptions options = section3_options(8);
  Section3Shadow shadow(source, options, Section3Rule::kDLruEdf);
  const EngineResult r = run_with_shadow(source, policy, options, shadow);
  const Section3Report& report = shadow.report();
  EXPECT_EQ(report.dropped_eligible.count + report.dropped_ineligible.count, r.cost.drops);
  EXPECT_GT(report.epochs, 0);
  EXPECT_FALSE(report.violation) << report.violation->describe();
}

TEST(DLruEdf, Lemma31_FewJobsPerColorCostsAtMostOff) {
  // Lemma 3.1: if every color has fewer than Delta jobs, dLRU-EDF never
  // configures anything, and its cost (all drops) is at most OFF's.
  InstanceBuilder builder;
  builder.delta(50);
  for (int c = 0; c < 6; ++c) {
    const ColorId color = builder.add_color(8);
    builder.add_jobs(color, 0, 10);  // 10 < Delta = 50
    builder.add_jobs(color, 8, 5);
  }
  const Instance inst = builder.build();

  const StreamRunRecord r = run_algorithm(inst, "dlru-edf", 8);
  EXPECT_EQ(r.cost.reconfig_cost, 0);
  EXPECT_EQ(r.cost.drops, 90);
  // OFF (m = 1) must pay at least min(Delta, J_l) per color = 15 each.
  const LowerBound lb = offline_lower_bound(inst, 1);
  EXPECT_GE(lb.configure_or_drop, 90);
  EXPECT_LE(r.cost.total(), lb.best());
}

}  // namespace
}  // namespace rrs
