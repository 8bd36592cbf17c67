// Tests for algs/edf: the pure-deadline scheme and its Appendix B failure.
#include <gtest/gtest.h>

#include "core/validator.h"
#include "offline/appendix_off.h"
#include "sim/runner.h"
#include "workload/adversary_edf.h"

namespace rrs {
namespace {

TEST(Edf, SchedulesAreValid) {
  const AdversaryBInstance adv = make_adversary_b({.n = 4});
  Schedule schedule;
  const StreamRunRecord record =
      run_algorithm(adv.instance, "edf", 4, &schedule);
  const CostBreakdown validated = validate_or_throw(adv.instance, schedule);
  EXPECT_EQ(validated, record.cost);
}

TEST(Edf, PrefersEarlierColorDeadlines) {
  // Two eligible colors, one cache slot pair (n = 2): EDF must serve the
  // one whose color deadline is earlier.
  InstanceBuilder builder;
  builder.delta(1);  // every arrival wraps: both colors eligible at once
  const ColorId urgent = builder.add_color(2);
  const ColorId relaxed = builder.add_color(16);
  builder.add_jobs(relaxed, 0, 2);
  builder.add_jobs(urgent, 0, 2);
  const Instance inst = builder.build();

  Schedule schedule;
  const StreamRunRecord r = run_algorithm(inst, "edf", 2, &schedule);
  ASSERT_FALSE(schedule.execs.empty());
  // Round 0 executions are the urgent color's jobs.
  for (const ExecEvent& e : schedule.execs) {
    if (e.round == 0) {
      EXPECT_EQ(inst.jobs()[static_cast<std::size_t>(e.job)].color, urgent);
    }
  }
  // The urgent jobs (deadline 2) must both run; relaxed ones follow later.
  EXPECT_EQ(r.cost.drops, 0);
}

TEST(Edf, IdleEligibleColorsRankLast) {
  // An eligible-but-idle color must not occupy a slot a nonidle color
  // needs.
  InstanceBuilder builder;
  builder.delta(1);
  const ColorId flash = builder.add_color(2);   // eligible then idle
  const ColorId steady = builder.add_color(4);  // continuously busy
  builder.add_jobs(flash, 0, 1);
  for (Round t = 0; t <= 16; t += 4) builder.add_jobs(steady, t, 4);
  const Instance inst = builder.build();

  const StreamRunRecord r = run_algorithm(inst, "edf", 2);
  // Steady work never drops: once flash is idle, steady takes the slot.
  EXPECT_LE(r.cost.drops, 1);
}

TEST(Edf, AppendixB_Thrashes) {
  const AdversaryBInstance adv = make_adversary_b({.n = 4});
  const StreamRunRecord online =
      run_algorithm(adv.instance, "edf", adv.params.n);
  const Schedule off = appendix_b_off_schedule(adv);
  const Cost off_cost = validate_or_throw(adv.instance, off).total();
  // OFF pays exactly (n/2 + 1) * Delta and drops nothing.
  EXPECT_EQ(off_cost, Cost{adv.params.n / 2 + 1} * adv.params.delta);
  // EDF pays strictly more.
  EXPECT_GT(online.cost.total(), off_cost);
}

TEST(Edf, AppendixB_RatioGrowsWithKMinusJ) {
  // The paper's bound: ratio >= 2^{k-j-1} / (n/2 + 1); growing k - j grows
  // the ratio without bound.
  double previous_ratio = 0.0;
  for (int bump = 1; bump <= 3; ++bump) {
    AdversaryBParams params;
    params.n = 4;
    params.delta = params.n + 1;
    params.j = 3;  // 2^3 = 8 > Delta = 5
    params.k = params.j + bump;
    const AdversaryBInstance adv = make_adversary_b(params);

    const StreamRunRecord online = run_algorithm(adv.instance, "edf", params.n);
    const Schedule off = appendix_b_off_schedule(adv);
    const Cost off_cost = validate_or_throw(adv.instance, off).total();
    const double ratio = static_cast<double>(online.cost.total()) /
                         static_cast<double>(off_cost);
    EXPECT_GT(ratio, previous_ratio)
        << "ratio must grow with k - j (bump " << bump << ")";
    previous_ratio = ratio;
  }
}

TEST(Edf, ReconfigurationDominatesOnAppendixB) {
  // The damage EDF takes on Appendix B is thrashing (reconfigurations),
  // not drops.
  const AdversaryBInstance adv = make_adversary_b({.n = 4, .j = 3, .k = 6});
  const StreamRunRecord r = run_algorithm(adv.instance, "edf", adv.params.n);
  EXPECT_GT(r.cost.reconfig_cost, r.cost.drops);
}

}  // namespace
}  // namespace rrs
