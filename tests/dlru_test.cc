// Tests for algs/dlru: the pure-recency scheme and its Appendix A failure.
#include <gtest/gtest.h>

#include "algs/registry.h"
#include "core/validator.h"
#include "offline/appendix_off.h"
#include "sim/runner.h"
#include "workload/adversary_dlru.h"

namespace rrs {
namespace {

TEST(DLru, SchedulesAreValid) {
  const AdversaryAInstance adv = make_adversary_a({.n = 4, .delta = 2});
  Schedule schedule;
  const StreamRunRecord record =
      run_algorithm(adv.instance, "dlru", 4, &schedule);
  const CostBreakdown validated = validate_or_throw(adv.instance, schedule);
  EXPECT_EQ(validated, record.cost);
}

TEST(DLru, IneligibleColorsNeverCached) {
  // A single color with fewer than Delta jobs never becomes eligible and
  // is never cached: everything drops, nothing is reconfigured.
  InstanceBuilder builder;
  builder.delta(10);
  const ColorId c = builder.add_color(4);
  builder.add_jobs(c, 0, 3);
  const Instance inst = builder.build();

  const EngineResult r = find_algorithm("dlru").run(inst, 4, false);
  EXPECT_EQ(r.cost.reconfig_cost, 0);
  EXPECT_EQ(r.cost.drops, 3);
}

TEST(DLru, ServesSteadySingleColor) {
  // Delta 2, one color, steady batches: the round-0 batch wraps the
  // counter immediately, the color is cached the same round, and the
  // replicated pair clears each 4-job batch within its block.
  InstanceBuilder builder;
  builder.delta(2);
  const ColorId c = builder.add_color(4);
  for (Round t = 0; t <= 32; t += 4) builder.add_jobs(c, t, 4);
  const Instance inst = builder.build();

  const EngineResult r = find_algorithm("dlru").run(inst, 4, false);
  EXPECT_EQ(r.cost.drops, 0);
  EXPECT_EQ(r.cost.reconfig_events, 2);  // cached once, in two locations
}

TEST(DLru, AppendixA_DropsLongTermBacklog) {
  const AdversaryAInstance adv = make_adversary_a({.n = 8, .delta = 2});
  const EngineResult r =
      find_algorithm("dlru").run(adv.instance, adv.params.n, false);

  // dLRU keeps the n/2 short-term colors cached (their timestamps are
  // always at least as recent) and never serves the long-term color: all
  // 2^k long-term jobs drop.
  const Round long_jobs = Round{1} << adv.params.k;
  EXPECT_GE(r.cost.drops, long_jobs);
  // Reconfiguration cost stays bounded: each short color cached once.
  EXPECT_LE(r.cost.reconfig_cost,
            Cost{adv.params.n} * adv.instance.delta());
}

TEST(DLru, AppendixA_RatioGrowsWithJ) {
  // The paper's lower bound is Omega(2^{j+1} / (n Delta)): with k = j + 2
  // fixed relative to j, growing j grows dLRU's ratio against the explicit
  // OFF schedule without bound.
  double previous_ratio = 0.0;
  for (int j = 4; j <= 6; ++j) {
    AdversaryAParams params;
    params.n = 4;
    params.delta = 2;
    params.j = j;
    params.k = j + 2;
    const AdversaryAInstance adv = make_adversary_a(params);

    const EngineResult online =
        find_algorithm("dlru").run(adv.instance, params.n, false);
    const Schedule off = appendix_a_off_schedule(adv);
    const Cost off_cost = validate_or_throw(adv.instance, off).total();
    const double ratio = static_cast<double>(online.cost.total()) /
                         static_cast<double>(off_cost);
    EXPECT_GT(ratio, previous_ratio);
    previous_ratio = ratio;
  }
  EXPECT_GT(previous_ratio, 2.0) << "ratio must keep growing";
}

TEST(DLru, StatsExposeEpochCounters) {
  const AdversaryAInstance adv = make_adversary_a({.n = 4, .delta = 2});
  const StreamRunRecord record = run_algorithm(adv.instance, "dlru", 4);
  bool saw_epochs = false;
  for (const auto& [key, value] : record.stats) {
    if (key == "epochs") {
      saw_epochs = true;
      EXPECT_GT(value, 0);
    }
  }
  EXPECT_TRUE(saw_epochs);
}

}  // namespace
}  // namespace rrs
