// Tests for Seq-EDF / DS-Seq-EDF (EDF run unreplicated, at speed 1 or 2)
// and the Section 3.3 drop chain
//   EligibleDrop(dLRU-EDF) <= Drop(DS-Seq-EDF) <= Drop(Par-EDF).
#include <gtest/gtest.h>

#include "algs/dlru_edf.h"
#include "algs/par_edf.h"
#include "algs/registry.h"
#include "core/validator.h"
#include "workload/random_batched.h"

namespace rrs {
namespace {

TEST(SeqEdf, UsesFullCapacityUnreplicated) {
  // 3 colors, 3 resources: uni-speed Seq-EDF can hold all three at once.
  InstanceBuilder builder;
  builder.delta(1);
  for (int c = 0; c < 3; ++c) {
    builder.add_jobs(builder.add_color(4), 0, 4);
  }
  const Instance inst = builder.build();
  const EngineResult r = find_algorithm("seq-edf").run(inst, 3, false);
  EXPECT_EQ(r.cost.drops, 0);
  EXPECT_EQ(r.cost.reconfig_events, 3);
}

TEST(SeqEdf, RecordedScheduleValidates) {
  RandomBatchedParams params;
  params.seed = 21;
  params.horizon = 128;
  const Instance inst = make_random_batched(params);
  const EngineResult r =
      find_algorithm("seq-edf").run(inst, 4, /*record=*/true);
  EXPECT_EQ(validate_or_throw(inst, r.schedule), r.cost);
}

TEST(DsSeqEdf, DoubleSpeedScheduleValidates) {
  RandomBatchedParams params;
  params.seed = 22;
  params.horizon = 128;
  const Instance inst = make_random_batched(params);
  const EngineResult r =
      find_algorithm("ds-seq-edf").run(inst, 4, /*record=*/true);
  EXPECT_EQ(r.schedule.speed, 2);
  EXPECT_EQ(validate_or_throw(inst, r.schedule), r.cost);
}

TEST(DsSeqEdf, NeverDropsMoreThanUniSpeed) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    RandomBatchedParams params;
    params.seed = seed;
    params.horizon = 256;
    const Instance inst = make_random_batched(params);
    const Cost uni = find_algorithm("seq-edf").run(inst, 4, false).cost.drops;
    const Cost twice =
        find_algorithm("ds-seq-edf").run(inst, 4, false).cost.drops;
    EXPECT_LE(twice, uni) << "seed " << seed;
  }
}

TEST(DropChain, Corollary31_DsSeqEdfAtMostParEdf) {
  // Corollary 3.1: DropCost(DS-Seq-EDF with m) <= DropCost(Par-EDF with m).
  // The paper's analysis runs DS-Seq-EDF with eligibility driven by the
  // full sequence; with Delta = 1 every nonidle color is eligible (each
  // batch wraps the counter instantly), which is exactly that regime, so
  // the inequality is strict scheduling theory and must hold per instance.
  for (const std::uint64_t seed : {11u, 12u, 13u, 14u, 15u, 16u, 17u, 18u}) {
    RandomBatchedParams params;
    params.seed = seed;
    params.delta = 1;
    params.horizon = 256;
    params.num_colors = 12;
    const Instance inst = make_random_batched(params);
    for (const int m : {1, 2, 4}) {
      const Cost ds =
          find_algorithm("ds-seq-edf").run(inst, m, false).cost.drops;
      const std::int64_t par = run_par_edf(inst, m).drops;
      EXPECT_LE(ds, par) << "seed " << seed << " m " << m;
    }
  }
}

TEST(DropChain, Lemma32_EligibleDropsAtMostParEdfOnAlpha) {
  // The Lemma 3.2 chain on the eligible subsequence alpha (sigma minus
  // the jobs dLRU-EDF dropped while their color was ineligible):
  //   EligibleDropCost(dLRU-EDF with n = 8m on sigma)
  //     <= DropCost(DS-Seq-EDF with m on alpha)     [Lemma 3.10]
  //     <= DropCost(Par-EDF with m on alpha)        [Corollary 3.1]
  //     <= DropCost(OFF with m on alpha) <= DropCost(OFF on sigma).
  // With Delta = 1 no job is ever dropped while its color is ineligible
  // (pending jobs imply a wrapped counter), so alpha = sigma and the chain
  // can be checked on sigma directly.
  for (const std::uint64_t seed : {31u, 32u, 33u, 34u, 35u}) {
    RandomBatchedParams params;
    params.seed = seed;
    params.delta = 1;
    params.horizon = 512;
    params.num_colors = 10;
    const Instance inst = make_random_batched(params);

    const int m = 1;
    DLruEdfPolicy policy;
    EngineOptions options;
    options.num_resources = 8 * m;
    options.replication = 2;
    options.record_schedule = false;
    (void)run_policy(inst, policy, options);
    EXPECT_EQ(policy.tracker().ineligible_drops(), 0)
        << "Delta = 1 implies no ineligible drops";

    const Cost ds =
        find_algorithm("ds-seq-edf").run(inst, m, false).cost.drops;
    const std::int64_t par = run_par_edf(inst, m).drops;
    EXPECT_LE(policy.tracker().eligible_drops(), ds) << "seed " << seed;
    EXPECT_LE(ds, par) << "seed " << seed;
  }
}

}  // namespace
}  // namespace rrs
