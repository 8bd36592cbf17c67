// Long-horizon closure cases for the branch-and-bound solver.  These run
// minutes-scale search budgets and carry the ctest label "exact": the
// regular tier-1 jobs exclude them (-LE exact) and a scheduled job runs
// them with an explicit --timeout.
#include <gtest/gtest.h>

#include <cstdint>

#include "core/validator.h"
#include "offline/exact_bnb.h"
#include "offline/greedy_offline.h"
#include "offline/optimal.h"
#include "workload/random_batched.h"

namespace rrs {
namespace {

BnbOptions long_budget() {
  BnbOptions options;
  options.max_nodes = 5'000'000;
  return options;
}

TEST(ExactBnbLong, ClosesMidScaleRandomBatched) {
  // Mid-scale: beyond what the differential harness uses, still closable.
  for (const std::uint64_t seed : {2u, 5u}) {
    RandomBatchedParams params;
    params.seed = seed;
    params.num_colors = 6;
    params.min_scale = 1;
    params.max_scale = 3;
    params.horizon = 40;
    params.delta = 2;
    const Instance inst = make_random_batched(params);
    const BnbResult bnb = exact_offline_bnb(inst, 2, long_budget());
    ASSERT_TRUE(bnb.closed) << "seed " << seed << " interval ["
                            << bnb.best_bound << ", " << bnb.incumbent
                            << "]";
    const Cost dp = optimal_offline_cost(inst, 2);
    EXPECT_EQ(bnb.incumbent, dp) << "seed " << seed;
    ASSERT_TRUE(bnb.has_witness);
    EXPECT_EQ(validate_or_throw(inst, bnb.schedule).total(), bnb.incumbent);
  }
}

TEST(ExactBnbLong, ClosesWideMachineCountMatrixTier) {
  // m = 9 with a genuine (non-uniform) transition matrix: untouchable by
  // the DP's bitmask bijection, certified exactly by the Hungarian-
  // assignment search.  Arrivals are staggered so the per-node candidate
  // set stays narrow enough for closure.
  InstanceBuilder builder;
  std::vector<ColorId> ids;
  for (int c = 0; c < 10; ++c) {
    ids.push_back(builder.add_color(3, 1 + c % 3));
  }
  for (const ColorId c : ids) builder.reconfig_cost(c, 1 + c % 2);
  for (const ColorId from : ids) {
    for (const ColorId to : ids) {
      if (from != to) {
        builder.transition_cost(from, to, 1 + (from * 7 + to * 3) % 5);
      }
    }
  }
  for (const ColorId c : ids) builder.add_jobs(c, (c * 2) % 6, 2);
  const Instance inst = builder.build();
  const BnbResult bnb = exact_offline_bnb(inst, 9, long_budget());
  ASSERT_TRUE(bnb.closed) << "interval [" << bnb.best_bound << ", "
                          << bnb.incumbent << "]";
  EXPECT_LE(bnb.incumbent, best_offline_heuristic_cost(inst, 9));
  ASSERT_TRUE(bnb.has_witness);
  EXPECT_EQ(validate_or_throw(inst, bnb.schedule).total(), bnb.incumbent);
}

TEST(ExactBnbLong, TightensGreedyGapOnAdversarialBurst) {
  // A bursty workload where demand-greedy is measurably suboptimal: the
  // certificate must land strictly below the greedy cost.
  InstanceBuilder builder;
  builder.delta(4);
  const ColorId a = builder.add_color(6, 2);
  const ColorId b = builder.add_color(6, 2);
  const ColorId c = builder.add_color(3, 1);
  for (Round t = 0; t < 24; t += 8) {
    builder.add_jobs(a, t, 3).add_jobs(b, t + 2, 3).add_jobs(c, t + 4, 2);
  }
  const Instance inst = builder.build();
  const Cost greedy = best_offline_heuristic_cost(inst, 2);
  const BnbResult bnb = exact_offline_bnb(inst, 2, long_budget());
  ASSERT_TRUE(bnb.closed);
  EXPECT_LE(bnb.incumbent, greedy);
  const Cost dp = optimal_offline_cost(inst, 2);
  EXPECT_EQ(bnb.incumbent, dp);
}

}  // namespace
}  // namespace rrs
