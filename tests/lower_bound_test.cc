// Tests for offline/lower_bound: certified lower bounds on OPT.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "offline/lower_bound.h"
#include "offline/optimal.h"
#include "util/check.h"
#include "util/rng.h"
#include "workload/random_batched.h"

namespace rrs {
namespace {

TEST(LowerBound, ConfigureOrDropSumsPerColorMinima) {
  InstanceBuilder builder;
  builder.delta(10);
  const ColorId small = builder.add_color(4);   // 3 jobs < Delta
  const ColorId large = builder.add_color(4);   // 25 jobs > Delta
  builder.add_jobs(small, 0, 3);
  builder.add_jobs(large, 0, 4).add_jobs(large, 4, 4);
  builder.add_jobs(large, 8, 4).add_jobs(large, 12, 4);
  builder.add_jobs(large, 16, 4).add_jobs(large, 20, 4);
  builder.add_jobs(large, 24, 1);
  const Instance inst = builder.build();
  const LowerBound lb = offline_lower_bound(inst, 1);
  EXPECT_EQ(lb.configure_or_drop, 3 + 10);
}

TEST(LowerBound, CapacityDetectsOverload) {
  // 10 jobs must finish within 2 rounds on m = 1: at least 8 drop.
  InstanceBuilder builder;
  builder.delta(1);
  const ColorId c = builder.add_color(2);
  builder.add_jobs(c, 0, 10);
  const Instance inst = builder.build();
  const LowerBound lb = offline_lower_bound(inst, 1);
  EXPECT_GE(lb.capacity, 8);
}

TEST(LowerBound, CapacityScalesWithM) {
  InstanceBuilder builder;
  builder.delta(1);
  const ColorId c = builder.add_color(2);
  builder.add_jobs(c, 0, 10);
  const Instance inst = builder.build();
  EXPECT_GT(offline_lower_bound(inst, 1).capacity,
            offline_lower_bound(inst, 4).capacity);
}

TEST(LowerBound, CapacitySumsDisjointWindows) {
  // Two overloaded windows far apart: the per-scale sum must count both.
  InstanceBuilder builder;
  builder.delta(1);
  const ColorId c = builder.add_color(2);
  builder.add_jobs(c, 0, 6);    // 4 forced drops at m = 1
  builder.add_jobs(c, 64, 6);   // 4 more
  const Instance inst = builder.build();
  EXPECT_GE(offline_lower_bound(inst, 1).capacity, 8);
}

TEST(LowerBound, ZeroForEmptyInstance) {
  InstanceBuilder builder;
  builder.add_color(4);
  const Instance inst = builder.build();
  const LowerBound lb = offline_lower_bound(inst, 1);
  EXPECT_EQ(lb.best(), 0);
}

TEST(LowerBound, RejectsBadM) {
  InstanceBuilder builder;
  builder.add_color(4);
  const Instance inst = builder.build();
  EXPECT_THROW((void)offline_lower_bound(inst, 0), InputError);
}

TEST(LowerBound, NeverExceedsExactOptimum) {
  // The defining soundness property, cross-checked against the DP on a
  // grid of small random instances.
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u}) {
    RandomBatchedParams params;
    params.seed = seed;
    params.num_colors = 3;
    params.min_scale = 1;
    params.max_scale = 3;
    params.horizon = 16;
    params.delta = 2;
    const Instance inst = make_random_batched(params);
    for (const int m : {1, 2}) {
      const Cost opt = optimal_offline_cost(inst, m);
      const LowerBound lb = offline_lower_bound(inst, m);
      EXPECT_LE(lb.best(), opt) << "seed " << seed << " m " << m;
    }
  }
}

TEST(LowerBound, BestTakesMax) {
  LowerBound lb;
  lb.configure_or_drop = 5;
  lb.capacity = 9;
  EXPECT_EQ(lb.best(), 9);
  lb.capacity = 2;
  EXPECT_EQ(lb.best(), 5);
  lb.lagrangian = 11;
  EXPECT_EQ(lb.best(), 11);
}

TEST(LowerBound, ConfigureOrDropUsesCheapestIncomingEdgeUnderMatrixDelta) {
  // With a transition matrix, a color's "configure" arm must price at its
  // cheapest incoming edge (including cold), not the scalar Delta.
  InstanceBuilder builder;
  const ColorId a = builder.add_color(4);
  const ColorId b = builder.add_color(4);
  builder.reconfig_cost(a, 7).reconfig_cost(b, 9);
  builder.transition_cost(a, b, 2).transition_cost(b, a, 8);
  builder.add_jobs(a, 0, 3).add_jobs(b, 0, 3);
  const Instance inst = builder.build();
  const LowerBound lb = offline_lower_bound(inst, 2);
  // min_incoming(a) = min(cold 7, b->a 8) = 7 > 3 jobs -> drop arm 3;
  // min_incoming(b) = min(cold 9, a->b 2) = 2 < 3 jobs -> configure arm 2.
  EXPECT_EQ(lb.configure_or_drop, 3 + 2);
}

TEST(LowerBound, CapacityAccountsForJobLengths) {
  // 4 jobs of length 3 demand 12 execution units within a 4-round window
  // on m = 1: at least ceil((12 - 4) / 3) = 3 charges of w_min = 1 drop.
  InstanceBuilder builder;
  builder.delta(1);
  const ColorId c = builder.add_color(4, 1, 3);
  builder.add_jobs(c, 0, 4);
  const Instance inst = builder.build();
  const LowerBound lb = offline_lower_bound(inst, 1);
  EXPECT_GE(lb.capacity, 3);
  EXPECT_LE(lb.best(), optimal_offline_cost(inst, 1));
}

TEST(LowerBound, SoundnessUnderMatrixDeltaAndLengths) {
  // LB soundness on instances mixing matrix transition costs with
  // multi-round job lengths, cross-checked against the DP.
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u}) {
    Rng rng(seed);
    InstanceBuilder builder;
    std::vector<ColorId> ids;
    for (int c = 0; c < 3; ++c) {
      ids.push_back(builder.add_color(3 + rng.uniform(0, 2),
                                      1 + rng.uniform(0, 2),
                                      1 + rng.uniform(0, 2)));
    }
    for (const ColorId c : ids) builder.reconfig_cost(c, 2 + rng.uniform(0, 3));
    for (const ColorId from : ids) {
      for (const ColorId to : ids) {
        if (from != to) {
          builder.transition_cost(from, to, 1 + rng.uniform(0, 4));
        }
      }
    }
    for (int i = 0; i < 4; ++i) {
      builder.add_jobs(ids[static_cast<std::size_t>(rng.uniform(0, 2))],
                       rng.uniform(0, 10), 1 + rng.uniform(0, 2));
    }
    const Instance inst = builder.build();
    for (const int m : {1, 2}) {
      const Cost opt = optimal_offline_cost(inst, m);
      EXPECT_LE(offline_lower_bound(inst, m).best(), opt)
          << "seed " << seed << " m " << m;
      EXPECT_LE(offline_lower_bound_full(inst, m).best(), opt)
          << "seed " << seed << " m " << m;
    }
  }
}

TEST(Lagrangian, DominatesLb1FromFirstIteration) {
  // The lambda = 0 starting point evaluates to exactly LB1, so even a
  // single iteration can never fall below the configure-or-drop bound;
  // zero iterations is invalid input.
  InstanceBuilder builder;
  builder.delta(3);
  const ColorId a = builder.add_color(4);
  const ColorId b = builder.add_color(4);
  builder.add_jobs(a, 0, 4).add_jobs(b, 0, 4);
  const Instance inst = builder.build();
  LagrangianOptions options;
  options.iterations = 0;
  EXPECT_THROW((void)lagrangian_lower_bound(inst, 1, options), InputError);
  options.iterations = 1;
  EXPECT_GE(lagrangian_lower_bound(inst, 1, options),
            offline_lower_bound(inst, 1).configure_or_drop);
}

TEST(Lagrangian, UpperBoundHintDoesNotBreakSoundness) {
  InstanceBuilder builder;
  builder.delta(3);
  const ColorId a = builder.add_color(4);
  const ColorId b = builder.add_color(4);
  builder.add_jobs(a, 0, 4).add_jobs(b, 0, 4);
  const Instance inst = builder.build();
  const Cost opt = optimal_offline_cost(inst, 1);  // == 7
  for (const Cost hint : {Cost{1}, Cost{7}, Cost{100}}) {
    LagrangianOptions options;
    options.upper_bound_hint = hint;
    EXPECT_LE(lagrangian_lower_bound(inst, 1, options), opt)
        << "hint " << hint;
  }
}

TEST(Lagrangian, RespectsOptOnRandomBatched) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    RandomBatchedParams params;
    params.seed = seed;
    params.num_colors = 3;
    params.min_scale = 1;
    params.max_scale = 3;
    params.horizon = 16;
    params.delta = 2;
    const Instance inst = make_random_batched(params);
    for (const int m : {1, 2}) {
      const Cost opt = optimal_offline_cost(inst, m);
      const LowerBound lb = offline_lower_bound_full(inst, m);
      EXPECT_LE(lb.lagrangian, opt) << "seed " << seed << " m " << m;
      EXPECT_GE(lb.lagrangian,
                std::max(lb.configure_or_drop, lb.capacity));
    }
  }
}

TEST(SuffixOracle, AdmissibleAndTightAfterArrivals) {
  InstanceBuilder builder;
  builder.delta(3);
  const ColorId a = builder.add_color(4);
  const ColorId b = builder.add_color(4);
  builder.add_jobs(a, 0, 4).add_jobs(b, 0, 4);
  const Instance inst = builder.build();
  const SuffixBoundOracle oracle(inst, 1);
  const std::vector<ColorId> cache(1, kBlack);

  // Root (empty profile): admissible, never above OPT = 7.
  const offdp::Profile empty;
  EXPECT_LE(oracle.bound(0, cache, empty), optimal_offline_cost(inst, 1));

  // After ingesting the round-0 burst the per-color pending weight is
  // visible, so the configure-or-drop arm prices both colors: h >= 6.
  offdp::Profile profile(static_cast<std::size_t>(inst.num_colors()));
  offdp::add_arrivals(profile, inst.arrivals_in_round(0));
  const Cost h1 = oracle.bound(1, cache, profile);
  EXPECT_GE(h1, 6);
  EXPECT_LE(h1, optimal_offline_cost(inst, 1));

  // Past the horizon only the pending weight itself remains.
  EXPECT_EQ(oracle.bound(inst.horizon(), cache, empty), 0);
}

}  // namespace
}  // namespace rrs
