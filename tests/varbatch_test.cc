// Tests for algs/varbatch: the general -> batched reduction (Theorem 3)
// and its Section 5.3 extension to arbitrary delay bounds, as an
// arrival-source adapter.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "algs/distribute.h"
#include "algs/varbatch.h"
#include "core/validator.h"
#include "offline/optimal.h"
#include "reference_reductions.h"
#include "sim/runner.h"
#include "util/check.h"
#include "util/rng.h"
#include "workload/poisson.h"
#include "workload/random_batched.h"

namespace rrs {
namespace {

using testing::expect_same_instance;
using testing::reference_distribute;
using testing::reference_varbatch;

/// materialize() of a VarBatchSource over `inst`, for its horizon (which
/// covers every release: each delayed deadline is within the original).
Instance delayed(const Instance& inst) {
  MaterializedSource input(inst);
  VarBatchSource source(input);
  return materialize(source, inst.horizon());
}

/// Each color's jobs of `inst`, in order.
std::vector<std::vector<Job>> by_color(const Instance& inst) {
  std::vector<std::vector<Job>> out(
      static_cast<std::size_t>(inst.num_colors()));
  for (const Job& job : inst.jobs()) {
    out[static_cast<std::size_t>(job.color)].push_back(job);
  }
  return out;
}

TEST(VarBatch, EffectiveDelayRule) {
  EXPECT_EQ(varbatch_effective_delay(1), 1);
  EXPECT_EQ(varbatch_effective_delay(2), 1);   // p/2
  EXPECT_EQ(varbatch_effective_delay(4), 2);   // p/2
  EXPECT_EQ(varbatch_effective_delay(64), 32);
  // Section 5.3: arbitrary p uses floor_pow2(p) / 2.
  EXPECT_EQ(varbatch_effective_delay(3), 1);
  EXPECT_EQ(varbatch_effective_delay(5), 2);
  EXPECT_EQ(varbatch_effective_delay(100), 32);
  EXPECT_THROW((void)varbatch_effective_delay(0), InputError);
}

TEST(VarBatch, TransformProducesBatchedInstance) {
  PoissonParams params;
  params.seed = 1;
  params.horizon = 256;
  const Instance inst = make_poisson(params);
  ASSERT_FALSE(inst.is_batched());

  const Instance batched = delayed(inst);
  EXPECT_TRUE(batched.is_batched());
  EXPECT_EQ(batched.jobs().size(), inst.jobs().size());
  EXPECT_EQ(batched.num_colors(), inst.num_colors());
}

TEST(VarBatch, DelayedWindowsNestInsideRealWindows) {
  PoissonParams params;
  params.seed = 2;
  params.horizon = 128;
  const Instance inst = make_poisson(params);
  // A color's k-th released job is its k-th original job.
  const auto original = by_color(inst);
  const auto released = by_color(delayed(inst));
  for (std::size_t c = 0; c < original.size(); ++c) {
    ASSERT_EQ(released[c].size(), original[c].size()) << "color " << c;
    for (std::size_t k = 0; k < original[c].size(); ++k) {
      EXPECT_GE(released[c][k].arrival, original[c][k].arrival);
      EXPECT_LE(released[c][k].deadline(), original[c][k].deadline());
    }
  }
}

TEST(VarBatch, JobMappingIsAPermutation) {
  // Every job is released exactly once, at the start of the half-block
  // after its arrival, and each color keeps its order.
  PoissonParams params;
  params.seed = 3;
  params.horizon = 64;
  const Instance inst = make_poisson(params);
  const auto original = by_color(inst);
  const auto released = by_color(delayed(inst));
  for (std::size_t c = 0; c < original.size(); ++c) {
    ASSERT_EQ(released[c].size(), original[c].size()) << "color " << c;
    for (std::size_t k = 0; k < original[c].size(); ++k) {
      const Job& job = original[c][k];
      const Round e = varbatch_effective_delay(job.delay_bound);
      const Round release =
          job.delay_bound == 1 ? job.arrival : (job.arrival / e + 1) * e;
      EXPECT_EQ(released[c][k].arrival, release) << "color " << c;
    }
  }
}

TEST(VarBatch, DelayOneColorsPassThrough) {
  InstanceBuilder builder;
  builder.delta(1);
  const ColorId c = builder.add_color(1);
  builder.add_jobs(c, 3, 2);
  const Instance inst = builder.build();
  const Instance batched = delayed(inst);
  EXPECT_EQ(batched.delay_bound(c), 1);
  EXPECT_EQ(batched.jobs()[0].arrival, 3);
}

TEST(VarBatch, HalfBlockDelayIsExact) {
  InstanceBuilder builder;
  builder.delta(1);
  const ColorId c = builder.add_color(8);  // e = 4
  builder.add_jobs(c, 0, 1);   // halfBlock 0 -> arrival 4
  builder.add_jobs(c, 3, 1);   // halfBlock 0 -> arrival 4
  builder.add_jobs(c, 4, 1);   // halfBlock 1 -> arrival 8
  builder.add_jobs(c, 7, 1);   // halfBlock 1 -> arrival 8
  builder.add_jobs(c, 8, 1);   // halfBlock 2 -> arrival 12
  const Instance inst = builder.build();
  const Instance batched = delayed(inst);
  std::vector<Round> arrivals;
  for (const Job& job : batched.jobs()) arrivals.push_back(job.arrival);
  EXPECT_EQ(arrivals, (std::vector<Round>{4, 4, 8, 8, 12}));
  EXPECT_EQ(batched.delay_bound(c), 4);
}

TEST(VarBatch, EndToEndScheduleValidOnPow2Delays) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    PoissonParams params;
    params.seed = seed;
    params.horizon = 256;
    const Instance inst = make_poisson(params);
    Schedule schedule;
    const StreamRunRecord r = run_algorithm(inst, "varbatch", 8, &schedule);
    const CostBreakdown cost = validate_or_throw(inst, schedule);
    EXPECT_EQ(cost, r.cost) << "seed " << seed;
  }
}

TEST(VarBatch, EndToEndScheduleValidOnArbitraryDelays) {
  for (const std::uint64_t seed : {4u, 5u, 6u}) {
    PoissonParams params;
    params.seed = seed;
    params.horizon = 256;
    params.arbitrary_delays = true;  // Section 5.3 regime
    params.min_delay = 3;
    params.max_delay = 100;
    const Instance inst = make_poisson(params);
    ASSERT_FALSE(inst.all_delays_pow2());
    Schedule schedule;
    const StreamRunRecord r = run_algorithm(inst, "varbatch", 8, &schedule);
    const CostBreakdown cost = validate_or_throw(inst, schedule);
    EXPECT_EQ(cost, r.cost) << "seed " << seed;
  }
}

TEST(VarBatch, Lemma53_TransformPreservesOfflineCostUnderAugmentation) {
  // Lemma 5.3's consequence, checked exactly on tiny instances: for any
  // offline schedule S for sigma (m resources), a PUNCTUAL schedule with
  // O(m) resources and O(cost(S)) cost exists — equivalently, the
  // transformed instance sigma' admits an offline schedule with constant
  // augmentation and constant cost blow-up:
  //     OPT_{sigma'}(7m)  <=  K * OPT_sigma(m).
  // We verify with the exact DP at m = 1 and a generous K.
  Rng rng(77);
  for (int trial = 0; trial < 6; ++trial) {
    InstanceBuilder builder;
    builder.delta(2);
    const ColorId a = builder.add_color(4);
    const ColorId b = builder.add_color(8);
    for (int j = 0; j < 6; ++j) {
      builder.add_jobs(rng.bernoulli(0.5) ? a : b, rng.uniform(0, 11), 1);
    }
    const Instance sigma = builder.build();
    const Instance sigma_prime = delayed(sigma);

    const Cost opt_original = optimal_offline_cost(sigma, 1);
    const Cost opt_transformed = optimal_offline_cost(sigma_prime, 7);
    EXPECT_LE(opt_transformed, 12 * std::max<Cost>(1, opt_original))
        << "trial " << trial;
  }
}

TEST(VarBatch, ServesServableSteadyLoad) {
  // A single steady color well within capacity: after the reduction the
  // system should execute the vast majority of jobs.
  InstanceBuilder builder;
  builder.delta(2);
  const ColorId c = builder.add_color(16);
  for (Round t = 0; t < 512; t += 2) builder.add_jobs(c, t, 1);
  const Instance inst = builder.build();
  const StreamRunRecord r = run_algorithm(inst, "varbatch", 8);
  const auto total = static_cast<Cost>(inst.jobs().size());
  EXPECT_LT(r.cost.drops, total / 8) << "steady load should mostly be served";
}

TEST(VarBatch, AdaptersMatchReferenceTransforms) {
  std::vector<std::pair<std::string, Instance>> cases;
  for (const bool arbitrary : {false, true}) {  // E5's six instances
    for (const double rate : {0.05, 0.15, 0.4}) {
      PoissonParams params;
      params.seed = 13;
      params.delta = 8;
      params.num_colors = 12;
      params.horizon = 2048;
      params.mean_rate = rate;
      params.arbitrary_delays = arbitrary;
      if (arbitrary) {
        params.min_delay = 3;
        params.max_delay = 150;
      }
      cases.emplace_back("e5 rate " + std::to_string(rate) +
                             (arbitrary ? " arbitrary" : " pow2"),
                         make_poisson(params));
    }
  }
  {
    PoissonParams params;  // A3's unbatched instance
    params.seed = 31;
    params.delta = 8;
    params.num_colors = 16;
    params.horizon = 2048;
    params.mean_rate = 0.2;
    cases.emplace_back("a3 poisson", make_poisson(params));
  }
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    PoissonParams poisson;
    poisson.seed = seed;
    poisson.horizon = 300;
    poisson.arbitrary_delays = seed % 2 == 0;
    poisson.min_delay = 1;
    poisson.max_delay = 40;
    cases.emplace_back("poisson seed " + std::to_string(seed),
                       make_poisson(poisson));
    RandomBatchedParams batched;
    batched.seed = seed;
    batched.min_scale = 0;
    batched.horizon = 300;
    batched.burst_factor = static_cast<double>(seed);
    cases.emplace_back("batched seed " + std::to_string(seed),
                       make_random_batched(batched));
  }
  for (const auto& [label, inst] : cases) {
    const Instance want = reference_varbatch(inst);
    expect_same_instance(delayed(inst), want, label);

    // The stacked pipeline relabels the delayed jobs as Distribute does.
    // Its J comes from VarBatch's batch bound, which may exceed what the
    // delayed jobs need, so only the jobs must agree.
    MaterializedSource input(inst);
    VarBatchSource varbatch(input);
    DistributeSource distribute(varbatch);
    const Instance got = materialize(distribute, inst.horizon());
    const Instance reference = reference_distribute(want);
    EXPECT_GE(got.num_colors(), reference.num_colors()) << label;
    EXPECT_EQ(got.jobs(), reference.jobs()) << label;
  }
}

TEST(VarBatch, ReleasesHeldJobsPastAFiniteHorizon) {
  // A finite stream's last half-blocks are released after its horizon:
  // every job arrives exactly once.
  PoissonParams params;
  params.seed = 8;
  params.horizon = 200;
  params.mean_rate = 0.5;
  PoissonSource stream(params);
  VarBatchSource source(stream);
  EXPECT_GT(source.horizon(), params.horizon);
  const Instance released = materialize(source);
  const Instance original = make_poisson(params);
  EXPECT_EQ(released.jobs().size(), original.jobs().size());
  const auto want = by_color(original);
  const auto got = by_color(released);
  for (std::size_t c = 0; c < want.size(); ++c) {
    EXPECT_EQ(got[c].size(), want[c].size()) << "color " << c;
  }
}

}  // namespace
}  // namespace rrs
