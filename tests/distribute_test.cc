// Tests for algs/distribute: the batched -> rate-limited reduction as an
// arrival-source adapter, and its map-back sink.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "algs/distribute.h"
#include "core/fault_plan.h"
#include "core/validator.h"
#include "offline/optimal.h"
#include "reference_reductions.h"
#include "sim/runner.h"
#include "test_util.h"
#include "util/check.h"
#include "util/rng.h"
#include "workload/poisson.h"
#include "workload/random_batched.h"

namespace rrs {
namespace {

using testing::expect_same_instance;
using testing::reference_distribute;

/// Batched instance whose bursts exceed the rate limit.
Instance bursty_batched(std::uint64_t seed = 1) {
  RandomBatchedParams params;
  params.seed = seed;
  params.burst_factor = 3.0;  // up to 3 * D_l jobs per batch
  params.horizon = 256;
  params.num_colors = 8;
  return make_random_batched(params);
}

/// materialize() of a DistributeSource over `inst`.
Instance distributed(const Instance& inst) {
  MaterializedSource input(inst);
  DistributeSource source(input);
  return materialize(source);
}

TEST(Distribute, TransformProducesRateLimitedInstance) {
  const Instance inst = bursty_batched();
  ASSERT_TRUE(inst.is_batched());
  ASSERT_FALSE(inst.is_rate_limited());

  const Instance virt = distributed(inst);
  EXPECT_TRUE(virt.is_batched());
  EXPECT_TRUE(virt.is_rate_limited());
  EXPECT_EQ(virt.jobs().size(), inst.jobs().size());
  // C * J colors, where bursts of up to 3 * D_l need J <= 3.
  EXPECT_EQ(virt.num_colors() % inst.num_colors(), 0);
  EXPECT_GT(virt.num_colors(), inst.num_colors());
  EXPECT_LE(virt.num_colors(), 3 * inst.num_colors());
}

TEST(Distribute, VirtualColorsPreserveDelayBounds) {
  const Instance inst = bursty_batched(2);
  MaterializedSource input(inst);
  DistributeSource source(input);
  for (ColorId v = 0; v < source.num_colors(); ++v) {
    const ColorId real = v % inst.num_colors();
    EXPECT_EQ(source.delay_bound(v), inst.delay_bound(real));
    EXPECT_EQ(source.drop_cost(v), inst.drop_cost(real));
    EXPECT_EQ(source.length(v), inst.length(real));
  }
}

TEST(Distribute, JobIdsCorrespondOneToOne) {
  const Instance inst = bursty_batched(3);
  const Instance virt = distributed(inst);
  ASSERT_EQ(virt.jobs().size(), inst.jobs().size());
  for (std::size_t i = 0; i < inst.jobs().size(); ++i) {
    const Job& original = inst.jobs()[i];
    const Job& renamed = virt.jobs()[i];
    EXPECT_EQ(renamed.id, original.id);
    EXPECT_EQ(renamed.arrival, original.arrival);
    EXPECT_EQ(renamed.delay_bound, original.delay_bound);
    EXPECT_EQ(renamed.color % inst.num_colors(), original.color);
  }
}

TEST(Distribute, SplitsBigBatchesAcrossVirtualColors) {
  InstanceBuilder builder;
  builder.delta(2);
  const ColorId c = builder.add_color(4);
  builder.add_jobs(c, 0, 10);  // 10 jobs, D = 4 -> 3 virtual colors
  const Instance inst = builder.build();
  const Instance virt = distributed(inst);
  EXPECT_EQ(virt.num_colors(), 3);
  EXPECT_EQ(virt.jobs_of_color(0), 4);
  EXPECT_EQ(virt.jobs_of_color(1), 4);
  EXPECT_EQ(virt.jobs_of_color(2), 2);

  // Two colors: (l, j) is j * C + l, and an unused (l, j) stays idle.
  InstanceBuilder two;
  const ColorId a = two.add_color(2);
  const ColorId b = two.add_color(4);
  two.add_jobs(a, 0, 5).add_jobs(b, 0, 3);  // J = ceil(5 / 2) = 3
  const Instance split = distributed(two.build());
  ASSERT_EQ(split.num_colors(), 6);
  const std::vector<std::int64_t> per_color = {2, 3, 2, 0, 1, 0};
  for (ColorId v = 0; v < 6; ++v) {
    EXPECT_EQ(split.jobs_of_color(v), per_color[static_cast<std::size_t>(v)])
        << "virtual color " << v;
  }
  // Ranks 0-1 of a -> (a, 0) = 0, 2-3 -> (a, 1) = 2, 4 -> (a, 2) = 4.
  std::vector<ColorId> colors;
  for (const Job& job : split.jobs()) colors.push_back(job.color);
  EXPECT_EQ(colors, (std::vector<ColorId>{0, 0, 2, 2, 4, 1, 1, 1}));
}

TEST(Distribute, RequiresBatchedInput) {
  InstanceBuilder builder;
  const ColorId c = builder.add_color(4);
  builder.add_jobs(c, 1, 1);  // unbatched
  const Instance inst = builder.build();
  MaterializedSource input(inst);
  DistributeSource source(input);
  (void)source.arrivals_in_round(0);
  try {
    (void)source.arrivals_in_round(1);
    ADD_FAILURE() << "an arrival off its block start must throw";
  } catch (const InputError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("color 0"), std::string::npos) << what;
    EXPECT_NE(what.find("round 1"), std::string::npos) << what;
  }
  EXPECT_THROW((void)run_algorithm(inst, "distribute", 8), InputError);
}

TEST(Distribute, MapBackElidesSiblingReconfigs) {
  // A hand-fed virtual run that flips one location between two virtual
  // colors of the same real color: the mapped run keeps only the first
  // recoloring.
  InstanceBuilder builder;
  builder.delta(1);
  const ColorId c = builder.add_color(2);
  builder.add_jobs(c, 0, 4);  // virtual colors (c, 0), (c, 1)
  const Instance inst = builder.build();
  MaterializedSource input(inst);
  DistributeSource source(input);
  ASSERT_EQ(source.num_colors(), 2);

  const std::vector<ColorId> global = {0, 1};
  MapBackSink sink(inst.cost_model(), global);
  sink.record(1, 1);
  sink.on_reconfig({0, 0, 0, kBlack, 0, 1});
  sink.on_exec({.round = 0, .job = 0, .color = 0, .configured = 0});
  sink.on_reconfig({1, 0, 0, 0, 1, 1});
  sink.on_exec({.round = 1, .job = 2, .color = 1, .configured = 1});
  EXPECT_EQ(sink.cost.reconfig_events, 1);
  EXPECT_EQ(sink.cost.reconfig_cost, 1);

  const Schedule mapped = sink.take_schedule();
  ASSERT_EQ(mapped.reconfigs.size(), 1u);
  EXPECT_EQ(mapped.reconfigs[0].color, c);
  ASSERT_EQ(mapped.execs.size(), 2u);
  EXPECT_EQ(mapped.execs[1].job, 2);
  EXPECT_TRUE(validate(inst, mapped).ok);
}

TEST(Distribute, EndToEndScheduleValidAndCostAtMostVirtual) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    const Instance inst = bursty_batched(seed);
    Schedule schedule;
    const StreamRunRecord mapped =
        run_algorithm(inst, "distribute", 8, &schedule);
    EXPECT_EQ(validate_or_throw(inst, schedule), mapped.cost);

    // The virtual run: dLRU-EDF over the adapter, without the sink.
    MaterializedSource input(inst);
    DistributeSource source(input);
    const StreamRunRecord virt = run_streaming(source, "dlru-edf", 8);
    // Lemma 4.2: mapping back never increases cost.
    EXPECT_LE(mapped.cost.total(), virt.cost.total()) << "seed " << seed;
    EXPECT_EQ(mapped.cost.drops, virt.cost.drops);
    // Executions are preserved exactly.
    EXPECT_EQ(mapped.executed, virt.executed);
    EXPECT_EQ(static_cast<std::int64_t>(schedule.execs.size()),
              mapped.executed);
  }
}

TEST(Distribute, MatrixPricesMapBackExactly) {
  // Warm transitions cheaper than cold re-images: the virtual copies carry
  // their real colors' prices, and the sink prices each kept recoloring by
  // its real endpoints, so the mapped schedule validates at the record's
  // cost, for Distribute and for the VarBatch pipeline.
  Rng rng(11);
  InstanceBuilder builder;
  builder.delta(6);
  for (ColorId c = 0; c < 4; ++c) builder.add_color(Round{2} << (c % 3));
  for (ColorId to = 0; to < 4; ++to) {
    builder.reconfig_cost(to, 4 + to);
    for (ColorId from = 0; from < 4; ++from) {
      if (from != to) builder.transition_cost(from, to, 1 + (from + to) % 3);
    }
  }
  for (Round t = 0; t < 256; t += 2) {
    for (ColorId c = 0; c < 4; ++c) {
      const Round d = Round{2} << (c % 3);
      if (t % d == 0 && rng.bernoulli(0.6)) {
        builder.add_jobs(c, t, rng.uniform(1, 3 * d));
      }
    }
  }
  const Instance inst = builder.build();
  ASSERT_EQ(inst.cost_model().tier(), CostModel::Tier::kMatrix);
  ASSERT_FALSE(inst.is_rate_limited());
  for (const char* const name : {"distribute", "varbatch"}) {
    Schedule schedule;
    const StreamRunRecord mapped = run_algorithm(inst, name, 8, &schedule);
    EXPECT_EQ(validate_or_throw(inst, schedule), mapped.cost) << name;
  }
  MaterializedSource input(inst);
  DistributeSource split(input);
  EXPECT_LE(run_algorithm(inst, "distribute", 8).cost.total(),
            run_streaming(split, "dlru-edf", 8).cost.total());
}

TEST(Distribute, Lemma41_VirtualInstanceAdmitsCheapOfflineSchedule) {
  // Lemma 4.1 (proved via the Aggregate construction with 3x resources):
  // any offline schedule T for I yields an offline schedule T' for I'
  // that is resource competitive with T.  Checked exactly on tiny bursty
  // instances with the DP:  OPT_{I'}(3m) <= K * OPT_I(m)  at m = 1.
  Rng rng(55);
  for (int trial = 0; trial < 6; ++trial) {
    InstanceBuilder builder;
    builder.delta(2);
    const ColorId a = builder.add_color(2);
    const ColorId b = builder.add_color(4);
    for (Round t = 0; t < 12; t += 2) {
      if (rng.bernoulli(0.6)) builder.add_jobs(a, t, rng.uniform(1, 5));
      if (t % 4 == 0 && rng.bernoulli(0.6)) {
        builder.add_jobs(b, t, rng.uniform(1, 9));
      }
    }
    const Instance instance = builder.build();
    if (instance.jobs().empty()) continue;
    const Instance virtual_instance = distributed(instance);

    const Cost opt_original = optimal_offline_cost(instance, 1);
    const Cost opt_virtual = optimal_offline_cost(virtual_instance, 3);
    EXPECT_LE(opt_virtual, 8 * std::max<Cost>(1, opt_original))
        << "trial " << trial;
  }
}

TEST(Distribute, RateLimitedInputPassesThroughUnchanged) {
  RandomBatchedParams params;
  params.seed = 9;
  params.burst_factor = 1.0;
  params.horizon = 128;
  const Instance inst = make_random_batched(params);
  ASSERT_TRUE(inst.is_rate_limited());
  // J = 1: the adapter is the identity.
  expect_same_instance(distributed(inst), inst, "rate-limited");
}

TEST(Distribute, AdapterMatchesReferenceTransform) {
  std::vector<std::pair<std::string, Instance>> cases;
  for (const double burst : {1.0, 2.0, 4.0, 8.0}) {  // E4's instances
    RandomBatchedParams params;
    params.seed = 7;
    params.delta = 8;
    params.num_colors = 12;
    params.horizon = 2048;
    params.burst_factor = burst;
    cases.emplace_back("e4 burst " + std::to_string(burst),
                       make_random_batched(params));
  }
  {
    RandomBatchedParams params;  // A3's batched instance
    params.seed = 31;
    params.delta = 8;
    params.num_colors = 16;
    params.horizon = 2048;
    cases.emplace_back("a3", make_random_batched(params));
  }
  Rng rng(2024);
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    RandomBatchedParams params;
    params.seed = seed;
    params.num_colors = static_cast<int>(rng.uniform(1, 20));
    params.min_scale = 0;
    params.max_scale = 5;
    params.horizon = 300;
    params.burst_factor = 0.5 + 0.5 * static_cast<double>(seed);
    params.max_drop_cost = 3;
    cases.emplace_back("random seed " + std::to_string(seed),
                       make_random_batched(params));
  }
  for (const auto& [label, inst] : cases) {
    expect_same_instance(distributed(inst), reference_distribute(inst),
                         label);
  }
}

TEST(Distribute, IdentityOnRateLimitedStreamsAndInstances) {
  // J = 1, so Distribute is dLRU-EDF bit for bit: every RunCounters field
  // and the policy stats, as a stream and materialized.
  for (const std::uint64_t seed : {1u, 2u, 3u, 99u}) {
    RandomBatchedParams params;
    params.seed = seed;
    params.num_colors = 24;
    params.horizon = 4096;
    params.max_drop_cost = 3;
    RandomBatchedSource a(params);
    RandomBatchedSource b(params);
    const std::string label = "seed " + std::to_string(seed);
    testing::expect_same_run(run_streaming(a, "distribute", 8),
                             run_streaming(b, "dlru-edf", 8), label);

    const Instance inst = make_random_batched(params);
    testing::expect_same_run(run_algorithm(inst, "distribute", 8),
                             run_algorithm(inst, "dlru-edf", 8), label);
  }
}

TEST(Distribute, MapsChargedChurnBack) {
  // The sink re-prices every charged repair through the real colors.  At
  // J = 1 that is the engine's own price, so Distribute stays dLRU-EDF bit
  // for bit under churn, serially and on two shards; with bursts, Lemma
  // 4.2 still bounds the mapped cost by the virtual one.
  MtbfParams mtbf;
  mtbf.num_resources = 16;
  mtbf.horizon = 4096;
  mtbf.mean_up = 300;
  mtbf.mean_down = 40;
  mtbf.seed = 3;
  const FaultPlan plan = make_mtbf_plan(mtbf);
  ShardedRunOptions options;
  options.fault_plan = &plan;
  options.charge_repair = true;
  RandomBatchedParams params;
  params.seed = 5;
  params.num_colors = 16;
  params.horizon = 4096;
  for (const int shards : {1, 2}) {
    RandomBatchedSource a(params);
    RandomBatchedSource b(params);
    const StreamRunRecord mapped =
        run_streaming_sharded(a, "distribute", 16, shards, kInfiniteHorizon,
                              options)
            .merged;
    EXPECT_GT(mapped.cost.churn_reconfigs, 0);
    testing::expect_same_run(
        mapped,
        run_streaming_sharded(b, "dlru-edf", 16, shards, kInfiniteHorizon,
                              options)
            .merged,
        "K=" + std::to_string(shards));
  }
  params.burst_factor = 3.0;
  RandomBatchedSource bursty(params);
  const StreamRunRecord mapped =
      run_streaming(bursty, "distribute", 16, kInfiniteHorizon, &plan, true);
  RandomBatchedSource input(params);
  DistributeSource split(input);
  const StreamRunRecord virt =
      run_streaming(split, "dlru-edf", 16, kInfiniteHorizon, &plan, true);
  EXPECT_EQ(mapped.cost.churn_reconfigs, virt.cost.churn_reconfigs);
  EXPECT_LE(mapped.cost.total(), virt.cost.total());
}

TEST(Distribute, RejectsSourcesWithoutBatchBound) {
  PoissonParams params;
  params.horizon = 64;
  PoissonSource poisson(params);
  try {
    DistributeSource source(poisson);
    ADD_FAILURE() << "a source without a batch bound must be rejected";
  } catch (const InputError& e) {
    EXPECT_NE(std::string(e.what()).find("color 0"), std::string::npos)
        << e.what();
  }
}

/// One color (D = 2) whose source claims batches of at most 2 but sends 3.
class OverfullSource final : public ArrivalSource {
 public:
  [[nodiscard]] Cost delta() const override { return 1; }
  [[nodiscard]] ColorId num_colors() const override { return 1; }
  [[nodiscard]] Round delay_bound(ColorId) const override { return 2; }
  [[nodiscard]] Cost drop_cost(ColorId) const override { return 1; }
  [[nodiscard]] std::int64_t batch_bound(ColorId) const override {
    return 2;
  }
  [[nodiscard]] Round horizon() const override { return 4; }
  [[nodiscard]] std::span<const Job> arrivals_in_round(Round k) override {
    jobs_.clear();
    if (k == 2) {
      for (JobId id = 0; id < 3; ++id) jobs_.push_back({id, 0, k, 2});
    }
    return jobs_;
  }

 private:
  std::vector<Job> jobs_;
};

TEST(Distribute, BatchBeyondItsBoundThrows) {
  OverfullSource input;
  DistributeSource source(input);
  EXPECT_EQ(source.num_colors(), 1);
  (void)source.arrivals_in_round(0);
  (void)source.arrivals_in_round(1);
  try {
    (void)source.arrivals_in_round(2);
    ADD_FAILURE() << "a batch beyond its bound must throw";
  } catch (const InputError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("color 0"), std::string::npos) << what;
    EXPECT_NE(what.find("round 2"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace rrs
