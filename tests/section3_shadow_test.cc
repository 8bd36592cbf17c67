// Section3Shadow against the ranked policies: every engine run it shadows
// must follow the paper's rule phase by phase and keep the replication
// invariant, and inside Theorem 1's model Lemmas 3.3, 3.4 and 3.15 must
// hold at every check.  The matrix covers the streaming matrix's
// algorithms, families and seeds (plus Poisson input with arbitrary delay
// bounds) with fast-forward on and off and under an MTBF fault plan, each
// shard's relabeled sub-workload of a K = 2 split, and dLRU-EDF over the
// Distribute and VarBatch adapters.  Hand-fed event streams pin what the shadow reports when a check
// fails.
#include <gtest/gtest.h>

#include <iterator>
#include <memory>
#include <string>
#include <tuple>

#include "algs/dlru_edf.h"
#include "algs/registry.h"
#include "algs/section3_shadow.h"
#include "core/engine.h"
#include "core/fault_plan.h"
#include "sim/runner.h"
#include "test_util.h"
#include "workload/sharded_source.h"

namespace rrs {
namespace {

using testing::kFamilies;
using testing::kStreamingAlgorithms;
using testing::make_source;

/// The rule the registered algorithm `name` follows; the adaptive split
/// follows none.
Section3Rule rule_of(const std::string& name) {
  if (name == "dlru") return Section3Rule::kDLru;
  if (name == "dlru-edf") return Section3Rule::kDLruEdf;
  if (name == "edf" || name == "seq-edf" || name == "ds-seq-edf") {
    return Section3Rule::kEdf;
  }
  return Section3Rule::kNone;
}

/// Runs `name` with `n` resources over `source` as the streaming runner's
/// engines do (drained, no recording), with a shadow attached, and checks
/// the shadow found nothing.  Returns its report.
Section3Report expect_shadow_agrees(ArrivalSource& source,
                                    const std::string& name, int n,
                                    bool fast_forward,
                                    const FaultPlan* plan,
                                    const std::string& label) {
  EngineOptions options;
  const std::unique_ptr<Policy> policy = make_stream_policy(name, options);
  options.num_resources = n;
  options.record_schedule = false;
  options.max_rounds = source.horizon();
  options.drain_pending = true;
  options.fast_forward = fast_forward;
  options.fault_plan = plan;
  Section3Shadow shadow(source, options, rule_of(name));
  const EngineResult r = run_with_shadow(source, *policy, options, shadow);
  const Section3Report& report = shadow.report();
  EXPECT_FALSE(report.violation)
      << label << ": " << report.violation->describe();
  EXPECT_GT(report.phases_checked, 0) << label;
  EXPECT_EQ(report.reconfig_cost, r.cost.reconfig_cost) << label;
  EXPECT_EQ(report.dropped_eligible.weight + report.dropped_ineligible.weight,
            r.cost.drops)
      << label;
  return report;
}

/// The streaming families plus Poisson input with arbitrary delay bounds:
/// there the EDF order of colors with different bounds depends on their
/// deadlines, not only on the bounds, as it does when bounds nest.
std::unique_ptr<ArrivalSource> shadow_source(const std::string& family,
                                             std::uint64_t seed) {
  if (family != "poisson-arbitrary") return make_source(family, seed);
  PoissonParams params;
  params.horizon = 256;
  params.seed = seed;
  params.arbitrary_delays = true;
  params.min_delay = 3;
  params.max_delay = 40;
  return std::make_unique<PoissonSource>(params);
}

enum class Variant { kFastForward, kNoFastForward, kMtbf };

using Cell = std::tuple<std::string, std::string, std::uint64_t, Variant>;

class ShadowMatrix : public ::testing::TestWithParam<Cell> {};

TEST_P(ShadowMatrix, PoliciesFollowTheirRule) {
  const auto& [algorithm, family, seed, variant] = GetParam();
  const auto source = shadow_source(family, seed);
  FaultPlan plan;
  if (variant == Variant::kMtbf) {
    MtbfParams mtbf;
    mtbf.num_resources = 8;
    mtbf.horizon = source->horizon();
    mtbf.mean_up = 96;
    mtbf.mean_down = 16;
    mtbf.seed = seed;
    plan = make_mtbf_plan(mtbf);
  }
  const Section3Report report = expect_shadow_agrees(
      *source, algorithm, 8, variant != Variant::kNoFastForward,
      variant == Variant::kMtbf ? &plan : nullptr,
      algorithm + " " + family + " seed " + std::to_string(seed));
  // Default random-batched input is rate-limited, so dLRU-EDF without
  // churn runs inside Theorem 1's model and the lemmas are checked.
  if (algorithm == "dlru-edf" && family == "random-batched" &&
      variant != Variant::kMtbf) {
    EXPECT_TRUE(report.in_model);
    EXPECT_TRUE(report.lemma_3_3 && report.lemma_3_4 && report.lemma_3_15);
  }
  if (variant == Variant::kMtbf && !plan.empty()) {
    EXPECT_FALSE(report.in_model);
  }
}

std::vector<Cell> all_cells() {
  std::vector<Cell> cells;
  std::vector<std::string> families(std::begin(kFamilies),
                                    std::end(kFamilies));
  families.emplace_back("poisson-arbitrary");
  for (const char* const algorithm : kStreamingAlgorithms) {
    for (const std::string& family : families) {
      for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
        for (const Variant v :
             {Variant::kFastForward, Variant::kNoFastForward,
              Variant::kMtbf}) {
          cells.emplace_back(algorithm, family, seed, v);
        }
      }
    }
  }
  return cells;
}

std::string cell_name(const ::testing::TestParamInfo<Cell>& info) {
  const Variant v = std::get<3>(info.param);
  std::string name = std::get<0>(info.param) + "_" + std::get<1>(info.param) +
                     "_s" + std::to_string(std::get<2>(info.param)) +
                     (v == Variant::kFastForward     ? "_ff"
                      : v == Variant::kNoFastForward ? "_noff"
                                                     : "_mtbf");
  for (char& ch : name) {
    if (ch == '-') ch = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(Matrix, ShadowMatrix,
                         ::testing::ValuesIn(all_cells()), cell_name);

TEST(ShadowShards, EachShardsRelabeledSubWorkloadFollowsTheRule) {
  // The sharded pins' sub-workloads: each shard's colors, relabeled
  // densely, on its slice of the resources.
  constexpr int kShards = 2;
  constexpr int kN = 16;
  for (const char* const algorithm : kStreamingAlgorithms) {
    for (const char* const family : kFamilies) {
      const auto source = make_source(family, 1);
      EngineOptions proto;
      const std::unique_ptr<Policy> policy =
          make_stream_policy(algorithm, proto);
      const ShardPlan plan = make_shard_plan(
          source->num_colors(), kShards, kN,
          policy->resource_granularity(proto.replication), proto.replication);
      ShardedSourceOptions split;
      split.backpressure = false;
      ShardedSource shards(*source, plan, source->horizon(), split);
      for (int s = 0; s < kShards; ++s) {
        (void)expect_shadow_agrees(
            shards.stream(s), algorithm,
            plan.shard_resources[static_cast<std::size_t>(s)], true, nullptr,
            std::string(algorithm) + " " + family + " shard " +
                std::to_string(s));
      }
    }
  }
}

TEST(ShadowReductions, DLruEdfOverTheAdaptersFollowsTheRule) {
  // Distribute and VarBatch feed dLRU-EDF rate-limited batched input over
  // virtual colors, so the shadow checks the lemmas there too.  Distribute
  // takes bursty batched input; VarBatch also takes Poisson input,
  // materialized because a trickle stream states no batch bound.
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    RandomBatchedParams bursty;
    bursty.horizon = 256;
    bursty.burst_factor = 2.5;
    bursty.seed = seed;
    const auto poisson = make_source("poisson", seed);
    const std::pair<const char*, Instance> cells[] = {
        {"distribute", make_random_batched(bursty)},
        {"varbatch", make_random_batched(bursty)},
        {"varbatch", materialize(*poisson)},
    };
    for (const auto& [name, instance] : cells) {
      MaterializedSource input(instance);
      const auto stages = make_reduction(name, input);
      ASSERT_FALSE(stages.empty());
      const std::string label = std::string(name) + " over " +
                                instance.summary() + " seed " +
                                std::to_string(seed);
      const Section3Report report = expect_shadow_agrees(
          *stages.back(), "dlru-edf", 8, true, nullptr, label);
      EXPECT_TRUE(report.in_model) << label;
    }
  }
}

/// dLRU-EDF that, at one round, erases a cached color after its rule ran.
class DropsAColorOnce : public DLruEdfPolicy {
 public:
  explicit DropsAColorOnce(Round at) : at_(at) {}
  void on_round(RoundContext& ctx) override {
    DLruEdfPolicy::on_round(ctx);
    if (ctx.final_sweep() || ctx.round() != at_ ||
        ctx.cache().cached_colors().empty()) {
      return;
    }
    dropped_ = ctx.cache().cached_colors().front();
    ctx.cache().erase(dropped_);
  }
  ColorId dropped_ = kBlack;

 private:
  Round at_;
};

TEST(Section3Shadow, NamesThePhaseAndColorThatBreakTheRule) {
  const auto source = make_source("random-batched", 1);
  DropsAColorOnce policy(100);
  EngineOptions options;
  options.num_resources = 8;
  options.replication = 2;
  options.record_schedule = false;
  Section3Shadow shadow(*source, options, Section3Rule::kDLruEdf);
  (void)run_with_shadow(*source, policy, options, shadow);
  ASSERT_NE(policy.dropped_, kBlack);
  const auto& violation = shadow.report().violation;
  ASSERT_TRUE(violation);
  EXPECT_EQ(violation->round, 100);
  EXPECT_EQ(violation->mini, 0);
  EXPECT_EQ(violation->color, policy.dropped_);
  EXPECT_NE(violation->check.find("rule"), std::string::npos)
      << violation->describe();
}

/// A shadow over `colors` colors of delay `delay` with scalar Delta, fed
/// by hand.
struct HandFed {
  HandFed(ColorId colors, Round delay, Cost delta) {
    InstanceBuilder builder;
    builder.delta(delta);
    for (ColorId c = 0; c < colors; ++c) builder.add_color(delay);
    builder.min_horizon(64);
    instance = builder.build();
    source = std::make_unique<MaterializedSource>(instance);
    options.num_resources = 8;
    options.replication = 2;
  }
  Instance instance;
  std::unique_ptr<MaterializedSource> source;
  EngineOptions options;
};

TEST(Section3Shadow, AnInModelLemmaFailureIsAViolation) {
  // One color, Delta 2: one epoch, so any reconfiguration cost above
  // 4 * 1 * 2 breaks Lemma 3.3 at the round end.
  HandFed fed(1, 4, 2);
  Section3Shadow shadow(*fed.source, fed.options, Section3Rule::kNone);
  Job job;
  job.color = 0;
  job.arrival = 0;
  job.delay_bound = 4;
  const std::vector<Job> batch(2, job);
  shadow.on_arrivals({0, batch});
  shadow.on_reconfig({0, 0, 0, kBlack, 0, 9});
  shadow.on_round_end({0});
  const Section3Report& report = shadow.report();
  EXPECT_EQ(report.epochs, 1);
  EXPECT_FALSE(report.lemma_3_3);
  // kNone is outside Theorem 1 (which is dLRU-EDF's), so nothing fails.
  EXPECT_FALSE(report.violation);

  Section3Shadow strict(*fed.source, fed.options, Section3Rule::kDLruEdf);
  strict.on_arrivals({0, batch});
  strict.on_membership({0, 0, 0, true});
  strict.on_reconfig({0, 0, 0, kBlack, 0, 9});
  strict.on_reconfig({0, 0, 1, kBlack, 0, 0});
  strict.on_round_end({0});
  ASSERT_TRUE(strict.report().in_model);
  ASSERT_TRUE(strict.report().violation);
  EXPECT_EQ(strict.report().violation->round, 0);
  EXPECT_NE(strict.report().violation->check.find("Lemma 3.3"),
            std::string::npos)
      << strict.report().violation->describe();
}

TEST(Section3Shadow, UnbatchedArrivalsLeaveTheModel) {
  HandFed fed(1, 4, 2);
  Section3Shadow shadow(*fed.source, fed.options, Section3Rule::kDLruEdf);
  Job job;
  job.color = 0;
  job.arrival = 1;
  job.delay_bound = 4;
  const std::vector<Job> batch(1, job);
  shadow.on_arrivals({1, batch});
  shadow.on_reconfig({1, 0, 0, kBlack, 0, 99});
  shadow.on_round_end({1});
  shadow.finish(2);
  EXPECT_FALSE(shadow.report().in_model);
  EXPECT_FALSE(shadow.report().lemma_3_3);
  EXPECT_FALSE(shadow.report().violation);
}

TEST(Section3Shadow, ChecksMembershipAndReplication) {
  HandFed fed(2, 4, 2);
  // A cached color recolored on one location of its two.
  Section3Shadow half(*fed.source, fed.options, Section3Rule::kNone);
  half.on_membership({0, 0, 1, true});
  half.on_reconfig({0, 0, 3, kBlack, 1, 2});
  half.on_round_end({0});
  ASSERT_TRUE(half.report().violation);
  EXPECT_EQ(half.report().violation->color, 1);
  EXPECT_EQ(half.report().violation->mini, 0);
  EXPECT_NE(half.report().violation->check.find("replication"),
            std::string::npos);

  // A color inserted twice.
  Section3Shadow twice(*fed.source, fed.options, Section3Rule::kNone);
  twice.on_membership({0, 0, 0, true});
  twice.on_membership({0, 0, 0, true});
  ASSERT_TRUE(twice.report().violation);
  EXPECT_NE(twice.report().violation->check.find("insert of a cached"),
            std::string::npos);
}

TEST(Section3Shadow, OutOfOrderEventsAreAViolation) {
  HandFed fed(1, 4, 2);
  Section3Shadow shadow(*fed.source, fed.options, Section3Rule::kNone);
  shadow.on_round_end({3});
  shadow.on_drop({2, 0, 1, 1});
  ASSERT_TRUE(shadow.report().violation);
  EXPECT_EQ(shadow.report().violation->describe(),
            "round 2 mini -1 color -1: event out of the engine's order");
}

}  // namespace
}  // namespace rrs
