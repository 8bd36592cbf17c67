// Property-based tests (parameterized over seeds): the paper's amortized
// bounds, structural invariants of the algorithms, and metamorphic checks
// on the validator.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "algs/dlru_edf.h"
#include "algs/edf.h"
#include "algs/ranked_cache.h"
#include "core/fault_plan.h"
#include "core/validator.h"
#include "offline/exact_bnb.h"
#include "offline/greedy_offline.h"
#include "offline/lower_bound.h"
#include "sim/ratio.h"
#include "sim/runner.h"
#include "util/rng.h"
#include "workload/poisson.h"
#include "workload/random_batched.h"

namespace rrs {
namespace {

class SeededProperty : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  [[nodiscard]] Instance rate_limited_instance(Round horizon = 512,
                                               Cost delta = 8) const {
    RandomBatchedParams params;
    params.seed = GetParam();
    params.horizon = horizon;
    params.num_colors = 12;
    params.delta = delta;
    return make_random_batched(params);
  }
};

TEST_P(SeededProperty, Lemma33_ReconfigCostBoundedByEpochs) {
  // Lemma 3.3: ReconfigCost(dLRU-EDF) <= 4 * numEpochs * Delta.
  const Instance inst = rate_limited_instance();
  DLruEdfPolicy policy;
  EngineOptions options;
  options.num_resources = 8;
  options.replication = 2;
  options.record_schedule = false;
  const EngineResult r = run_policy(inst, policy, options);
  EXPECT_LE(r.cost.reconfig_cost,
            4 * policy.tracker().num_epochs() * inst.delta());
}

TEST_P(SeededProperty, Lemma34_IneligibleDropsBoundedByEpochs) {
  // Lemma 3.4: IneligibleDropCost(dLRU-EDF) <= numEpochs * Delta.
  const Instance inst = rate_limited_instance();
  DLruEdfPolicy policy;
  EngineOptions options;
  options.num_resources = 8;
  options.replication = 2;
  const EngineResult r = run_policy(inst, policy, options);
  (void)r;
  EXPECT_LE(policy.tracker().ineligible_drops(),
            policy.tracker().num_epochs() * inst.delta());
}

/// dLRU-EDF wrapper that asserts, after every reconfiguration phase, that
/// the top-(n/4) eligible colors by timestamp recency are all cached (the
/// Section 3.1.3 LRU invariant).
class LruInvariantPolicy : public DLruEdfPolicy {
 public:
  void on_round(RoundContext& ctx) override {
    DLruEdfPolicy::on_round(ctx);
    if (ctx.final_sweep()) return;
    const Round k = ctx.round();
    std::vector<ColorId> eligible = tracker().eligible_colors();
    lru_sort(eligible, tracker(), k);
    const auto lru_size =
        std::min(eligible.size(),
                 static_cast<std::size_t>(ctx.cache().max_distinct() / 2));
    for (std::size_t i = 0; i < lru_size; ++i) {
      ASSERT_TRUE(ctx.cache().contains(eligible[i]))
          << "LRU color " << eligible[i] << " not cached at round " << k;
    }
    violations_checked_ = true;
  }
  [[nodiscard]] bool checked() const { return violations_checked_; }

 private:
  bool violations_checked_ = false;
};

TEST_P(SeededProperty, LruHalfAlwaysCached) {
  const Instance inst = rate_limited_instance(256);
  LruInvariantPolicy policy;
  EngineOptions options;
  options.num_resources = 8;
  options.replication = 2;
  options.record_schedule = false;
  (void)run_policy(inst, policy, options);
  EXPECT_TRUE(policy.checked());
}

TEST_P(SeededProperty, ReplicationInvariantInRecordedSchedules) {
  // Replaying a Section 3 algorithm's schedule, every non-black color is
  // configured on exactly 0 or 2 resources at any time.
  const Instance inst = rate_limited_instance(256);
  Schedule schedule;
  (void)run_algorithm(inst, "dlru-edf", 8, &schedule);

  std::vector<ColorId> config(8, kBlack);
  std::size_t i = 0;
  while (i < schedule.reconfigs.size()) {
    const Round round = schedule.reconfigs[i].round;
    for (; i < schedule.reconfigs.size() &&
           schedule.reconfigs[i].round == round;
         ++i) {
      config[static_cast<std::size_t>(schedule.reconfigs[i].resource)] =
          schedule.reconfigs[i].color;
    }
    std::map<ColorId, int> counts;
    for (const ColorId c : config) {
      if (c != kBlack) ++counts[c];
    }
    for (const auto& [color, count] : counts) {
      // A location may keep a stale (evicted) color, so counts of 1 can
      // appear only for colors no longer logically cached; the invariant
      // we can check from events alone is count <= 2.
      EXPECT_LE(count, 2) << "color " << color << " at round " << round;
    }
  }
}

TEST_P(SeededProperty, ValidatorCatchesMutations) {
  // Metamorphic: a valid schedule, randomly mutated, must not validate as
  // a different-cost schedule without being flagged (drop mutations that
  // happen to stay legal are skipped).
  const Instance inst = rate_limited_instance(128);
  Schedule schedule;
  (void)run_algorithm(inst, "dlru-edf", 8, &schedule);
  ASSERT_TRUE(validate(inst, schedule).ok);
  if (schedule.execs.empty()) return;

  Rng rng(GetParam());
  for (int trial = 0; trial < 20; ++trial) {
    Schedule mutated = schedule;
    auto& exec = mutated.execs[static_cast<std::size_t>(rng.uniform(
        0, static_cast<std::int64_t>(mutated.execs.size()) - 1))];
    const Job& job = inst.jobs()[static_cast<std::size_t>(exec.job)];
    // Push the execution past the job's deadline: always illegal.
    exec.round = job.deadline() + rng.uniform(0, 3);
    if (exec.round >= inst.horizon()) continue;
    // Re-sort to keep event ordering valid so only the window check fires.
    std::sort(mutated.execs.begin(), mutated.execs.end(),
              [](const ExecEvent& a, const ExecEvent& b) {
                return a.round < b.round ||
                       (a.round == b.round && a.mini < b.mini);
              });
    EXPECT_FALSE(validate(inst, mutated).ok) << "trial " << trial;
  }
}

TEST_P(SeededProperty, Lemma35_EpochsChargeToOfflineCost) {
  // Lemma 3.5 direction: for inputs where every color has >= Delta jobs,
  // Cost_OFF = Omega(numEpochs * Delta).  Empirically: numEpochs * Delta
  // must stay within a constant factor of the offline UPPER bound (the
  // greedy family), which is itself >= OPT — a conservative check of the
  // same relation.
  RandomBatchedParams params;
  params.seed = GetParam();
  params.horizon = 1024;
  params.num_colors = 12;
  params.delta = 4;  // small Delta: every active color exceeds it
  const Instance inst = make_random_batched(params);

  DLruEdfPolicy policy;
  EngineOptions options;
  options.num_resources = 8;
  options.replication = 2;
  options.record_schedule = false;
  (void)run_policy(inst, policy, options);

  const Cost ub = best_offline_heuristic_cost(inst, 1);
  const Cost epoch_charge = policy.tracker().num_epochs() * inst.delta();
  EXPECT_LE(epoch_charge, 24 * ub) << "epochs must be chargeable to OFF";
}

TEST_P(SeededProperty, Lemma315_AtMostTwoEpochEndingsPerSuperEpoch) {
  // Lemma 3.15 / Corollary 3.2: once a color completes two epochs inside
  // one super-epoch, the super-epoch ends — so no color accumulates more
  // than two epoch endings within a single super-epoch.
  const Instance inst = rate_limited_instance(1024, /*delta=*/4);
  const int m = 1;
  DLruEdfPolicy policy;
  policy.enable_super_epoch_analysis(m);
  EngineOptions options;
  options.num_resources = 8 * m;
  options.replication = 2;
  options.record_schedule = false;
  (void)run_policy(inst, policy, options);
  EXPECT_LE(policy.tracker().max_epoch_endings_per_super_epoch(), 2)
      << "super epochs: " << policy.tracker().num_super_epochs();
}

TEST_P(SeededProperty, EngineDeterminism) {
  const Instance inst = rate_limited_instance(256);
  const StreamRunRecord a = run_algorithm(inst, "dlru-edf", 8);
  const StreamRunRecord b = run_algorithm(inst, "dlru-edf", 8);
  EXPECT_EQ(a.cost, b.cost);
  EXPECT_EQ(a.executed, b.executed);
}

TEST_P(SeededProperty, VarBatchNeverBeatsOfflineByMoreThanModel) {
  // Consistency of the bracket on the full pipeline: online cost with
  // n = 8 is finite and the certified LB with m = 1 does not exceed the
  // greedy UB.
  PoissonParams params;
  params.seed = GetParam();
  params.horizon = 256;
  const Instance inst = make_poisson(params);
  const RatioReport report = measure_ratio(inst, "varbatch", 8, 1);
  EXPECT_LE(report.lower_bound, report.heuristic_ub);
  EXPECT_GE(report.online.cost.total(), 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeededProperty,
                         ::testing::Range(std::uint64_t{1},
                                          std::uint64_t{21}));

// ---------------------------------------------------------------------------
// Offline-solver chain: on every instance the certified quantities must
// order as
//   LB1, LB2 <= best_bound <= OPT <= incumbent <= greedy <= total weight
// and any online policy with n == m emits a feasible m-resource schedule,
// so its cost is >= best_bound (the mimic argument).  LB3 standalone is
// compared against the incumbent: when the search is budget-stopped its
// frontier bound and an independently re-run subgradient need not be
// ordered, but LB3 <= OPT <= incumbent always holds.
// ---------------------------------------------------------------------------

struct OffVariant {
  CostModel::Tier tier = CostModel::Tier::kScalar;
  bool long_jobs = false;
  bool weighted = false;
};

std::vector<OffVariant> offline_variant_matrix() {
  std::vector<OffVariant> out;
  for (const auto tier :
       {CostModel::Tier::kScalar, CostModel::Tier::kVector,
        CostModel::Tier::kMatrix}) {
    for (const bool long_jobs : {false, true}) {
      for (const bool weighted : {false, true}) {
        out.push_back({tier, long_jobs, weighted});
      }
    }
  }
  return out;
}

Instance offline_chain_instance(std::uint64_t seed, const OffVariant& v) {
  Rng rng(seed * 7919 + static_cast<std::uint64_t>(v.tier) * 241 +
          (v.long_jobs ? 31 : 0) + (v.weighted ? 11 : 0));
  InstanceBuilder builder;
  builder.delta(1 + rng.uniform(0, 3));
  const int colors = static_cast<int>(2 + rng.uniform(0, 2));
  std::vector<ColorId> ids;
  for (int c = 0; c < colors; ++c) {
    ids.push_back(builder.add_color(2 + rng.uniform(0, 4),
                                    v.weighted ? 1 + rng.uniform(0, 4) : 1,
                                    v.long_jobs ? 1 + rng.uniform(0, 2) : 1));
  }
  if (v.tier != CostModel::Tier::kScalar) {
    for (const ColorId c : ids) builder.reconfig_cost(c, 1 + rng.uniform(0, 4));
  }
  if (v.tier == CostModel::Tier::kMatrix) {
    for (const ColorId from : ids) {
      for (const ColorId to : ids) {
        if (from != to) {
          builder.transition_cost(from, to, 1 + rng.uniform(0, 5));
        }
      }
    }
  }
  const Round horizon = 8 + rng.uniform(0, 6);
  for (std::int64_t i = 0, n = 3 + rng.uniform(0, 3); i < n; ++i) {
    builder.add_jobs(
        ids[static_cast<std::size_t>(rng.uniform(0, colors - 1))],
        rng.uniform(0, horizon - 1), 1 + rng.uniform(0, 2));
  }
  return builder.build();
}

class OfflineChain : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OfflineChain, CertifiedBoundsAreTotallyOrdered) {
  // 20 seeds x 12 cost-model variants = 240 seeded instances.
  constexpr int m = 2;
  for (const OffVariant& v : offline_variant_matrix()) {
    const Instance inst = offline_chain_instance(GetParam(), v);
    const LowerBound lb = offline_lower_bound_full(inst, m);
    const BnbResult bnb = exact_offline_bnb(inst, m);
    const Cost greedy = best_offline_heuristic_cost(inst, m);

    EXPECT_LE(lb.configure_or_drop, bnb.best_bound);
    EXPECT_LE(lb.capacity, bnb.best_bound);
    EXPECT_GE(lb.lagrangian, std::max(lb.configure_or_drop, lb.capacity));
    EXPECT_LE(lb.lagrangian, bnb.incumbent);
    EXPECT_LE(bnb.best_bound, bnb.incumbent);
    EXPECT_LE(bnb.incumbent, greedy);
    // Drop-everything also seeds the incumbent (greedy itself may pay
    // reconfigurations above the total drop weight, so it is not capped).
    EXPECT_LE(bnb.incumbent, inst.total_weight());

    // Online with n == m and replication 1: its schedule is feasible with
    // m resources, so its cost upper-bounds nothing but lower-bounds via
    // OPT: cost >= OPT >= best_bound.
    EdfPolicy policy;
    EngineOptions options;
    options.num_resources = m;
    options.replication = 1;
    options.record_schedule = false;
    const EngineResult r = run_policy(inst, policy, options);
    EXPECT_GE(r.cost.total(), bnb.best_bound)
        << "tier " << static_cast<int>(v.tier) << " long " << v.long_jobs
        << " weighted " << v.weighted;
  }
}

TEST_P(OfflineChain, OnlineUnderFaultsStaysAboveCertifiedBound) {
  // Faults only hurt the online player; the emitted schedule is still
  // feasible for the pristine m-resource offline pool, so with repairs
  // uncharged its cost still dominates best_bound.
  constexpr int m = 2;
  for (const bool weighted : {false, true}) {
    const Instance inst = offline_chain_instance(
        GetParam() + 500, {CostModel::Tier::kVector, false, weighted});
    const BnbResult bnb = exact_offline_bnb(inst, m);

    MtbfParams mtbf;
    mtbf.num_resources = m;
    mtbf.horizon = inst.horizon();
    mtbf.mean_up = 5;
    mtbf.mean_down = 2;
    mtbf.seed = GetParam();
    const FaultPlan plan = make_mtbf_plan(mtbf);

    EdfPolicy policy;
    EngineOptions options;
    options.num_resources = m;
    options.replication = 1;
    options.record_schedule = false;
    options.fault_plan = &plan;
    options.charge_repair = false;
    const EngineResult r = run_policy(inst, policy, options);
    EXPECT_GE(r.cost.total(), bnb.best_bound)
        << "faulty online run undercut the certified offline bound";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OfflineChain,
                         ::testing::Range(std::uint64_t{1},
                                          std::uint64_t{21}));

}  // namespace
}  // namespace rrs
