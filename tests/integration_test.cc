// Integration tests: every algorithm x every workload family, with full
// schedule validation, parameterized over seeds (TEST_P).
#include <gtest/gtest.h>

#include <tuple>

#include "core/validator.h"
#include "util/check.h"
#include "sim/runner.h"
#include "workload/adversary_dlru.h"
#include "workload/adversary_edf.h"
#include "workload/datacenter.h"
#include "workload/flash_crowd.h"
#include "workload/intro_scenario.h"
#include "workload/poisson.h"
#include "workload/random_batched.h"

namespace rrs {
namespace {

/// Workload families used across the matrix.  Each returns a moderate
/// instance for the given seed.
Instance make_family_instance(const std::string& family,
                              std::uint64_t seed) {
  if (family == "rate-limited") {
    RandomBatchedParams params;
    params.seed = seed;
    params.horizon = 256;
    params.num_colors = 10;
    return make_random_batched(params);
  }
  if (family == "bursty-batched") {
    RandomBatchedParams params;
    params.seed = seed;
    params.horizon = 256;
    params.num_colors = 8;
    params.burst_factor = 2.5;
    return make_random_batched(params);
  }
  if (family == "poisson") {
    PoissonParams params;
    params.seed = seed;
    params.horizon = 256;
    return make_poisson(params);
  }
  if (family == "poisson-arbitrary") {
    PoissonParams params;
    params.seed = seed;
    params.horizon = 256;
    params.arbitrary_delays = true;
    params.min_delay = 3;
    params.max_delay = 90;
    return make_poisson(params);
  }
  if (family == "datacenter") {
    DatacenterParams params;
    params.seed = seed;
    params.horizon = 1024;
    return make_datacenter(params);
  }
  if (family == "flash-crowd") {
    FlashCrowdParams params;
    params.seed = seed;
    params.horizon = 1024;
    params.spike_start = 256;
    params.spike_end = 512;
    return make_flash_crowd(params).instance;
  }
  if (family == "intro") {
    IntroScenarioParams params;
    params.seed = seed;
    params.horizon = 1024;
    params.background_jobs = 1024;
    params.background_delay = 1024;
    return make_intro_scenario(params).instance;
  }
  throw InputError("unknown family " + family);
}

using MatrixParam = std::tuple<std::string, std::string, std::uint64_t>;

class AlgorithmWorkloadMatrix
    : public ::testing::TestWithParam<MatrixParam> {};

TEST_P(AlgorithmWorkloadMatrix, ScheduleValidCostConsistent) {
  const auto& [algorithm, family, seed] = GetParam();
  const Instance inst = make_family_instance(family, seed);
  if (algorithm == "distribute" && !inst.is_batched()) {
    // Distribute's contract is batched input ([.. | D_l]); unbatched
    // sequences go through varbatch instead.
    EXPECT_THROW((void)run_algorithm(inst, algorithm, 8), InputError);
    GTEST_SKIP() << "distribute requires batched input";
  }

  // The Section 3 policies assume batched arrivals; running them on
  // unbatched input is mechanically fine (and must still be valid), but
  // the end-to-end pipelines are the meaningful algorithms there.
  Schedule schedule;
  const StreamRunRecord record = run_algorithm(inst, algorithm, 8, &schedule);
  const CostBreakdown validated = validate_or_throw(inst, schedule);
  EXPECT_EQ(validated, record.cost);
  EXPECT_EQ(record.executed,
            static_cast<std::int64_t>(schedule.execs.size()));
  // Drop accounting closes: executed weight + drop cost = total weight
  // (reduces to job counts in the unit-cost setting).
  Cost executed_weight = 0;
  for (const ExecEvent& e : schedule.execs) {
    executed_weight += inst.jobs()[static_cast<std::size_t>(e.job)].drop_cost;
  }
  EXPECT_EQ(executed_weight + record.cost.drops, inst.total_weight());
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, AlgorithmWorkloadMatrix,
    ::testing::Combine(
        ::testing::Values("dlru", "edf", "dlru-edf", "seq-edf", "ds-seq-edf",
                          "distribute", "varbatch"),
        ::testing::Values("rate-limited", "bursty-batched", "poisson",
                          "datacenter", "intro", "flash-crowd"),
        ::testing::Values(1u, 2u)),
    [](const ::testing::TestParamInfo<MatrixParam>& param_info) {
      std::string name = std::get<0>(param_info.param) + "_" +
                         std::get<1>(param_info.param) + "_s" +
                         std::to_string(std::get<2>(param_info.param));
      for (char& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name;
    });

// The reduction pipelines additionally cover the families their theorems
// target (bursty batched for Distribute, arbitrary delays for VarBatch).
class PipelineFamilies : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PipelineFamilies, DistributeOnBurstyBatched) {
  const Instance inst = make_family_instance("bursty-batched", GetParam());
  Schedule schedule;
  const StreamRunRecord record =
      run_algorithm(inst, "distribute", 8, &schedule);
  EXPECT_EQ(validate_or_throw(inst, schedule), record.cost);
}

TEST_P(PipelineFamilies, VarBatchOnArbitraryDelays) {
  const Instance inst =
      make_family_instance("poisson-arbitrary", GetParam());
  Schedule schedule;
  const StreamRunRecord record = run_algorithm(inst, "varbatch", 8, &schedule);
  EXPECT_EQ(validate_or_throw(inst, schedule), record.cost);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineFamilies,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

// Resource augmentation sanity: more resources never increase dLRU-EDF's
// drop count on rate-limited instances (reconfig cost may vary).
class AugmentationMonotonicity
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AugmentationMonotonicity, DropsShrinkWithResources) {
  RandomBatchedParams params;
  params.seed = GetParam();
  params.horizon = 512;
  params.num_colors = 12;
  const Instance inst = make_random_batched(params);
  Cost previous = -1;
  for (const int n : {4, 8, 16, 32}) {
    const StreamRunRecord record = run_algorithm(inst, "dlru-edf", n);
    if (previous >= 0) {
      EXPECT_LE(record.cost.drops, previous) << "n = " << n;
    }
    previous = record.cost.drops;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AugmentationMonotonicity,
                         ::testing::Values(1u, 2u, 3u));

}  // namespace
}  // namespace rrs
