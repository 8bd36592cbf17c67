// Shared helpers for the RRS test suite.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <type_traits>

#include "core/fault_plan.h"
#include "core/instance.h"
#include "obs/observer.h"
#include "sim/runner.h"
#include "workload/datacenter.h"
#include "workload/flash_crowd.h"
#include "workload/poisson.h"
#include "workload/random_batched.h"

namespace rrs::testing {

/// Runnable on every family's stream (the reductions need a batch bound,
/// which only random-batched streams state).
inline const char* const kStreamingAlgorithms[] = {
    "dlru", "edf", "dlru-edf", "adaptive", "seq-edf", "ds-seq-edf",
};

inline const char* const kFamilies[] = {
    "random-batched", "poisson", "flash-crowd", "datacenter",
};

/// Fresh streaming source for (family, seed).  Horizons are kept small so
/// the suites' matrices stay fast.
inline std::unique_ptr<ArrivalSource> make_source(const std::string& family,
                                           std::uint64_t seed) {
  if (family == "random-batched") {
    RandomBatchedParams params;
    params.horizon = 256;
    params.seed = seed;
    return std::make_unique<RandomBatchedSource>(params);
  }
  if (family == "poisson") {
    PoissonParams params;
    params.horizon = 256;
    params.seed = seed;
    return std::make_unique<PoissonSource>(params);
  }
  if (family == "flash-crowd") {
    FlashCrowdParams params;
    params.spike_start = 128;
    params.spike_end = 192;
    params.horizon = 512;
    params.seed = seed;
    return std::make_unique<FlashCrowdSource>(params);
  }
  if (family == "datacenter") {
    DatacenterParams params;
    params.horizon = 1024;
    params.seed = seed;
    return std::make_unique<DatacenterSource>(params);
  }
  ADD_FAILURE() << "unknown family " << family;
  return nullptr;
}

/// The bit-identity pin every suite shares: two runs (StreamRunRecords or
/// EngineResults) agree on every RunCounters field and on the policy
/// stats.  A record's wall-clock seconds is deliberately excluded.
template <typename Run>
void expect_same_run(const Run& a, const Run& b, const std::string& label) {
  EXPECT_EQ(RunCounters(a), RunCounters(b)) << label;
  if constexpr (std::is_same_v<Run, EngineResult>) {
    EXPECT_EQ(a.policy_stats, b.policy_stats) << label;
  } else {
    EXPECT_EQ(a.stats, b.stats) << label;
  }
}

/// The snapshot_out bytes of one small observed dLRU-EDF run in which
/// every snapshot key is non-trivial: MTBF churn with charged repairs,
/// drop costs 1-4 and job lengths 1-3 (so work_units != executed).  Three
/// periodic lines plus the final one.
/// Everything is closed-form or seeded, so the bytes are fixed.
[[nodiscard]] inline std::string golden_snapshot_stream() {
  constexpr ColorId kColors = 6;
  constexpr Round kHorizon = 112;
  InstanceBuilder builder;
  builder.delta(3);
  for (ColorId c = 0; c < kColors; ++c) {
    builder.add_color(Round{4} << (c % 3), /*drop_cost=*/1 + c % 4,
                      /*length=*/1 + c % 3);
  }
  for (Round k = 0; k < kHorizon; ++k) {
    for (ColorId c = 0; c < kColors; ++c) {
      const Round delay = Round{4} << (c % 3);
      if (k % delay == 0 && (k / delay + c) % 3 != 0) {
        builder.add_jobs(c, k, 1 + (k + c) % 5);
      }
    }
  }
  const Instance instance = builder.build();
  MaterializedSource source(instance);

  MtbfParams mtbf;
  mtbf.num_resources = 4;
  mtbf.horizon = kHorizon;
  mtbf.mean_up = 24;
  mtbf.mean_down = 8;
  mtbf.seed = 7;
  const FaultPlan plan = make_mtbf_plan(mtbf);

  ObsConfig config;
  config.snapshot_every = 32;
  Observer observer(config);
  std::ostringstream out;
  observer.snapshot_out = &out;
  ShardedRunOptions options;
  options.fault_plan = &plan;
  options.charge_repair = true;
  options.observer = &observer;
  (void)run_streaming_sharded(source, "dlru-edf", 4, 1, kInfiniteHorizon,
                              options);
  return out.str();
}

}  // namespace rrs::testing
