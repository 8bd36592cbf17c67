// Shared helpers for the RRS test suite.
#pragma once

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <type_traits>

#include "core/fault_plan.h"
#include "core/instance.h"
#include "obs/observer.h"
#include "sim/runner.h"

namespace rrs::testing {

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
