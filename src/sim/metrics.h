// Schedule metrics: latency and utilization statistics beyond raw cost.
//
// The paper's objective is cost (reconfigurations + drops), but the
// motivating applications care about richer QoS signals: how long jobs
// wait before executing, how close to their deadlines they run, how busy
// the resources are, and how the damage distributes across colors.  This
// module derives all of that from an (Instance, Schedule) pair, so every
// algorithm — online, offline, reduction pipeline — is measured with the
// same instrument: a sink over replay() (core/replay.h).
#pragma once

#include <vector>

#include "core/instance.h"
#include "core/schedule.h"

namespace rrs {

/// Summary statistics of a set of integer samples.
struct DistributionSummary {
  std::int64_t count = 0;
  std::int64_t sum = 0;  ///< exact integer sum of the samples
  double mean = 0.0;
  Round min = 0;
  Round p50 = 0;   ///< median
  Round p95 = 0;
  Round p99 = 0;
  Round max = 0;
};

/// Computes min/sum/mean/percentiles of `samples` (takes a copy to sort).
/// Percentiles use nearest-rank semantics: p-th percentile = the sample at
/// 1-based rank ceil(p * count / 100), computed in integer arithmetic — so
/// p100 is the max, p50 on {3, 9} is 3, and a single sample is every
/// percentile.  Empty input yields an all-zero summary.
[[nodiscard]] DistributionSummary summarize(std::vector<Round> samples);

/// Per-color outcome accounting.
struct ColorMetrics {
  ColorId color = 0;
  std::int64_t jobs = 0;
  std::int64_t executed = 0;  ///< jobs completed (all length(color) units)
  std::int64_t dropped = 0;
  Cost dropped_weight = 0;
  /// Mean rounds between arrival and execution, over executed jobs.
  double mean_wait = 0.0;
};

/// Full metrics for one schedule on one instance.
struct ScheduleMetrics {
  /// Rounds each completed job waited (final-unit round - arrival).
  DistributionSummary wait;
  /// Slack at completion (deadline - 1 - final-unit round): 0 =
  /// just-in-time.
  DistributionSummary slack;
  /// Fraction of resource-mini-round slots that applied an execution unit,
  /// over the span [first event round, last event round].
  double utilization = 0.0;
  /// Service rate: completed jobs / total jobs.
  double service_rate = 1.0;
  std::vector<ColorMetrics> per_color;
};

/// Derives metrics from a recorded schedule, through replay().  The
/// schedule is assumed valid (run the validator first if in doubt): a
/// malformed one throws InputError, and an execution outside its job's
/// window InvariantError.
[[nodiscard]] ScheduleMetrics compute_metrics(const Instance& instance,
                                              const Schedule& schedule);

}  // namespace rrs
