// Timeline extraction: per-bucket dynamics of a schedule, plot-ready.
//
// Aggregates an (Instance, Schedule) pair, through replay(), into
// fixed-width time buckets — arrivals, execution units, drops (jobs not
// completed by their deadline), reconfigurations, and the number of
// distinct configured colors at bucket end — so the cache dynamics that
// drive the paper's analysis (thrash bursts, drop avalanches, epoch
// turnover) can be seen rather than inferred.
#pragma once

#include <vector>

#include "core/instance.h"
#include "core/schedule.h"
#include "sim/csv.h"

namespace rrs {

/// One time bucket of the timeline.
struct TimelineBucket {
  Round start = 0;             ///< first round of the bucket
  std::int64_t arrivals = 0;   ///< jobs arriving in the bucket
  std::int64_t executions = 0;  ///< execution units applied in the bucket
  /// Jobs not completed by their deadline, which falls in the bucket (the
  /// last bucket holds those due at the horizon).  A partly executed job
  /// counts: partial execution earns nothing.
  std::int64_t drops = 0;
  Cost drop_weight = 0;        ///< their summed drop costs
  std::int64_t reconfigs = 0;  ///< recoloring events in the bucket
  int distinct_colors = 0;     ///< configured non-black colors at bucket end
};

/// Builds the timeline with buckets of `bucket_width` rounds (>= 1).
/// The schedule is assumed valid; a malformed one throws InputError.
[[nodiscard]] std::vector<TimelineBucket> compute_timeline(
    const Instance& instance, const Schedule& schedule, Round bucket_width);

/// Renders a timeline as CSV (one row per bucket).
[[nodiscard]] CsvWriter timeline_csv(
    const std::vector<TimelineBucket>& timeline);

}  // namespace rrs
