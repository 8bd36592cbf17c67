// Fundamental vocabulary types for reconfigurable resource scheduling.
//
// Terminology follows the paper (Plaxton, Sun, Tiwari, Vin: "Reconfigurable
// Resource Scheduling with Variable Delay Bounds"):
//   * a *color* is a job category; resources must be configured to a job's
//     color to execute it;
//   * time advances in integer *rounds*, each with four phases
//     (drop -> arrival -> reconfiguration -> execution);
//   * *black* is the initial color of every resource; no job is black.
#pragma once

#include <cstdint>
#include <tuple>

#include "util/field_list.h"

namespace rrs {

/// Index of a job category.  Valid colors are >= 0; kBlack marks an
/// unconfigured resource.
using ColorId = std::int32_t;

/// The color every resource starts with; jobs are never black.
inline constexpr ColorId kBlack = -1;

/// Round index (time).  Signed so "one before round 0" is representable in
/// timestamp arithmetic.
using Round = std::int64_t;

/// Identifier of a job, dense within an Instance (index into its job table).
using JobId = std::int64_t;

/// Cost in the paper's unit system: drops cost 1, reconfigurations cost
/// Delta each.
using Cost = std::int64_t;

/// Cost of a run, split by source.
struct CostBreakdown {
  Cost reconfig_events = 0;  ///< number of single-resource recolorings
  /// Sum of Delta(from -> to) over all recolorings.  Equals
  /// reconfig_events * Delta under the scalar cost model (the paper's).
  Cost reconfig_cost = 0;
  /// Total drop cost of jobs never completed (count of dropped jobs under
  /// unit drop costs).
  Cost drops = 0;
  /// Churn-forced reconfigurations (repairs charged under
  /// EngineOptions::charge_repair).  A subset of reconfig_events — already
  /// included in reconfig_cost, so total() is unchanged.  Zero on
  /// fault-free runs.
  Cost churn_reconfigs = 0;

  static constexpr std::tuple kFields{
      Field{"reconfig_events", &CostBreakdown::reconfig_events},
      Field{"reconfig_cost", &CostBreakdown::reconfig_cost},
      Field{"drops", &CostBreakdown::drops},
      Field{"churn_reconfigs", &CostBreakdown::churn_reconfigs},
  };

  [[nodiscard]] Cost total() const { return reconfig_cost + drops; }

  CostBreakdown& operator+=(const CostBreakdown& other) {
    merge_fields(*this, other);
    return *this;
  }

  friend bool operator==(const CostBreakdown&, const CostBreakdown&) = default;
};

/// Capacity-churn counters for one run; all zero without a fault plan.
struct DegradedStats {
  std::int64_t fault_events = 0;     ///< failures applied
  std::int64_t repair_events = 0;    ///< repairs applied
  std::int64_t churn_evictions = 0;  ///< cached colors evicted by failures
  Round degraded_rounds = 0;  ///< rounds run with >= 1 location down
  Cost drops_while_degraded = 0;  ///< drop cost incurred in degraded rounds

  static constexpr std::tuple kFields{
      Field{"fault_events", &DegradedStats::fault_events},
      Field{"repair_events", &DegradedStats::repair_events},
      Field{"churn_evictions", &DegradedStats::churn_evictions},
      Field{"degraded_rounds", &DegradedStats::degraded_rounds},
      Field{"drops_while_degraded", &DegradedStats::drops_while_degraded},
  };

  DegradedStats& operator+=(const DegradedStats& other) {
    merge_fields(*this, other);
    return *this;
  }

  friend bool operator==(const DegradedStats&, const DegradedStats&) = default;
};

/// A run's totals: the one copy the engine accumulates and every record,
/// snapshot and checkpoint reads.  Merging runs (the shards of one run)
/// sums every counter except `rounds`, which takes the max.
struct RunCounters {
  CostBreakdown cost;
  std::int64_t executed = 0;  ///< jobs completed
  /// Execution units applied (== executed for unit lengths; partially
  /// executed jobs contribute units but never count as executed).
  std::int64_t work_units = 0;
  std::int64_t arrived = 0;  ///< jobs pulled from the source
  Round rounds = 0;          ///< rounds actually run
  /// Max pending-set size observed.  Merged over shards it is the sum of
  /// the per-shard peaks: shards run asynchronously, so the true global
  /// peak is unobservable and the sum is a deterministic upper bound.
  std::int64_t peak_pending = 0;
  DegradedStats degraded;  ///< capacity-churn counters

  static constexpr std::tuple kFields{
      Field{"cost", &RunCounters::cost},
      Field{"executed", &RunCounters::executed},
      Field{"work_units", &RunCounters::work_units},
      Field{"arrived", &RunCounters::arrived},
      Field{"rounds", &RunCounters::rounds, Merge::kMax},
      Field{"peak_pending", &RunCounters::peak_pending},
      Field{"degraded", &RunCounters::degraded},
  };

  RunCounters& operator+=(const RunCounters& other) {
    merge_fields(*this, other);
    return *this;
  }

  friend bool operator==(const RunCounters&, const RunCounters&) = default;
};

static_assert(only_listed_counters<CostBreakdown>());
static_assert(only_listed_counters<DegradedStats>());
static_assert(only_listed_counters<RunCounters>());

}  // namespace rrs
