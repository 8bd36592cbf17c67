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

  [[nodiscard]] Cost total() const { return reconfig_cost + drops; }

  CostBreakdown& operator+=(const CostBreakdown& other) {
    reconfig_events += other.reconfig_events;
    reconfig_cost += other.reconfig_cost;
    drops += other.drops;
    churn_reconfigs += other.churn_reconfigs;
    return *this;
  }

  friend bool operator==(const CostBreakdown&, const CostBreakdown&) = default;
};

}  // namespace rrs
