// Event-based schedules: the common artifact of every algorithm here.
//
// A Schedule records, for one Instance, each reconfiguration (which resource
// took which color, when) and each execution (which job ran where, when).
// Rounds may contain multiple mini-rounds (the double-speed machinery of
// Section 3.3 repeats the reconfiguration+execution phases); uni-speed
// schedules have speed() == 1.
//
// Storing events rather than the full per-round configuration keeps large
// simulations cheap: cost is derivable directly (reconfigurations * Delta +
// unexecuted jobs), and the validator replays events to check legality.
#pragma once

#include <cstdint>
#include <vector>

#include "core/instance.h"
#include "core/types.h"

namespace rrs {

/// A single resource recoloring during some reconfiguration phase.
struct ReconfigEvent {
  Round round = 0;
  std::int32_t mini = 0;      ///< mini-round within the round (< speed)
  std::int32_t resource = 0;  ///< location being recolored
  ColorId color = kBlack;     ///< new color

  friend bool operator==(const ReconfigEvent&, const ReconfigEvent&) = default;
};

/// A single job execution during some execution phase.
struct ExecEvent {
  Round round = 0;
  std::int32_t mini = 0;
  std::int32_t resource = 0;
  JobId job = 0;

  friend bool operator==(const ExecEvent&, const ExecEvent&) = default;
};

/// An explicit schedule for one Instance.
struct Schedule {
  int num_resources = 0;
  int speed = 1;  ///< mini-rounds per round (1 = uni-speed, 2 = double-speed)
  /// Reconfigurations, in nondecreasing (round, mini) order.
  std::vector<ReconfigEvent> reconfigs;
  /// Executions, in nondecreasing (round, mini) order.
  std::vector<ExecEvent> execs;

  /// Cost against `instance` under its full cost model: the summed
  /// Delta(from -> to) of every recoloring (replaying per-resource
  /// configurations when the matrix tier needs the previous occupant) plus
  /// the summed drop costs of every job never *completed* — a job needs
  /// length(color) execution units, and partial execution earns nothing.
  /// Equals the unit-cost formula under the paper's scalar-uniform model.
  [[nodiscard]] CostBreakdown cost(const Instance& instance) const;
};

}  // namespace rrs
