// Event-based schedules: the common artifact of every algorithm here.
//
// A Schedule records, for one Instance, each reconfiguration (which resource
// took which color, when), each execution (which job ran where, when) and
// each capacity-churn event the run applied.  Rounds may contain multiple
// mini-rounds (the double-speed machinery of Section 3.3 repeats the
// reconfiguration+execution phases); uni-speed schedules have speed() == 1.
//
// Storing events rather than the full per-round configuration keeps large
// simulations cheap.  replay() (core/replay.h) re-derives a recorded run's
// events, with every reconfiguration and charged repair priced from the
// replayed physical colors; cost, validation, metrics and timelines are
// sinks over that one replay.
#pragma once

#include <cstdint>
#include <vector>

#include "core/instance.h"
#include "core/run_events.h"
#include "core/types.h"

namespace rrs {

class CheckpointReader;
class CheckpointWriter;

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

/// A capacity-churn event, applied at the start of its round.
struct ChurnEvent {
  Round round = 0;
  std::int32_t resource = 0;
  bool fail = false;     ///< failure, or repair
  bool charged = false;  ///< a repair charged as one reconfiguration

  friend bool operator==(const ChurnEvent&, const ChurnEvent&) = default;
};

/// An explicit schedule for one Instance.
struct Schedule {
  int num_resources = 0;
  int speed = 1;  ///< mini-rounds per round (1 = uni-speed, 2 = double-speed)
  /// Reconfigurations, in nondecreasing (round, mini) order.
  std::vector<ReconfigEvent> reconfigs;
  /// Executions, in nondecreasing (round, mini) order.
  std::vector<ExecEvent> execs;
  /// Capacity churn, in nondecreasing round order.
  std::vector<ChurnEvent> churn;

  /// Cost against `instance` under its full cost model: the replayed price
  /// of every recoloring and charged repair plus the drop cost of every job
  /// not *completed* by its deadline — a job needs length(color) execution
  /// units, and partial execution earns nothing.  Throws InputError when
  /// an event is malformed (see replay()).
  [[nodiscard]] CostBreakdown cost(const Instance& instance) const;
};

/// Sums a run's cost from its events: every reconfiguration at its price,
/// every charged repair as a churn reconfiguration, every drop at its
/// weight.
class CostTally : public RunSink {
 public:
  CostBreakdown cost;

  void on_churn(const Churn& e) override;
  void on_drop(const Drop& e) override;
  void on_reconfig(const Reconfiguration& e) override;
};

/// The engine's recording sink: appends every reconfiguration, execution
/// and churn event to `schedule`, and carries it through checkpoints.
class ScheduleRecorder final : public RunSink {
 public:
  Schedule schedule;

  void on_churn(const Churn& e) override;
  void on_reconfig(const Reconfiguration& e) override;
  void on_exec(const ExecUnit& e) override;

  void checkpoint(CheckpointWriter& w) const;
  /// Restores checkpoint() events into a recorder whose schedule already
  /// has the run's num_resources and speed; every event must lie inside
  /// them and name a color below `num_colors`.  Commits only when every
  /// event parsed.
  void restore_checkpoint(CheckpointReader& r, ColorId num_colors);
};

}  // namespace rrs
