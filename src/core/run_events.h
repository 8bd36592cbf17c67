// One run's events: the single vocabulary every consumer of a run reads.
//
// The Section 2 model runs each round as churn, drop, arrival, then per
// mini-round a reconfiguration phase priced by Delta and an execution
// phase; a run's cost is the priced reconfigurations (charged repairs
// included) plus the dropped weight.  The engine emits each event once to
// its sinks (the schedule recorder and the Observer); replay()
// (core/replay.h) re-derives the same stream from a recorded Schedule.
// Within a round the order is churn, drops, arrivals, then per mini-round
// its reconfigurations and execution units by location, then the end.
#pragma once

#include <cstdint>
#include <span>

#include "core/job.h"
#include "core/types.h"

namespace rrs {

/// One round's request entering the pending set (rounds without one emit
/// none).
struct Arrivals {
  Round round = 0;
  std::span<const Job> jobs;
};

/// One physical recoloring of a location.
struct Reconfiguration {
  Round round = 0;
  std::int32_t mini = 0;
  std::int32_t location = 0;
  ColorId from = kBlack;  ///< the location's previous physical color
  ColorId to = kBlack;
  Cost price = 0;  ///< Delta(from -> to) under the run's CostModel
};

/// One execution unit applied to a job.
struct ExecUnit {
  Round round = 0;
  std::int32_t mini = 0;
  std::int32_t location = 0;
  JobId job = 0;
  ColorId color = 0;            ///< the job's color
  ColorId configured = kBlack;  ///< the location's (== color when legal)
  Round arrival = 0;
  Round deadline = 0;
  Round length = 1;  ///< units the job needs
  Cost weight = 1;   ///< its drop cost
  /// Units the job still needs after this one: 0 when this unit completes
  /// it, negative when a replayed schedule runs it past its length.
  Round left = 0;

  [[nodiscard]] bool completes() const { return left == 0; }
};

/// Jobs of one color expired at their deadline (an undrained run's
/// terminal sweep also expires jobs due later).
struct Drop {
  Round round = 0;
  ColorId color = 0;
  std::int64_t count = 0;
  Cost weight = 0;  ///< their summed drop costs
};

/// One capacity-churn event, applied at the start of its round.
struct Churn {
  Round round = 0;
  std::int32_t location = 0;
  bool fail = false;  ///< failure (contents lost) or repair (back blank)
  /// A failure: the physical color it destroyed.  A repair: the color its
  /// failure destroyed, which prices re-imaging it.
  ColorId lost = kBlack;
  bool charged = false;  ///< a repair charged as one reconfiguration
  Cost price = 0;        ///< its charge (0 unless charged)
};

/// The end of a round.  An engine attaches its running totals and the
/// pending-set size; a replay has neither (`totals` is nullptr).
struct RoundEnd {
  Round round = 0;
  const RunCounters* totals = nullptr;
  std::int64_t pending = 0;
};

/// A consumer of one run's events.  Every hook defaults to a no-op.
class RunSink {
 public:
  virtual ~RunSink() = default;
  virtual void on_churn(const Churn&) {}
  virtual void on_drop(const Drop&) {}
  virtual void on_arrivals(const Arrivals&) {}
  virtual void on_reconfig(const Reconfiguration&) {}
  virtual void on_exec(const ExecUnit&) {}
  virtual void on_round_end(const RoundEnd&) {}
};

}  // namespace rrs
