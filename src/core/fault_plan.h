// Deterministic capacity-churn schedules for fault-injection runs.
//
// The paper's model assumes a pristine pool of n resources; real fleets
// lose and regain capacity continuously (cf. the reallocation-problem
// line of work: Bender et al., "Reallocation Problems in Scheduling").
// A FaultPlan is a seed-reproducible list of failure/repair events the
// engine applies at the start of each round, before the drop and arrival
// phases: a failed location loses its configured color (the cached color
// occupying it is evicted) and stops executing; a repaired location comes
// back blank (physically black), so re-imaging it costs Delta like any
// other recoloring.
//
// make_mtbf_plan generates the standard model, independent per-resource
// up/down renewal processes with exponential MTBF/MTTR, as a pure function
// of its parameter struct, so every fault experiment is exactly
// reproducible from a seed.  Any other schedule is written out by hand as
// explicit events.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/types.h"

namespace rrs {

/// One capacity-churn event, applied at the start of `round` before that
/// round's drop and arrival phases.
struct FaultEvent {
  Round round = 0;
  int resource = 0;  ///< location index in [0, num_resources)
  bool fail = true;  ///< true = failure, false = repair

  friend bool operator==(const FaultEvent&, const FaultEvent&) = default;
};

/// A failure/repair schedule: events sorted by round, applied in order
/// (within one round, vector order).  Events at rounds the run never
/// reaches are ignored.
struct FaultPlan {
  std::vector<FaultEvent> events;

  [[nodiscard]] bool empty() const { return events.empty(); }

  friend bool operator==(const FaultPlan&, const FaultPlan&) = default;
};

/// Throws InputError unless `plan` is well-formed for a pool of
/// `num_resources` locations: rounds nonnegative and nondecreasing,
/// resource indices in range, and every resource alternating
/// failure/repair starting with a failure.
void validate_fault_plan(const FaultPlan& plan, int num_resources);

/// Parameters for make_mtbf_plan.
struct MtbfParams {
  int num_resources = 1;
  Round horizon = 0;       ///< events generated in rounds [0, horizon)
  double mean_up = 1000;   ///< mean rounds between failures (MTBF)
  double mean_down = 50;   ///< mean rounds to repair (MTTR)
  std::uint64_t seed = 1;
};

/// Independent per-resource renewal processes: each resource starts up and
/// alternates exponentially distributed up/down intervals (each at least
/// one round).  A resource still down at the horizon stays down.
[[nodiscard]] FaultPlan make_mtbf_plan(const MtbfParams& params);

/// Splits a plan over global resource indices into one per-shard plan,
/// where shard s owns the contiguous block of `shard_resources[s]`
/// locations starting at sum(shard_resources[0..s)) — the layout
/// run_streaming_sharded gives its shard engines.  Each event maps to the
/// owning shard with a local index.
[[nodiscard]] std::vector<FaultPlan> split_fault_plan(
    const FaultPlan& plan, std::span<const int> shard_resources);

}  // namespace rrs
