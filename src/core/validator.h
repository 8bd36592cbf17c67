// Schedule validation: the ground truth for every experiment.
//
// Every algorithm in this repository — online policies run through the
// engine, the offline DP, the appendix OFF constructions, the reduction
// mappings — emits a Schedule.  The validator replays a Schedule against its
// Instance and checks the Section 2 model rules:
//
//   * events are ordered and in-range (rounds, mini-rounds, resources);
//   * each job receives at most length(color) execution units (exactly "at
//     most once" under the paper's unit lengths);
//   * every execution unit of a job runs no earlier than its arrival round
//     and strictly before its deadline round (jobs with deadline k are
//     dropped in the drop phase of round k, which precedes execution);
//   * the executing resource is configured to the job's color at that
//     mini-round (reconfigurations in the same mini-round precede execution);
//   * at most one execution per (resource, round, mini-round).
//
// It also recomputes the cost so tests can cross-check CostBreakdowns.
#pragma once

#include <string>
#include <vector>

#include "core/instance.h"
#include "core/schedule.h"

namespace rrs {

/// Outcome of validating one Schedule against one Instance.
struct ValidationResult {
  bool ok = false;
  std::vector<std::string> errors;  ///< capped; empty iff ok
  CostBreakdown cost;               ///< valid only when ok
};

/// Validates `schedule` against `instance`.  Collects up to `max_errors`
/// problems (so tests can report several at once) and computes the cost.
/// A schedule with a malformed event (out-of-range round, mini,
/// resource, job or color, or events out of order) reports only those;
/// the legality replay runs once every event is well formed.
[[nodiscard]] ValidationResult validate(const Instance& instance,
                                        const Schedule& schedule,
                                        int max_errors = 8);

/// Convenience used by tests: validates and throws InputError on failure,
/// returning the cost on success.
CostBreakdown validate_or_throw(const Instance& instance,
                                const Schedule& schedule);

}  // namespace rrs
