// Schedule validation: the ground truth for every experiment.
//
// Every algorithm in this repository emits a Schedule.  The validator is
// a checker sink over replay() (core/replay.h), which first rejects
// malformed events; on the replayed run it checks the Section 2 rules:
//
//   * each job receives at most length(color) execution units (exactly "at
//     most once" under the paper's unit lengths);
//   * every execution unit of a job runs no earlier than its arrival round
//     and strictly before its deadline round (jobs with deadline k are
//     dropped in the drop phase of round k, which precedes execution);
//   * the executing resource is up and configured to the job's color at
//     that mini-round (reconfigurations in the same mini-round precede
//     execution);
//   * at most one execution per (resource, round, mini-round);
//   * churn fails only working resources and repairs only failed ones, and
//     no failed resource is recolored.
//
// Its cost is the one Schedule::cost sums over the same replay.
#pragma once

#include <string>
#include <vector>

#include "core/instance.h"
#include "core/schedule.h"

namespace rrs {

/// Outcome of validating one Schedule against one Instance.
struct ValidationResult {
  bool ok = false;
  std::vector<std::string> errors;  ///< capped at max_errors; empty if ok
  CostBreakdown cost;               ///< valid only when ok
};

/// Validates `schedule` against `instance`.  Collects up to `max_errors`
/// problems (so tests can report several at once) and computes the cost.
/// A schedule with a malformed event reports only those; the legality
/// checks run once every event is well formed.
[[nodiscard]] ValidationResult validate(const Instance& instance,
                                        const Schedule& schedule,
                                        int max_errors = 8);

/// Convenience used by tests: validates and throws InputError on failure,
/// returning the cost on success.
CostBreakdown validate_or_throw(const Instance& instance,
                                const Schedule& schedule);

}  // namespace rrs
