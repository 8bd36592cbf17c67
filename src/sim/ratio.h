// Competitive-ratio measurement methodology (see DESIGN.md).
//
// The true offline optimum is bracketed:
//   lower_bound <= OPT(m) <= heuristic_ub
// so for an online cost C the true ratio C / OPT(m) satisfies
//   C / heuristic_ub  <=  C / OPT(m)  <=  C / lower_bound.
// Experiments report both ends of the bracket; "constant competitive"
// claims are confirmed when even the conservative end (vs. the lower
// bound) stays flat, and "not competitive" claims when even the optimistic
// end (vs. the heuristic) grows.
//
// measure_ratio() brackets with the closed-form LB1/LB2 denominators and
// the demand-greedy numerator family.  measure_ratio_certified() runs the
// branch-and-bound solver (exact_bnb.h) instead: the bracket becomes
//   [C / incumbent, C / best_bound]
// where [best_bound, incumbent] is the solver's certified interval on
// OPT(m) — exact when it closes, and never wider than the closed-form
// bracket (best_bound >= max(LB1, LB2, LB3), incumbent <= greedy).
#pragma once

#include <string>

#include "core/instance.h"
#include "offline/exact_bnb.h"
#include "sim/runner.h"

namespace rrs {

/// A bracketed competitive-ratio measurement.
struct RatioReport {
  StreamRunRecord online;  ///< the online algorithm's run (n resources)
  int m = 0;               ///< offline resource count
  Cost lower_bound = 0;    ///< certified LB on OPT(m)
  Cost heuristic_ub = 0;   ///< best demand-greedy cost with m resources
  double ratio_vs_lb = 0;  ///< online / LB   (upper bound on true ratio)
  double ratio_vs_ub = 0;  ///< online / UB   (lower bound on true ratio)

  // Certified-interval fields (measure_ratio_certified only).
  Cost best_bound = 0;      ///< B&B certified LB on OPT(m)
  Cost certified_ub = 0;    ///< B&B incumbent (== OPT when opt_closed)
  bool opt_closed = false;  ///< the solver proved best_bound == OPT
  double ratio_upper = 0;   ///< online / best_bound
  double ratio_lower = 0;   ///< online / certified_ub
};

/// Runs `algorithm` with n resources and brackets its ratio against an
/// offline optimum with m resources.  `known_off_cost`, if positive,
/// overrides the heuristic upper bound (e.g. the explicit appendix OFF
/// schedules).
[[nodiscard]] RatioReport measure_ratio(const Instance& instance,
                                        const std::string& algorithm, int n,
                                        int m, Cost known_off_cost = -1);

/// Like measure_ratio, but brackets against the branch-and-bound certified
/// interval [best_bound, incumbent].  When n == m the online cost itself
/// seeds the incumbent (the online schedule is feasible offline with m
/// resources, so its cost certifies an upper bound on OPT(m)).
[[nodiscard]] RatioReport measure_ratio_certified(
    const Instance& instance, const std::string& algorithm, int n, int m,
    const BnbOptions& options = {});

}  // namespace rrs
