// Certified offline optimum at mid scale: best-first branch-and-bound.
//
// Searches the same configuration-multiset state space as the round-
// synchronous DP in optimal.{h,cc} — states are (round, configured
// multiset, pending profile), transitions enumerate configuration
// multisets over demanded + currently configured colors with deterministic
// EDF-within-color execution — but explores it best-first (A*) instead of
// breadth-first:
//
//   * node bound: f = g + h with the admissible per-suffix bound from
//     lower_bound.h (SuffixBoundOracle: guaranteed drops + per-suffix
//     configure-or-drop and dyadic-capacity arms), so whole subtrees price
//     out against the incumbent;
//   * incumbent: seeded by the demand-greedy family, the trivial
//     drop-everything schedule, and an optional caller hint (e.g. the best
//     online policy cost — any certified upper bound on OPT);
//   * transposition table: states reached again at higher accumulated cost
//     are dropped; cheaper rediscoveries reopen (the suffix bound is
//     admissible but not consistent);
//   * dominance pruning: among expanded states with equal round and
//     configuration, a profile whose per-color deadline multisets are
//     pointwise easier (Hall-matchable to later deadlines) at no higher
//     cost dominates — the dominated node is pruned;
//   * sparse fast-forward: states with an empty pending profile jump
//     straight to the next arrival round (for the matrix tier, branching
//     over the free retire-to-black sub-multisets whose timing can matter
//     when Delta is non-metric);
//   * matrix tier at any m: transitions price via the exact min-cost
//     bijection of state_space.h (bitmask DP for m <= 8, Hungarian beyond
//     — past the DP solver's hard m <= 8 limit).
//
// Under a node budget the search returns a *certified interval*
// [best_bound, incumbent]: best_bound is max(root LB1/LB2/LB3, the
// smallest f still open), provably <= OPT; the incumbent is the cost of a
// feasible schedule (or valid hint), provably >= OPT.  When the search
// closes the gap the result is the exact optimum together with a witness
// schedule that replays through the validator at exactly that cost.
#pragma once

#include <cstdint>

#include "core/instance.h"
#include "core/schedule.h"
#include "offline/lower_bound.h"

namespace rrs {

/// Budget and seeding knobs for the branch-and-bound search.
struct BnbOptions {
  /// Maximum node expansions before returning an interval (>= 1).  The
  /// only budget: a search is a pure function of its inputs.
  std::int64_t max_nodes = 500'000;
  /// Caller-supplied upper bound on OPT (e.g. the best online policy cost
  /// with n == m and no faults); < 0 = none.  Must be the cost of a
  /// feasible schedule or otherwise certified >= OPT.
  Cost incumbent_hint = -1;
  /// Seed the incumbent with best_offline_heuristic_cost (recommended).
  bool seed_greedy = true;
  /// Subgradient iterations for the root LB3 (see LagrangianOptions).
  int lagrangian_iterations = 200;
  /// Enable dominance pruning between expanded profiles.
  bool use_dominance = true;
};

/// Outcome of the search: a certified interval, exact when closed.
struct BnbResult {
  Cost best_bound = 0;  ///< certified lower bound on OPT
  Cost incumbent = 0;   ///< certified upper bound on OPT
  bool closed = false;  ///< best_bound == incumbent == OPT
  /// True when `schedule` holds a witness achieving `incumbent`.  Always
  /// true when the search closes by draining the frontier (optimal-tying
  /// paths are never pruned); may be false if a budget stop happens to
  /// close the interval numerically via the frontier bound.
  bool has_witness = false;
  Schedule schedule;
  LowerBound root_bound;  ///< LB1/LB2/LB3 at the root
  std::int64_t nodes_expanded = 0;
  std::int64_t nodes_pruned_bound = 0;
  std::int64_t nodes_pruned_dominated = 0;
};

/// Runs the branch-and-bound search for `instance` with `m` resources.
/// Always returns a valid interval best_bound <= OPT <= incumbent; never
/// throws on budget exhaustion (only on invalid input).
[[nodiscard]] BnbResult exact_offline_bnb(const Instance& instance, int m,
                                          const BnbOptions& options = {});

}  // namespace rrs
