// Demand-following baselines: upper bounds on the offline optimum.
//
// The competitive-ratio experiments bracket the (intractable) OPT from
// both sides: certified lower bounds (lower_bound.h) from below, and the
// cheapest of a family of demand-greedy schedules from above.  Each
// variant runs m unreplicated resources and switches a resource to a new
// color only when the new color's backlog exceeds the incumbent's by a
// hysteresis threshold (measured in jobs), so threshold ~ Delta amortizes
// every reconfiguration against potential drops.  Colors with fewer than
// Delta total jobs can optionally be ignored outright (they are cheaper to
// drop than to configure — the Lemma 3.1 regime).
#pragma once

#include <vector>

#include "core/engine.h"
#include "core/instance.h"
#include "core/policy.h"

namespace rrs {

/// One demand-greedy configuration.
struct DemandGreedyParams {
  /// Hysteresis in droppable value; 0 = use the candidate color's cold
  /// reconfiguration price (== Delta under the scalar cost model).
  Cost switch_threshold = 0;
  /// Ignore colors whose total droppable weight is below their cold
  /// reconfiguration price (cheaper to drop than to configure — the
  /// Lemma 3.1 regime; "fewer than Delta jobs" under the unit model).
  bool skip_small_colors = false;
  /// Replace an idle incumbent without meeting the threshold.  Eager
  /// replacement utilizes resources but can thrash on alternating demand
  /// (the paper's Section 1 dilemma) — the best-of family tries both.
  bool replace_idle_freely = true;
};

/// Greedy policy: each round, rank colors by pending backlog (earliest
/// color deadline as tiebreak) and keep the m largest backlogs configured,
/// subject to the hysteresis threshold.
class DemandGreedyPolicy : public Policy {
 public:
  explicit DemandGreedyPolicy(DemandGreedyParams params = {})
      : params_(params) {}

  [[nodiscard]] std::string_view name() const override {
    return "demand-greedy";
  }

  void begin(const ArrivalSource& source, int num_resources,
             int speed) override;
  void on_round(RoundContext& ctx) override;

 private:
  DemandGreedyParams params_;
  Cost threshold_ = 0;  ///< 0 = per-candidate cold cost
  std::vector<Cost> cold_costs_;
  std::vector<Cost> drop_costs_;
  std::vector<char> skip_color_;
  std::vector<ColorId> scratch_;
};

/// Runs one demand-greedy variant with `m` resources.
[[nodiscard]] EngineResult run_demand_greedy(const Instance& instance, int m,
                                             DemandGreedyParams params = {});

/// Best (cheapest) cost across a default family of demand-greedy variants
/// — a practical upper bound on Cost_OPT(m).
[[nodiscard]] Cost best_offline_heuristic_cost(const Instance& instance,
                                               int m);

}  // namespace rrs
