// The generalized cost model: drop weights, job lengths, and the
// reconfiguration cost function Delta(from -> to).
//
// The paper prices every recoloring at one scalar Delta, every drop at the
// job's (per-color) drop cost, and fixes every job at one unit of work.
// Production systems are rarely that uniform: re-imaging a resource for a
// heavyweight service costs more than for a stateless one, switching
// between two builds of the same stack is cheaper than a cold install, and
// jobs occupy a resource for several rounds.  CostModel bundles all three
// generalizations behind one audited abstraction with three reconfiguration
// tiers:
//
//   * kScalar — today's model: Delta(from -> to) == delta() for every pair.
//     This is the zero-overhead fast path; engines and cost recomputation
//     short-circuit to `events * delta()` and stay bit-identical to the
//     pre-CostModel code.
//   * kVector — a cold re-image price per *target* color:
//     Delta(from -> to) == cold_cost(to), independent of `from`.
//   * kMatrix — a full transition matrix with warm-transition discounts:
//     Delta(from -> to) may undercut cold_cost(to) for related colors.
//     Transitions from kBlack (an unconfigured resource) always price via
//     the cold column.
//
// Semantics shared by every tier:
//   * lengths are integer rounds of work, length(c) >= 1; a job completes
//     after length(c) execution units and is otherwise dropped at its FULL
//     drop weight (partial execution earns nothing — see DESIGN.md);
//   * recoloring a location to kBlack (freeing it) costs 0 and is not an
//     engine event; only the offline DP records such events explicitly;
//   * drop_cost(c) >= 1, cold costs >= 1, warm costs >= 0 (a free warm
//     transition is allowed; it still counts as a reconfiguration event).
#pragma once

#include <span>
#include <vector>

#include "core/types.h"
#include "util/check.h"

namespace rrs {

/// Value type bundling drop weights, job lengths, and Delta(from -> to).
/// Mutators are builder-time only; engines treat a CostModel as immutable.
class CostModel {
 public:
  enum class Tier { kScalar, kVector, kMatrix };

  /// Scalar Delta = 1, zero colors (the empty default).
  CostModel() = default;

  /// The paper's model: scalar `delta`, unit drop costs, unit lengths.
  [[nodiscard]] static CostModel scalar(Cost delta, ColorId num_colors);

  // --- builder-time mutators ---

  /// Grows the per-color tables to cover ColorIds < `num_colors` with unit
  /// drop costs and unit lengths (never shrinks).
  void resize(ColorId num_colors);

  /// Sets the scalar/base reconfiguration cost Delta (>= 1).  In the
  /// vector and matrix tiers delta() remains the base price used wherever
  /// a target-independent reference is needed (e.g. repairing a location
  /// that never held a color).
  void set_delta(Cost delta);

  void set_drop_cost(ColorId color, Cost weight);
  void set_length(ColorId color, Round length);

  /// Sets the cold re-image price of `to`, promoting the tier to at least
  /// kVector (unset colors default to delta()).
  void set_cold_cost(ColorId to, Cost cost);

  /// Sets Delta(from -> to), promoting the tier to kMatrix (unset entries
  /// default to the cold cost of their target).  `from` == kBlack sets the
  /// cold column entry of `to`.
  void set_transition_cost(ColorId from, ColorId to, Cost cost);

  /// Throws InputError if any entry violates the range rules above.
  void validate() const;

  // --- accessors ---

  [[nodiscard]] Tier tier() const { return tier_; }
  [[nodiscard]] ColorId num_colors() const {
    return static_cast<ColorId>(drop_costs_.size());
  }
  [[nodiscard]] Cost delta() const { return delta_; }

  [[nodiscard]] Cost drop_cost(ColorId color) const {
    return drop_costs_[checked(color)];
  }
  [[nodiscard]] Round length(ColorId color) const {
    return lengths_[checked(color)];
  }
  /// Every color's length, indexed by color.
  [[nodiscard]] std::span<const Round> lengths() const { return lengths_; }

  /// Delta(kBlack -> to): the cold re-image price of `to`.
  [[nodiscard]] Cost cold_cost(ColorId to) const {
    return tier_ == Tier::kScalar ? delta_ : cold_[checked(to)];
  }

  /// Delta(from -> to).  `from` may be kBlack (cold); `to` may be kBlack
  /// (freeing a location, always 0).
  [[nodiscard]] Cost reconfig_cost(ColorId from, ColorId to) const {
    if (to == kBlack) return 0;
    switch (tier_) {
      case Tier::kScalar:
        return delta_;
      case Tier::kVector:
        return cold_[checked(to)];
      case Tier::kMatrix:
        return from == kBlack
                   ? cold_[checked(to)]
                   : warm_[checked(from) * cold_.size() + checked(to)];
    }
    return delta_;  // unreachable
  }

  /// Cheapest way any schedule can first enter `to` (min over kBlack and
  /// every other color) — the LB1 generalization's per-color charge.
  [[nodiscard]] Cost min_incoming_cost(ColorId to) const;

  [[nodiscard]] bool unit_drop_costs() const { return unit_drop_costs_; }
  [[nodiscard]] bool unit_lengths() const { return unit_lengths_; }
  [[nodiscard]] bool scalar_reconfig() const {
    return tier_ == Tier::kScalar;
  }
  /// True iff this is exactly the paper's model: scalar Delta, unit drop
  /// costs, unit lengths.
  [[nodiscard]] bool uniform() const {
    return scalar_reconfig() && unit_drop_costs_ && unit_lengths_;
  }
  [[nodiscard]] Round max_length() const;

  /// The model restricted to `colors` (relabeled densely in span order):
  /// what a sharded stream hands its engine.  Transition entries between
  /// surviving colors and the cold column are preserved exactly, so
  /// sharded per-event charges match the serial run's.
  [[nodiscard]] CostModel restricted(std::span<const ColorId> colors) const;

  friend bool operator==(const CostModel&, const CostModel&) = default;

 private:
  [[nodiscard]] std::size_t checked(ColorId color) const {
    RRS_CHECK_MSG(color >= 0 &&
                      static_cast<std::size_t>(color) < drop_costs_.size(),
                  "CostModel: color " << color << " out of range [0, "
                                      << drop_costs_.size() << ")");
    return static_cast<std::size_t>(color);
  }

  void promote_to_vector();
  void promote_to_matrix();
  void refresh_uniform_flags();

  Tier tier_ = Tier::kScalar;
  Cost delta_ = 1;
  std::vector<Cost> drop_costs_;
  std::vector<Round> lengths_;
  std::vector<Cost> cold_;  ///< kVector/kMatrix: Delta(kBlack -> to)
  std::vector<Cost> warm_;  ///< kMatrix: row-major Delta(from -> to)
  bool unit_drop_costs_ = true;
  bool unit_lengths_ = true;
};

}  // namespace rrs
