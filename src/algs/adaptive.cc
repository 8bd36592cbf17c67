#include "algs/adaptive.h"

#include <algorithm>
#include <cmath>

#include "core/checkpoint.h"
#include "util/check.h"

namespace rrs {

void AdaptiveSplitPolicy::begin(const ArrivalSource& source, int num_resources,
                                int speed) {
  DLruEdfPolicy::begin(source, num_resources, speed);
  const CostModel& model = source.cost_model();
  cold_costs_.resize(static_cast<std::size_t>(source.num_colors()));
  for (ColorId c = 0; c < source.num_colors(); ++c) {
    cold_costs_[static_cast<std::size_t>(c)] = model.cold_cost(c);
  }
  window_drop_cost_ = 0;
  window_reconfig_cost_ = 0;
  window_end_ = kWindow;
  adaptations_ = 0;
}

void AdaptiveSplitPolicy::on_round(RoundContext& ctx) {
  const Round k = ctx.round();
  if (ctx.first_mini()) {
    // Window accounting rides the drop phase.  Drops are weighted by
    // their per-color cost so the pressure comparison stays
    // apples-to-apples with the reconfiguration spend (identical to the
    // drop count under unit weights).
    for (const auto& [color, count] : ctx.dropped().by_color) {
      window_drop_cost_ += count * tracker_.drop_cost(color);
    }

    if (k >= window_end_) {
      // Thrashing pressure -> pin more (grow the LRU share); drop pressure
      // -> utilize more (grow the EDF share).  Ties leave the split alone.
      double fraction = lru_fraction();
      if (window_reconfig_cost_ > window_drop_cost_) {
        fraction += kStep;
      } else if (window_drop_cost_ > window_reconfig_cost_) {
        fraction -= kStep;
      }
      fraction = std::clamp(fraction, kMinFraction, kMaxFraction);
      if (fraction != lru_fraction()) {
        set_lru_fraction(fraction);
        ++adaptations_;
      }
      window_drop_cost_ = 0;
      window_reconfig_cost_ = 0;
      window_end_ = k + kWindow;
    }
  }
  if (ctx.final_sweep()) return;

  // Count this phase's insertions (each costs replication * the inserted
  // color's cold re-image price; == replication * Delta under the scalar
  // tier).  The rule never evicts a color it inserts in the same phase,
  // nor re-inserts one it evicts, so the inserts are the net new colors.
  DLruEdfPolicy::on_round(ctx);
  for (const MembershipChange& m : ctx.cache().membership_changes()) {
    if (m.inserted) {
      window_reconfig_cost_ += Cost{ctx.cache().replication()} *
                               cold_costs_[static_cast<std::size_t>(m.color)];
    }
  }
}

std::vector<std::pair<std::string, std::int64_t>>
AdaptiveSplitPolicy::stats() const {
  auto stats = DLruEdfPolicy::stats();
  stats.emplace_back("adaptations", adaptations_);
  stats.emplace_back("final_lru_percent",
                     static_cast<std::int64_t>(lru_fraction() * 100.0));
  return stats;
}

void AdaptiveSplitPolicy::checkpoint_state(CheckpointWriter& w) const {
  DLruEdfPolicy::checkpoint_state(w);
  w.f64(lru_fraction());
  w.i64(window_drop_cost_);
  w.i64(window_reconfig_cost_);
  w.i64(window_end_);
  w.i64(adaptations_);
}

void AdaptiveSplitPolicy::restore_state(CheckpointReader& r) {
  DLruEdfPolicy::restore_state(r);
  // The split comes from outside the program: a non-finite or negative
  // value would reach an undefined float-to-size conversion.
  const double fraction = r.f64();
  RRS_REQUIRE(std::isfinite(fraction) && fraction >= kMinFraction &&
                  fraction <= kMaxFraction,
              "checkpoint LRU fraction " << fraction << " out of range");
  set_lru_fraction(fraction);
  window_drop_cost_ = r.i64();
  window_reconfig_cost_ = r.i64();
  window_end_ = r.i64();
  adaptations_ = r.i64();
}

}  // namespace rrs
