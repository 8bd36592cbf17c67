// Algorithm dLRU (Section 3.1.1): pure recency-based reconfiguration.
//
// Keeps the (up to) n/2 eligible colors with the most recent counter-wrap
// timestamps cached, each replicated in two locations, regardless of
// whether they have pending jobs.  The paper proves (Appendix A) that this
// is NOT resource competitive: it happily caches idle recently-used colors
// while a backlog of long-delay jobs drops.  Implemented both as a paper
// artifact and as the LRU half reused by dLRU-EDF.
#pragma once

#include "algs/ranked_cache.h"
#include "core/color_state.h"
#include "core/policy.h"
#include "util/stamped_map.h"

namespace rrs {

/// The dLRU reconfiguration scheme.  Run with EngineOptions{.replication=2}.
class DLruPolicy : public Policy {
 public:
  [[nodiscard]] std::string_view name() const override { return "dlru"; }

  void begin(const ArrivalSource& source, int num_resources,
             int speed) override;
  void on_round(RoundContext& ctx) override;
  void on_capacity_change(Round round, int up, int total,
                          std::span<const ColorId> evicted) override;

  /// dLRU's target set is a pure function of tracker state, which is
  /// provably frozen across an event-free span, so the engine may skip
  /// such spans wholesale.
  [[nodiscard]] bool supports_fast_forward() const override { return true; }

  [[nodiscard]] std::vector<std::pair<std::string, std::int64_t>> stats()
      const override;

  /// Per-color export/import (see PolicyColorState): the state is the
  /// tracker's Section 3.1 state machine (ranking scratch is per-round).
  [[nodiscard]] bool export_color_state(ColorId color,
                                        PolicyColorState& out) const override {
    out = tracker_.export_color(color);
    return true;
  }
  void import_color_state(ColorId color,
                          const PolicyColorState& state) override {
    tracker_.import_color(color, state);
  }

  /// Checkpoint = the tracker plus the two run counters; ranking scratch
  /// is per-round and rebuilt on the next on_round().
  void checkpoint_state(CheckpointWriter& w) const override;
  void restore_state(CheckpointReader& r) override;

 private:
  EligibilityTracker tracker_;
  std::vector<ColorId> evict_scratch_;
  StampedMap<char> in_target_;  // member of this round's LRU target set
  std::int64_t capacity_changes_ = 0;
  std::int64_t observed_epochs_ = 0;  // last epoch count traced to the obs
};

}  // namespace rrs
