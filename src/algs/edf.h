// Algorithm EDF (Section 3.1.2): pure deadline-based reconfiguration.
//
// Ranks eligible colors (nonidle first, then earliest color deadline,
// breaking ties by delay bound and then a consistent color order) and
// caches every nonidle color among the top max_distinct() ranks, evicting
// the worst-ranked cached color when full.  The paper proves (Appendix B)
// that this is NOT resource competitive: alternating idleness of a
// short-delay color makes EDF thrash long-delay colors in and out.
//
// The same policy doubles as Seq-EDF (Section 3.3) when run with
// replication 1 — Seq-EDF "is defined the same as EDF except that [it] uses
// all the cache capacity to cache distinct colors" — and as DS-Seq-EDF with
// speed 2.
#pragma once

#include "algs/ranked_cache.h"
#include "core/color_state.h"
#include "core/policy.h"
#include "util/stamped_map.h"

namespace rrs {

/// The EDF reconfiguration scheme.  Run with EngineOptions{.replication=2}
/// for the paper's EDF, {.replication=1} for Seq-EDF, and additionally
/// {.speed=2} for DS-Seq-EDF.
class EdfPolicy : public Policy {
 public:
  [[nodiscard]] std::string_view name() const override { return "edf"; }

  void begin(const ArrivalSource& source, int num_resources,
             int speed) override;
  void on_round(RoundContext& ctx) override;
  void on_capacity_change(Round round, int up, int total,
                          std::span<const ColorId> evicted) override;

  /// EDF is a pure function of tracker/pending/cache state, all of which
  /// are provably frozen across an event-free span, so the engine may
  /// skip such spans wholesale.
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
  StampedMap<std::int32_t> rank_pos_;
  std::int64_t capacity_changes_ = 0;
  std::int64_t observed_epochs_ = 0;  // last epoch count traced to the obs
};

}  // namespace rrs
