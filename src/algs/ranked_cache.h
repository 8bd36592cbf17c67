// Shared machinery for the Section 3 reconfiguration schemes.
//
// Two orders recur throughout the paper: the EDF color ranking (Section
// 3.1.2 / 3.3: nonidle first, then ascending color deadline, then the
// consistent tiebreaks) and the dLRU recency ranking (Section 3.1.1:
// descending timestamp, ties by the same consistent color order).  The
// policies read both from the tracker's incremental rank index
// (EligibilityTracker::edf_top / edf_before / lru_order).  Section3Shadow
// (algs/section3_shadow.h) defines the same orders from scratch as EdfKey
// and LruKey and checks each policy phase against them.
// RankedCachePolicy is the Section 3.1 state machine the three schemes
// share, so each supplies only its reconfiguration rule.
#pragma once

#include <vector>

#include "core/color_state.h"
#include "core/pending.h"
#include "core/policy.h"
#include "core/types.h"
#include "util/check.h"

namespace rrs {

/// Base of dLRU, EDF and dLRU-EDF: owns the Section 3.1 per-color state
/// machine and everything around it that does not depend on which colors
/// the scheme caches — the tracker phases, the capacity-change count,
/// stats, per-color export/import and checkpoints.
/// A derived policy's on_round() is `if (ingest(ctx)) <rule>`.
class RankedCachePolicy : public Policy {
 public:
  void begin(const ArrivalSource& source, int num_resources,
             int speed) override;

  /// Every rule recomputes its targets against the live max_distinct()
  /// each round, so a capacity change only needs counting.
  void on_capacity_change(Round round, int up, int total,
                          std::span<const ColorId> evicted) override;

  /// Each rule is a pure function of tracker/pending/cache state.  Across
  /// an event-free span the cache and pending set are frozen and the
  /// tracker moves only quiescent colors' deadlines, on which no rule's
  /// pick depends while every color is idle and the recency order stands;
  /// so the engine may skip such spans wholesale.
  [[nodiscard]] bool supports_fast_forward() const override { return true; }

  /// The earliest block start >= k of an active color: one whose epoch
  /// ends there (eligible, not cached) or whose timestamp moves (it
  /// wrapped since the last one was recorded).  kInfiniteHorizon when no
  /// color is active.  The cache is the one the last round left: fault
  /// events, the only other thing that changes it, are stop rounds.
  /// Before its first round the policy has seen no cache and reports k.
  [[nodiscard]] Round next_policy_event(Round k) const override {
    return cache_ == nullptr ? k : tracker_.next_active_start(k, *cache_);
  }

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

  /// Checkpoint = the tracker plus the capacity-change count; ranking
  /// scratch is per-round and rebuilt on the next on_round().
  /// Derivatives extend by calling these and appending their own state.
  void checkpoint_state(CheckpointWriter& w) const override;
  void restore_state(CheckpointReader& r) override;

 protected:
  /// On the first mini-round, runs the tracker's drop and arrival phases.
  /// Returns false on the final sweep, where the cache is read-only and
  /// no rule may run.
  bool ingest(RoundContext& ctx);

  /// Erases and returns the worst-EDF-ranked cached color `skip` keeps
  /// (cached colors are eligible, so ranked).
  template <typename Skip>
  ColorId evict_worst(CacheAssignment& cache, const PendingJobs& pending,
                      Skip skip) const {
    ColorId worst = kBlack;
    for (const ColorId c : cache.cached_colors()) {
      if (skip(c)) continue;
      RRS_CHECK_MSG(tracker_.eligible(c),
                    "cached color " << c << " missing from EDF ranking");
      if (worst == kBlack || tracker_.edf_before(worst, c, pending)) worst = c;
    }
    RRS_CHECK_MSG(worst != kBlack, "no evictable cached color");
    cache.erase(worst);
    return worst;
  }

  EligibilityTracker tracker_;

 private:
  std::int64_t capacity_changes_ = 0;
  /// The engine's cache as of the last round (nullptr before the first).
  const CacheAssignment* cache_ = nullptr;
};

}  // namespace rrs
