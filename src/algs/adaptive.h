// Adaptive-split dLRU-EDF: an ARC-inspired extension (not in the paper).
//
// The paper's related-work section points at Megiddo & Modha's Adaptive
// Replacement Cache, which self-tunes the balance between its recency and
// frequency lists.  dLRU-EDF has the analogous knob — how much capacity
// the recency (LRU) half gets versus the deadline (EDF) half — fixed at
// 50/50 by the paper.  This extension tunes it online:
//
//   every kWindow rounds, compare the window's reconfiguration spend
//   (thrashing pressure) against its drop spend (underutilization
//   pressure); grow the LRU share by kStep when thrashing dominates
//   (pinned colors stop the flapping) and shrink it by kStep when drops
//   dominate (deadline-driven utilization needs room), staying within
//   [kMinFraction, kMaxFraction].
//
// The adaptation cannot break Theorem 1's machinery — every intermediate
// split is a valid dLRU-EDF configuration — but it can (and measurably
// does, see bench_a1_split) shave constant factors on skewed workloads.
#pragma once

#include <algorithm>

#include "algs/dlru_edf.h"

namespace rrs {

/// Self-tuning LRU/EDF capacity split.
class AdaptiveSplitPolicy : public DLruEdfPolicy {
 public:
  /// The split starts at the paper's even split and moves by kStep.
  static constexpr double kInitialFraction = 0.5;
  static constexpr double kMinFraction = 0.05;
  /// Below 1, so the LRU half always leaves an eviction victim.
  static constexpr double kMaxFraction = 0.9;
  static constexpr double kStep = 0.05;
  static constexpr Round kWindow = 64;  ///< rounds between decisions

  AdaptiveSplitPolicy() : DLruEdfPolicy(kInitialFraction) {}

  [[nodiscard]] std::string_view name() const override { return "adaptive"; }

  void begin(const ArrivalSource& source, int num_resources,
             int speed) override;
  void on_round(RoundContext& ctx) override;

  /// Between window boundaries the policy is a plain dLRU-EDF plus
  /// counters that only move on drops/insertions — none of which occur
  /// in an event-free span — so skipping is exact as long as the engine
  /// stops at the adaptation boundary as well as at dLRU-EDF's events.
  [[nodiscard]] Round next_policy_event(Round k) const override {
    const Round start = DLruEdfPolicy::next_policy_event(k);
    return start == kInfiniteHorizon ? window_end_
                                     : std::min(start, window_end_);
  }

  [[nodiscard]] std::vector<std::pair<std::string, std::int64_t>> stats()
      const override;

  /// Base checkpoint plus the live LRU split and the adaptation-window
  /// accumulators.  Restore rejects a split outside [kMinFraction,
  /// kMaxFraction] with InputError.
  void checkpoint_state(CheckpointWriter& w) const override;
  void restore_state(CheckpointReader& r) override;

 private:
  Cost window_drop_cost_ = 0;
  Cost window_reconfig_cost_ = 0;
  Round window_end_ = 0;
  std::int64_t adaptations_ = 0;
  /// Per-color cold re-image price, cached at begin(): each insertion of
  /// color c spends replication * cold_cost(c) (== replication * Delta
  /// under the scalar tier, matching the original accounting).
  std::vector<Cost> cold_costs_;
};

}  // namespace rrs
