// Shared machinery for the Section 3 reconfiguration schemes.
//
// Two orders recur throughout the paper and are centralized here:
//   * the EDF color ranking (Section 3.1.2 / 3.3): eligible colors ranked
//     first on idleness (nonidle first), then ascending color deadline,
//     then ascending delay bound, then a consistent order of colors (we use
//     ascending ColorId everywhere, as the paper requires one consistent
//     order across all algorithms);
//   * the dLRU recency ranking (Section 3.1.1): descending timestamp,
//     ties broken by the same consistent order.
//
// The policies read both orders from the tracker's incremental rank index
// (EligibilityTracker::edf_top / edf_before / lru_order); edf_sort and
// lru_sort below rebuild them from scratch and are the reference the tests
// hold the index to.  RankedCachePolicy is the Section 3.1 state machine
// the three schemes share, so each supplies only its reconfiguration rule.
#pragma once

#include <vector>

#include "core/color_state.h"
#include "core/pending.h"
#include "core/policy.h"
#include "core/types.h"
#include "util/check.h"

namespace rrs {

/// Sort key for the EDF color ranking; smaller compares as better rank.
/// Under the generalized cost model, equal deadlines break toward heavier
/// per-job drop weights (more droppable value at stake) and then toward
/// shorter job lengths (more completions per slot); both fields are the
/// constant 1 under the paper's uniform model, so the ranking degenerates
/// to the original (idle, deadline, delay bound, color) order there.
struct EdfKey {
  bool idle = false;
  Round color_deadline = 0;
  Cost weight = 1;    ///< per-job drop cost of the color (descending)
  Round length = 1;   ///< per-job execution length (ascending)
  Round delay_bound = 0;
  ColorId color = 0;

  friend bool operator<(const EdfKey& a, const EdfKey& b) {
    if (a.idle != b.idle) return !a.idle;  // nonidle ranks first
    if (a.color_deadline != b.color_deadline)
      return a.color_deadline < b.color_deadline;
    if (a.weight != b.weight) return a.weight > b.weight;  // heavier first
    if (a.length != b.length) return a.length < b.length;  // shorter first
    if (a.delay_bound != b.delay_bound) return a.delay_bound < b.delay_bound;
    return a.color < b.color;
  }
};

/// Sort key for the dLRU recency ranking; smaller compares as better rank.
struct LruKey {
  Round timestamp = 0;
  ColorId color = 0;

  friend bool operator<(const LruKey& a, const LruKey& b) {
    if (a.timestamp != b.timestamp)
      return a.timestamp > b.timestamp;  // most recent first
    return a.color < b.color;
  }
};

/// Sorts `colors` best-rank-first by the EDF color ranking.
void edf_sort(std::vector<ColorId>& colors, const EligibilityTracker& tracker,
              const PendingJobs& pending);

/// Sorts `colors` most-recent-timestamp-first (dLRU order) as of round
/// `now`, ties by ascending ColorId.
void lru_sort(std::vector<ColorId>& colors, const EligibilityTracker& tracker,
              Round now);

/// Base of dLRU, EDF and dLRU-EDF: owns the Section 3.1 per-color state
/// machine and everything around it that does not depend on which colors
/// the scheme caches — the tracker phases, the epoch-turnover trace, the
/// capacity-change count, stats, per-color export/import and checkpoints.
/// A derived policy's on_round() is `if (ingest(ctx)) <rule>`.
class RankedCachePolicy : public Policy {
 public:
  void begin(const ArrivalSource& source, int num_resources,
             int speed) override;

  /// Every rule recomputes its targets against the live max_distinct()
  /// each round, so a capacity change only needs counting.
  void on_capacity_change(Round round, int up, int total,
                          std::span<const ColorId> evicted) override;

  /// Each rule is a pure function of tracker/pending/cache state, all of
  /// which are provably frozen across an event-free span, so the engine
  /// may skip such spans wholesale.
  [[nodiscard]] bool supports_fast_forward() const override { return true; }

  /// The tracker's next block start: its phases end epochs and advance
  /// color deadlines there even with nothing pending.
  [[nodiscard]] Round next_policy_event(Round k) const override {
    return tracker_.next_block_start(k);
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

  /// Checkpoint = the tracker plus the two run counters; ranking scratch
  /// is per-round and rebuilt on the next on_round().  Derivatives extend
  /// by calling these and appending their own state.
  void checkpoint_state(CheckpointWriter& w) const override;
  void restore_state(CheckpointReader& r) override;

  /// The tracker is exposed read-only so experiments can check the
  /// Section 3.2 lemmas (epoch counts, drop classification) directly.
  [[nodiscard]] const EligibilityTracker& tracker() const { return tracker_; }

 protected:
  /// On the first mini-round, runs the tracker's drop and arrival phases
  /// and traces an epoch turnover.  Returns false on the final sweep,
  /// where the cache is read-only and no rule may run.
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
  std::int64_t observed_epochs_ = 0;  // last epoch count traced to the obs
};

}  // namespace rrs
