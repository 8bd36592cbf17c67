// Algorithm dLRU-EDF (Section 3.1.3): the paper's main contribution.
//
// A combination of recency and deadline caching, with the cache capacity
// split in half:
//   * the LRU half always holds the (up to) n/4 eligible colors with the
//     most recent counter-wrap timestamps — *whether or not they have
//     pending jobs* — which prevents thrashing on intermittently idle
//     short-delay colors;
//   * the EDF half brings in every nonidle non-LRU color in the top n/4 of
//     the EDF ranking, which keeps resources utilized.
// Evictions always take the worst-EDF-ranked cached non-LRU color.
//
// Theorem 1 proves this resource competitive for rate-limited
// [Delta | 1 | D_l | D_l] with power-of-two delay bounds when n = 8m.
#pragma once

#include "algs/ranked_cache.h"
#include "util/stamped_map.h"

namespace rrs {

/// The dLRU-EDF reconfiguration scheme.  Run with
/// EngineOptions{.replication=2}; num_resources must be divisible by 4.
///
/// `lru_fraction` generalizes the paper's even capacity split for ablation
/// studies: the LRU half holds floor(lru_fraction * max_distinct) colors
/// (clamped to max_distinct - 1 so an eviction victim always exists) and
/// the EDF half targets the remaining capacity.  The paper's algorithm is
/// lru_fraction = 0.5; 0.0 degenerates toward EDF and values near 1.0
/// toward dLRU.
class DLruEdfPolicy : public RankedCachePolicy {
 public:
  explicit DLruEdfPolicy(double lru_fraction = 0.5)
      : lru_fraction_(lru_fraction) {}

  [[nodiscard]] std::string_view name() const override { return "dlru-edf"; }

  void begin(const ArrivalSource& source, int num_resources,
             int speed) override;
  void on_round(RoundContext& ctx) override;

  /// n must split into the LRU and EDF halves, each of replicated colors.
  [[nodiscard]] int resource_granularity(int replication) const override {
    return 2 * replication;
  }

  /// Turns on Section 3.4 super-epoch accounting (Lemma 3.15 /
  /// Corollary 3.2 quantities) for offline resource count `m`.  Call
  /// before the run starts.
  void enable_super_epoch_analysis(int m) {
    tracker_.enable_super_epoch_analysis(m);
  }

 protected:
  /// For adaptive derivatives (see algs/adaptive.h): retune the capacity
  /// split between rounds.  Must stay in [0, 1).
  void set_lru_fraction(double fraction) { lru_fraction_ = fraction; }
  [[nodiscard]] double lru_fraction() const { return lru_fraction_; }

 private:
  double lru_fraction_;
  StampedMap<char> is_lru_;        // member of this round's LRU target set
  StampedMap<char> is_protected_;  // inserted by the EDF half this phase
};

}  // namespace rrs
