#pragma once

#include <cstdint>
#include <span>
#include <tuple>
#include <vector>

#include "core/types.h"
#include "obs/histogram.h"
#include "util/check.h"
#include "util/field_list.h"

namespace rrs {

class CheckpointReader;
class CheckpointWriter;

/// Per-color streaming counters.  All integers: additive merge is exact.
struct ColorObs {
  std::int64_t arrived = 0;
  std::int64_t executed = 0;
  std::int64_t dropped = 0;
  Cost dropped_weight = 0;
  std::int64_t wait_sum = 0;
  /// Execution units applied to this color (== executed for unit lengths).
  std::int64_t work_units = 0;

  static constexpr std::tuple kFields{
      Field{"arrived", &ColorObs::arrived},
      Field{"executed", &ColorObs::executed},
      Field{"dropped", &ColorObs::dropped},
      Field{"dropped_weight", &ColorObs::dropped_weight},
      Field{"wait_sum", &ColorObs::wait_sum},
      Field{"work_units", &ColorObs::work_units},
  };

  /// Matches ColorMetrics::mean_wait bit-for-bit: waits are small
  /// nonnegative integers, so double accumulation of either the int64 sum
  /// or the individual samples is exact as long as the sum stays < 2^53.
  [[nodiscard]] double mean_wait() const {
    return executed == 0 ? 0.0
                         : static_cast<double>(wait_sum) /
                               static_cast<double>(executed);
  }

  friend bool operator==(const ColorObs&, const ColorObs&) = default;
};

static_assert(only_listed_counters<ColorObs>());

/// O(1)-per-event streaming statistics updated inside the engine phases:
/// the distributions, the per-color table, and the two totals the engine
/// does not count (drop_count, completed_weight).  Run totals such as
/// arrivals, completions, drop weight and churn live once, in the engine's
/// RunCounters; snapshots combine the two.
///
/// begin() caches the per-color delay bounds and drop costs so the hot-path
/// hooks never call back into the arrival source and never allocate.  All
/// aggregates are integers (or integer-backed histograms), so merge() /
/// merge_mapped() are exact and order-independent — the foundation for the
/// sharded additive-merge guarantee.
class StreamStats {
 public:
  /// Resets and sizes per-color state.  Spans are copied.  An empty
  /// `lengths` span means unit lengths (the paper's model).
  void begin(std::span<const Round> delay_bounds,
             std::span<const Cost> drop_costs,
             std::span<const Round> lengths = {}) {
    RRS_CHECK(delay_bounds.size() == drop_costs.size());
    RRS_CHECK(lengths.empty() || lengths.size() == delay_bounds.size());
    *this = StreamStats{};
    delay_bounds_.assign(delay_bounds.begin(), delay_bounds.end());
    drop_costs_.assign(drop_costs.begin(), drop_costs.end());
    if (lengths.empty()) {
      lengths_.assign(delay_bounds_.size(), 1);
    } else {
      lengths_.assign(lengths.begin(), lengths.end());
    }
    per_color_.assign(delay_bounds_.size(), ColorObs{});
  }

  // --- hot-path hooks (all O(1), allocation-free) --------------------------

  void on_arrival(ColorId color) {
    ++per_color_[static_cast<std::size_t>(color)].arrived;
  }

  /// Called just before a job of `color` with the given deadline executes in
  /// round `round`.  Derives wait and slack the same way compute_metrics
  /// does from the materialized schedule:
  ///   wait  = round - arrival = round - (deadline - delay_bound)
  ///   slack = deadline - 1 - round
  void on_execution(ColorId color, Round round, Round deadline) {
    const std::size_t c = static_cast<std::size_t>(color);
    const Round wait = round - (deadline - delay_bounds_[c]);
    const Round slack = deadline - 1 - round;
    wait_.record(wait);
    slack_.record(slack);
    service_.record(lengths_[c]);
    completed_weight_ += drop_costs_[c];
    ColorObs& obs = per_color_[c];
    ++obs.executed;
    obs.wait_sum += wait;
  }

  /// Called once per execution unit (including the completing one, which
  /// additionally fires on_execution).
  void on_work_unit(ColorId color) {
    ++per_color_[static_cast<std::size_t>(color)].work_units;
  }

  void on_drop(ColorId color, std::int64_t count) {
    const std::size_t c = static_cast<std::size_t>(color);
    const Cost weight = count * drop_costs_[c];
    drop_count_ += count;
    ColorObs& obs = per_color_[c];
    obs.dropped += count;
    obs.dropped_weight += weight;
  }

  /// Called once per cache phase that commits at least one
  /// reconfiguration.  The inter-arrival histogram records gaps between
  /// distinct rounds with a reconfiguration (mini-rounds within a round
  /// collapse).
  void on_reconfigs(Round round) {
    if (round != last_reconfig_round_) {
      if (last_reconfig_round_ >= 0) {
        reconfig_gap_.record(round - last_reconfig_round_);
      }
      last_reconfig_round_ = round;
    }
  }

  // --- accessors -----------------------------------------------------------

  [[nodiscard]] const Histogram& wait() const { return wait_; }
  [[nodiscard]] const Histogram& slack() const { return slack_; }
  [[nodiscard]] const Histogram& service() const { return service_; }
  [[nodiscard]] const Histogram& reconfig_gap() const { return reconfig_gap_; }
  [[nodiscard]] const std::vector<ColorObs>& per_color() const {
    return per_color_;
  }
  [[nodiscard]] Cost completed_weight() const { return completed_weight_; }
  [[nodiscard]] std::int64_t drop_count() const { return drop_count_; }

  // --- checkpoint ----------------------------------------------------------

  /// Serializes every accumulator, including the reconfig-gap cursor
  /// (last_reconfig_round_) — it is live inter-round state, unlike
  /// merge_mapped() which deliberately drops it.  The begin()-supplied
  /// per-color metadata (delay bounds, drop costs, lengths) is NOT
  /// serialized: restore requires begin() to have been called with the
  /// same color space first.
  void checkpoint(CheckpointWriter& w) const;
  void restore_checkpoint(CheckpointReader& r);

  // --- merge ---------------------------------------------------------------

  /// Merge a shard's stats into this (global) stats object, relabeling the
  /// shard's dense local colors through `to_global` (local index -> global
  /// ColorId), as produced by ShardPlan::shard_colors.  The reconfig-gap
  /// cursor (last_reconfig_round_) is per-engine state and does not merge:
  /// the merged gap histogram is the exact union of the per-engine gap
  /// samples.
  void merge_mapped(const StreamStats& other,
                    std::span<const ColorId> to_global) {
    RRS_REQUIRE(to_global.size() == other.per_color_.size(),
                "StreamStats::merge_mapped: relabeling size mismatch");
    merge_fields(*this, other);
    for (std::size_t local = 0; local < to_global.size(); ++local) {
      const auto global = static_cast<std::size_t>(to_global[local]);
      RRS_REQUIRE(global < per_color_.size(),
                  "StreamStats::merge_mapped: global color out of range");
      merge_fields(per_color_[global], other.per_color_[local]);
    }
  }

  friend bool operator==(const StreamStats&, const StreamStats&) = default;

 private:
  std::vector<Round> delay_bounds_;
  std::vector<Cost> drop_costs_;
  std::vector<Round> lengths_;
  std::vector<ColorObs> per_color_;
  Histogram wait_;
  Histogram slack_;
  Histogram service_;
  Histogram reconfig_gap_;
  Cost completed_weight_ = 0;
  std::int64_t drop_count_ = 0;
  Round last_reconfig_round_ = -1;

 public:
  /// The aggregates that merge and checkpoint, in checkpoint order (the
  /// per-color table and the reconfig-gap cursor are handled beside them).
  static constexpr std::tuple kFields{
      Field{"completed_weight", &StreamStats::completed_weight_},
      Field{"drop_count", &StreamStats::drop_count_},
      Field{"wait", &StreamStats::wait_},
      Field{"slack", &StreamStats::slack_},
      Field{"service", &StreamStats::service_},
      Field{"reconfig_gap", &StreamStats::reconfig_gap_},
  };
};

}  // namespace rrs
