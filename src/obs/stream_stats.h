#pragma once

#include <cstdint>
#include <span>
#include <tuple>
#include <vector>

#include "core/run_events.h"
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

/// O(1)-per-event streaming statistics fed the engine's run events: the
/// distributions, the per-color table, and the two totals the engine does
/// not count (drop_count, completed_weight).  Run totals such as arrivals,
/// completions, drop weight and churn live once, in the engine's
/// RunCounters; snapshots combine the two.
///
/// Each event carries what its statistic needs (wait and slack from the
/// unit's arrival and deadline, service and weight from the job), so the
/// hooks keep no per-color metadata and never allocate.  All aggregates
/// are integers (or integer-backed histograms), so merge_mapped() is exact
/// and order-independent — the foundation for the sharded additive-merge
/// guarantee.
class StreamStats {
 public:
  /// Resets and sizes the per-color table for colors [0, num_colors).
  void begin(ColorId num_colors) {
    *this = StreamStats{};
    per_color_.assign(static_cast<std::size_t>(num_colors), ColorObs{});
  }

  // --- hot-path hooks (all O(1) per job or unit, allocation-free) ---------

  void on_arrivals(const Arrivals& e) {
    for (const Job& job : e.jobs) {
      ++per_color_[static_cast<std::size_t>(job.color)].arrived;
    }
  }

  /// Every unit counts as work; a completing unit also records the job's
  /// wait (round - arrival), slack (deadline - 1 - round) and service
  /// demand, as compute_metrics does from the recorded schedule.
  void on_exec(const ExecUnit& e) {
    ColorObs& obs = per_color_[static_cast<std::size_t>(e.color)];
    ++obs.work_units;
    if (!e.completes()) return;
    const Round wait = e.round - e.arrival;
    wait_.record(wait);
    slack_.record(e.deadline - 1 - e.round);
    service_.record(e.length);
    completed_weight_ += e.weight;
    ++obs.executed;
    obs.wait_sum += wait;
  }

  void on_drop(const Drop& e) {
    drop_count_ += e.count;
    ColorObs& obs = per_color_[static_cast<std::size_t>(e.color)];
    obs.dropped += e.count;
    obs.dropped_weight += e.weight;
  }

  /// Called for each reconfiguration.  The inter-arrival histogram records
  /// gaps between distinct rounds with a reconfiguration (events within a
  /// round, mini-rounds included, collapse).
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
  /// merge_mapped() which deliberately drops it.  Restore requires begin()
  /// to have been called with the same color count first.
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
