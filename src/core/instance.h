// Problem instances for reconfigurable resource scheduling.
//
// An Instance bundles everything the paper's [reconfig | drop | delay |
// batch] notation fixes for one input: the reconfiguration cost Delta, the
// per-color delay bounds D_l, and the request sequence (which jobs arrive in
// which round).  Instances are immutable once built; use InstanceBuilder.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "core/cost_model.h"
#include "core/job.h"
#include "core/types.h"

namespace rrs {

class InstanceBuilder;

/// Immutable problem instance.
///
/// Jobs are stored sorted by arrival round, and `Job::id` is the job's index
/// in `jobs()`.  The simulation horizon is the first round by which every
/// job has either been executed or dropped, so "drop cost" is exactly the
/// number of jobs a schedule never executes.
class Instance {
 public:
  /// An empty instance (no colors, no jobs, horizon 0).  Populated
  /// instances come from InstanceBuilder.
  Instance() = default;

  /// Reconfiguration cost Delta (a positive integer, as in the paper).
  [[nodiscard]] Cost delta() const { return delta_; }

  /// Number of colors; valid ColorIds are [0, num_colors()).
  [[nodiscard]] ColorId num_colors() const {
    return static_cast<ColorId>(delay_bounds_.size());
  }

  /// Category-specific delay bound D_l of `color`.
  [[nodiscard]] Round delay_bound(ColorId color) const;

  /// Drop cost of one `color` job (1 unless the weighted extension is
  /// used).
  [[nodiscard]] Cost drop_cost(ColorId color) const;

  /// Execution units a `color` job needs to complete (1 unless the length
  /// extension is used).
  [[nodiscard]] Round length(ColorId color) const;

  /// The full cost model: drop weights, lengths, and Delta(from -> to).
  /// delta()/drop_cost()/length() are shorthands into it.
  [[nodiscard]] const CostModel& cost_model() const { return model_; }

  /// Total drop cost of all jobs of `color`.
  [[nodiscard]] Cost weight_of_color(ColorId color) const;

  /// Total drop cost across all jobs (== jobs().size() for unit costs).
  [[nodiscard]] Cost total_weight() const { return total_weight_; }

  /// True iff every color has unit drop cost (the paper's setting).
  [[nodiscard]] bool unit_drop_costs() const { return unit_drop_costs_; }

  /// True iff every color has unit length (the paper's setting).
  [[nodiscard]] bool unit_lengths() const { return unit_lengths_; }

  /// All jobs, sorted by arrival round (ties in input order).
  [[nodiscard]] const std::vector<Job>& jobs() const { return jobs_; }

  /// Number of rounds to simulate: max job deadline (or an explicit larger
  /// value requested at build time).  Round indices run [0, horizon()).
  [[nodiscard]] Round horizon() const { return horizon_; }

  /// Jobs arriving in round `k` (the round-k request), as a span into
  /// jobs().  Empty requests yield an empty span.
  [[nodiscard]] std::span<const Job> arrivals_in_round(Round k) const;

  /// First round >= `k` with at least one arrival, or -1 when the rest of
  /// the sequence is arrival-free.  O(log #nonempty-rounds).
  [[nodiscard]] Round next_arrival_round(Round k) const;

  /// Number of jobs of `color` in the whole sequence.
  [[nodiscard]] std::int64_t jobs_of_color(ColorId color) const;

  /// True iff every color-l job arrives at an integral multiple of D_l
  /// (the `[... | D_l]` batch field).
  [[nodiscard]] bool is_batched() const { return batched_; }

  /// True iff is_batched() and at most D_l color-l jobs arrive at each
  /// multiple of D_l (the "rate-limited" special case of Section 3).
  [[nodiscard]] bool is_rate_limited() const { return rate_limited_; }

  /// The most jobs of `color` arriving within one block of D_l rounds
  /// (blocks start at multiples of D_l): on batched input, its top batch.
  [[nodiscard]] std::int64_t batch_bound(ColorId color) const;

  /// True iff every delay bound is a power of two.
  [[nodiscard]] bool all_delays_pow2() const { return all_pow2_; }

  /// Human-readable one-line summary ("L colors, J jobs, T rounds, ...").
  [[nodiscard]] std::string summary() const;

 private:
  friend class InstanceBuilder;

  Cost delta_ = 1;
  Round horizon_ = 0;
  Cost total_weight_ = 0;
  bool unit_drop_costs_ = true;
  bool unit_lengths_ = true;
  CostModel model_;
  std::vector<Round> delay_bounds_;
  std::vector<Cost> drop_costs_;
  std::vector<Round> lengths_;
  std::vector<Job> jobs_;
  std::vector<std::int64_t> jobs_per_color_;
  std::vector<std::int64_t> batch_bounds_;
  std::vector<Cost> weight_per_color_;
  // Index: arrival rounds (ascending, unique) and the offset into jobs_ at
  // which each round's request starts; parallel arrays.
  std::vector<Round> request_rounds_;
  std::vector<std::size_t> request_offsets_;  // size = request_rounds_+1
  bool batched_ = true;
  bool rate_limited_ = true;
  bool all_pow2_ = true;
};

/// Mutable builder for Instance.
class InstanceBuilder {
 public:
  /// Sets the reconfiguration cost Delta (default 1).  Must be >= 1.
  InstanceBuilder& delta(Cost d);

  /// Adds a color with delay bound `d` (>= 1), per-job drop cost
  /// `drop_cost` (>= 1; 1 is the paper's unit-cost setting), and per-job
  /// execution length `length` (>= 1; 1 is the paper's unit-job setting);
  /// returns its ColorId.
  ColorId add_color(Round d, Cost drop_cost = 1, Round length = 1);

  /// Sets the cold re-image price Delta(kBlack -> to) of an already-added
  /// color, promoting the instance's cost model to the vector tier (unset
  /// colors default to Delta).
  InstanceBuilder& reconfig_cost(ColorId to, Cost cost);

  /// Sets Delta(from -> to) between two already-added colors, promoting
  /// the cost model to the matrix tier (unset entries default to the cold
  /// cost of their target).  `from` == kBlack sets the cold column.
  InstanceBuilder& transition_cost(ColorId from, ColorId to, Cost cost);

  /// Adds `count` unit jobs of `color` arriving in round `arrival`.
  InstanceBuilder& add_jobs(ColorId color, Round arrival,
                            std::int64_t count = 1);

  /// Forces horizon() to be at least `h` (it is always at least the max
  /// job deadline).
  InstanceBuilder& min_horizon(Round h);

  /// Validates and produces the Instance.  The builder may not be reused.
  [[nodiscard]] Instance build();

 private:
  struct PendingArrival {
    ColorId color;
    Round arrival;
    std::int64_t count;
  };
  struct PendingTransition {
    ColorId from;  // kBlack = cold column
    ColorId to;
    Cost cost;
  };

  Cost delta_ = 1;
  Round min_horizon_ = 0;
  std::vector<Round> delay_bounds_;
  std::vector<Cost> drop_costs_;
  std::vector<Round> lengths_;
  std::vector<PendingTransition> transitions_;
  std::vector<PendingArrival> arrivals_;
  bool built_ = false;
};

}  // namespace rrs
