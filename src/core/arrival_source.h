// Arrival sources: the engine's pull-based input abstraction.
//
// An ArrivalSource answers two kinds of questions:
//   * static problem metadata, fixed before round 0 — the reconfiguration
//     cost Delta, the color set with its delay bounds D_l and drop costs;
//   * the request sequence, one round at a time: arrivals_in_round(k)
//     yields the round-k request as a span valid until the next pull.
//
// Sources follow a finite/infinite *horizon contract*: horizon() returns
// the number of rounds carrying arrivals, or kInfiniteHorizon for an
// unbounded stream (callers must then bound runs via
// EngineOptions::max_rounds).  Streaming sources synthesize each round on
// demand, so a run's memory footprint is O(pending jobs + colors) no
// matter how long the horizon; MaterializedSource adapts an in-memory
// Instance so all offline machinery keeps working unchanged.
#pragma once

#include <algorithm>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "core/instance.h"
#include "core/job.h"
#include "core/types.h"

namespace rrs {

class CheckpointReader;
class CheckpointWriter;

/// Sentinel horizon of an unbounded stream.
inline constexpr Round kInfiniteHorizon = -1;

/// Abstract pull-based arrival stream plus problem metadata.
///
/// Pull contract: the engine (and materialize()) call arrivals_in_round()
/// with consecutive rounds k = 0, 1, 2, ...; the returned span is valid
/// only until the next pull.  Jobs must carry dense ids in pull order,
/// arrival == k, and per-color constant delay_bound/drop_cost matching the
/// metadata accessors (exactly what InstanceBuilder would produce for the
/// same sequence).
class ArrivalSource {
 public:
  virtual ~ArrivalSource() = default;

  // --- static problem metadata ---

  /// Reconfiguration cost Delta (>= 1).
  [[nodiscard]] virtual Cost delta() const = 0;

  /// Number of colors; valid ColorIds are [0, num_colors()).
  [[nodiscard]] virtual ColorId num_colors() const = 0;

  /// Category-specific delay bound D_l of `color`.
  [[nodiscard]] virtual Round delay_bound(ColorId color) const = 0;

  /// Drop cost of one `color` job (1 in the paper's unit-cost setting).
  [[nodiscard]] virtual Cost drop_cost(ColorId color) const = 0;

  /// Execution units a `color` job needs to complete (1 in the paper's
  /// unit-job setting).
  [[nodiscard]] virtual Round length(ColorId color) const {
    RRS_REQUIRE(color >= 0 && color < num_colors(),
                "color " << color << " out of range [0, " << num_colors()
                         << ")");
    return 1;
  }

  /// The full cost model.  The base implementation synthesizes a scalar
  /// model from delta()/drop_cost()/length() lazily; sources with richer
  /// pricing (matrix Delta, instance-backed) override this.
  [[nodiscard]] virtual const CostModel& cost_model() const;

  /// Distinct delay bounds, ascending, with the colors that carry each
  /// (the classes of EligibilityTracker's BlockCalendar).  The base
  /// implementation derives it lazily from the metadata accessors.
  [[nodiscard]] virtual const std::map<Round, std::vector<ColorId>>&
  colors_by_delay() const;

  // --- horizon contract ---

  /// Number of rounds that may carry arrivals: arrivals_in_round(k) is
  /// empty for k >= horizon().  kInfiniteHorizon for unbounded streams.
  [[nodiscard]] virtual Round horizon() const = 0;

  /// True iff the source ends (horizon() != kInfiniteHorizon).
  [[nodiscard]] bool finite() const { return horizon() != kInfiniteHorizon; }

  // --- the pull interface ---

  /// Jobs arriving in round `k`, synthesized on demand.  Must be called
  /// with consecutive k starting at 0; the span is valid until the next
  /// call.  (MaterializedSource additionally supports random access.)
  [[nodiscard]] virtual std::span<const Job> arrivals_in_round(Round k) = 0;

  /// Fast-forward hint: the first round in [k, limit) that *may* carry
  /// arrivals, or `limit` when none does.  `k` must be the round the next
  /// arrivals_in_round() pull would use, and `limit >= k`.  After a call
  /// returns r, the source must accept a pull at any round in [k, r]
  /// (implementations that scan ahead remember the scanned-and-empty
  /// span).  Returning `k` is always correct — it just means "no skip" —
  /// and is the default, so unaudited sources are never skipped past.
  [[nodiscard]] virtual Round next_event_round(Round k, Round limit) {
    (void)limit;
    return k;
  }

  /// The backing Instance when the whole sequence is in memory, nullptr
  /// for true streams.  Policies needing whole-sequence knowledge (e.g.
  /// offline heuristics) must check this.
  [[nodiscard]] virtual const Instance* materialized() const {
    return nullptr;
  }

  /// Human-readable one-line summary for diagnostics.
  [[nodiscard]] virtual std::string summary() const;

  // --- checkpoint/restore (crash-safe service mode) ---

  /// Serializes the source's stream position (cursors, RNG streams, any
  /// scanned-ahead buffer) into the writer's current section so a freshly
  /// constructed source with the same parameters resumes the identical
  /// job sequence.  Sources without support reject (the default), so an
  /// engine checkpoint over them fails loudly.
  virtual void checkpoint(CheckpointWriter& w) const;

  /// Restores checkpoint() state onto a fresh, unpulled source of the
  /// same type and parameters.
  virtual void restore(CheckpointReader& r);

 private:
  mutable std::map<Round, std::vector<ColorId>> colors_by_delay_;
  mutable bool delay_index_built_ = false;
  mutable CostModel model_;
  mutable bool model_built_ = false;
};

/// Adapter presenting an Instance as an ArrivalSource.  Random access is
/// supported (the instance is already materialized), so the sequential
/// pull contract is not enforced here.
class MaterializedSource final : public ArrivalSource {
 public:
  explicit MaterializedSource(const Instance& instance)
      : instance_(&instance) {}

  [[nodiscard]] Cost delta() const override { return instance_->delta(); }
  [[nodiscard]] ColorId num_colors() const override {
    return instance_->num_colors();
  }
  [[nodiscard]] Round delay_bound(ColorId color) const override {
    return instance_->delay_bound(color);
  }
  [[nodiscard]] Cost drop_cost(ColorId color) const override {
    return instance_->drop_cost(color);
  }
  [[nodiscard]] Round length(ColorId color) const override {
    return instance_->length(color);
  }
  [[nodiscard]] const CostModel& cost_model() const override {
    return instance_->cost_model();
  }
  [[nodiscard]] Round horizon() const override {
    return instance_->horizon();
  }
  [[nodiscard]] std::span<const Job> arrivals_in_round(Round k) override {
    return instance_->arrivals_in_round(k);
  }
  [[nodiscard]] Round next_event_round(Round k, Round limit) override {
    const Round next = instance_->next_arrival_round(k);
    return next < 0 ? limit : std::min(next, limit);
  }
  [[nodiscard]] const Instance* materialized() const override {
    return instance_;
  }
  [[nodiscard]] std::string summary() const override {
    return instance_->summary();
  }

  /// A materialized source has no mutable stream state (random access
  /// over an owned-elsewhere Instance), so its checkpoint is a bare type
  /// marker plus the horizon for sanity.
  void checkpoint(CheckpointWriter& w) const override;
  void restore(CheckpointReader& r) override;

 private:
  const Instance* instance_;
};

/// The last arrival round a run of `source` capped at `max_rounds` pulls
/// (exclusive): `max_rounds` clipped to a finite source's horizon, or the
/// source's own horizon when `max_rounds` is kInfiniteHorizon.  Throws
/// InputError for an uncapped infinite source or a negative cap.
[[nodiscard]] Round resolve_arrival_end(const ArrivalSource& source,
                                        Round max_rounds);

/// Drains `source` into an Instance: pulls rounds [0, rounds) and rebuilds
/// the sequence through InstanceBuilder (so classification flags, job ids,
/// and horizon semantics match a directly built instance).  `rounds`
/// defaults to the source's own horizon, which must then be finite; an
/// infinite source needs an explicit round count.  The builder's horizon
/// is forced to at least `rounds`, mirroring the one-shot generators.
[[nodiscard]] Instance materialize(ArrivalSource& source,
                                   Round rounds = kInfiniteHorizon);

}  // namespace rrs
