// Per-color eligibility, counter, deadline, and timestamp bookkeeping.
//
// This is the "common aspects" machinery of Section 3.1 that all three
// online algorithms (dLRU, EDF, dLRU-EDF) share.  For each color l it
// maintains:
//   * l.cnt   — arrivals counted modulo the color's eligibility threshold;
//               reaching it is a *counter wrapping event* and makes the
//               color eligible.  The threshold is the cold reconfiguration
//               cost of the color (Delta in the paper's scalar model).  In
//               the weighted extension each arrival contributes its drop
//               cost, so a color becomes eligible once one cold re-image's
//               worth of droppable value has accumulated (identical to the
//               paper's rule for unit costs and scalar Delta);
//   * l.dd    — the color deadline, set to k + D_l at each multiple k of D_l;
//   * eligible/ineligible — a color becomes ineligible again in the drop
//               phase of a multiple of D_l while it is not cached;
//   * the dLRU *timestamp* — the latest round before the most recent
//               multiple of D_l in which a counter wrapping event occurred
//               (0 if none).  It is recorded at each block start, before
//               that round's arrivals are counted, so it holds on any
//               input: unbatched arrivals, and a color whose jobs reach the
//               arrival phase in several runs, may wrap anywhere in a
//               block.
//
// The tracker holds only what the rules read.  The quantities the paper's
// proofs count (epochs, eligible and ineligible drops, super-epochs) are
// recomputed from the run's events by Section3Shadow
// (algs/section3_shadow.h).
#pragma once

#include <bit>
#include <span>
#include <tuple>
#include <vector>

#include "core/arrival_source.h"
#include "core/block_calendar.h"
#include "core/cache.h"
#include "core/pending.h"
#include "core/policy.h"
#include "core/types.h"
#include "util/check.h"

namespace rrs {

class CheckpointReader;
class CheckpointWriter;

/// Shared Section 3.1 per-color state machine.
class EligibilityTracker {
 public:
  /// Resets all state for `source` (only its metadata accessors are used,
  /// so streaming sources work — the tracker never touches the job table).
  void begin(const ArrivalSource& source);

  /// Drop phase of round `k`: for every color l with k a multiple of D_l
  /// that is eligible and not cached, ends its epoch (set ineligible,
  /// cnt = 0).
  void drop_phase(Round k, const CacheAssignment& cache);

  /// Arrival phase of round `k`: for every color with k a multiple of its
  /// delay bound, advances the color deadline and records the timestamp;
  /// then counts arrivals, firing counter wrapping events (and
  /// eligibility) when cnt reaches Delta.  Both phases visit only the
  /// colors that start a block at k, in ascending delay and then ascending
  /// color order.
  void arrival_phase(Round k, std::span<const Job> arrivals);

  [[nodiscard]] bool eligible(ColorId color) const {
    return state_[idx(color)].eligible;
  }

  /// Color deadline l.dd (start-of-time value 0 before the first multiple).
  [[nodiscard]] Round color_deadline(ColorId color) const {
    return state_[idx(color)].dd;
  }

  /// The earliest round >= k at which some color starts a block: the
  /// next round whose phases change state even with nothing pending.
  [[nodiscard]] Round next_block_start(Round k) const {
    return blocks_.next_start(k);
  }

  /// Delay bound D_l of `color`, cached flat at begin() so ranking loops
  /// skip the source's virtual dispatch.
  [[nodiscard]] Round delay_bound(ColorId color) const {
    return delay_bounds_[idx(color)];
  }

  /// Per-job drop cost of `color`, cached flat at begin() (weight-aware
  /// ranking reads it every round).
  [[nodiscard]] Cost drop_cost(ColorId color) const {
    return drop_costs_[idx(color)];
  }

  /// Per-job execution length of `color`, cached flat at begin().
  [[nodiscard]] Round length(ColorId color) const {
    return lengths_[idx(color)];
  }

  /// dLRU timestamp of `color`: the latest wrap before its most recent
  /// block start, 0 if none.
  [[nodiscard]] Round timestamp(ColorId color) const {
    return state_[idx(color)].timestamp;
  }

  /// Currently eligible colors, ascending.  A scan over every color; the
  /// policies read the rank index below instead.
  [[nodiscard]] std::vector<ColorId> eligible_colors() const;

  // --- incremental rank index (ranked-cache hot path) ---
  //
  // The ranked-cache family consumes two total orders of the eligible set
  // every round.  Rebuilding them with a sort costs O(E log E) per round
  // even when nothing changed; the index below maintains both orders
  // persistently so a round's query is a scan and mutations are charged
  // to the events that caused them (wraps, epoch ends, deadline-block
  // boundaries, imports).
  //
  //   * EDF: eligible colors live in a calendar ring of ceil_pow2(max D_l)
  //     buckets keyed by color deadline (at query time every eligible dd
  //     lies in (now, now + max D_l], so buckets are collision-free the
  //     same way PendingJobs' expiry calendar is).  Each bucket is a
  //     bitset of ceil(colors / 64) words over a precomputed static
  //     tiebreak rank — exactly the EdfKey order after the idle and
  //     deadline fields — so reading its set bits in ascending order yields
  //     its members in rank order with no sort.  edf_top() walks buckets in
  //     rotated (deadline-ascending) order via a nonempty-bucket bitmap and
  //     stops at its k-th nonidle color; edf_before() compares two colors
  //     on the same (idle, dd, static rank) key, so the two together answer
  //     every EdfKey question without a full order.
  //   * dLRU: eligible colors live in an intrusive doubly-linked recency
  //     list ordered by (timestamp desc, color asc).  Timestamps change
  //     only at own-block boundaries, which pass through arrival_phase, so
  //     repositions are charged to churn.
  //
  // begin() builds the index.  The tests hold it to from-scratch sorts,
  // and Section3Shadow (algs/section3_shadow.h) holds the policies that
  // read it to the paper's rules.

  /// The first `k` eligible colors in exact EDF rank order (EdfKey in
  /// algs/section3_shadow.h) that have pending work and that
  /// `reject(color)` does not reject; the walk stops at the k-th.  The buffer is the
  /// tracker's, valid until the next edf_top() or phase call.
  template <typename Reject>
  [[nodiscard]] const std::vector<ColorId>& edf_top(
      std::size_t k, const PendingJobs& pending, Reject reject);

  /// True iff eligible color `a` ranks strictly before eligible color `b`
  /// in EDF order (the EdfKey comparison edf_top() walks by).
  [[nodiscard]] bool edf_before(ColorId a, ColorId b,
                                const PendingJobs& pending) const {
    const auto key = [&](ColorId c) {
      return std::tuple(pending.idle(c), state_[idx(c)].dd,
                        static_rank_[idx(c)]);  // nonidle (false) first
    };
    return key(a) < key(b);
  }

  /// Up to `max_count` eligible colors in exact dLRU rank order (LruKey:
  /// descending timestamp, ties ascending color) as of the last phase
  /// round.  The returned buffer is owned by the tracker, distinct
  /// from edf_top()'s, and valid until the next lru_order() or phase
  /// call.
  [[nodiscard]] const std::vector<ColorId>& lru_order(std::size_t max_count);

  // --- per-color export/import (see PolicyColorState) ---

  /// Snapshot of one color's portable Section 3.1 state.
  [[nodiscard]] PolicyColorState export_color(ColorId color) const;

  /// Restores an exported snapshot onto a freshly begun tracker (call
  /// after begin(), before any phase).  Eligibility is replayed so ranking
  /// continues exactly where the exporting tracker left off.
  void import_color(ColorId color, const PolicyColorState& state);

  // --- checkpoint/restore (crash-safe service mode) ---

  /// Serializes the phase round and the full per-color state.  The rank
  /// index is NOT serialized: restore_checkpoint rebuilds it from the
  /// per-color state through the same total orders the live structures
  /// maintain, so queries are bit-identical.
  void checkpoint(CheckpointWriter& w) const;

  /// Restores checkpoint() state onto a freshly begun tracker (same
  /// source metadata).  Once a phase has run, every color deadline ends
  /// the block holding the phase round; a section that breaks this is
  /// rejected with InputError.
  void restore_checkpoint(CheckpointReader& r);

 private:
  struct ColorState {
    Cost cnt = 0;
    Round dd = 0;
    Round last_wrap = -1;  // most recent counter-wrap round (-1 = none)
    Round timestamp = 0;   // recorded at the most recent block start
    bool eligible = false;
  };

  [[nodiscard]] static std::size_t idx(ColorId c) {
    return static_cast<std::size_t>(c);
  }

  void make_eligible(ColorId color);
  void make_ineligible(ColorId color);

  // Rank-index internals.
  void build_rank_index();
  void cal_insert(ColorId color);
  void cal_remove(ColorId color);
  /// First nonempty calendar bucket in [from, hi), or hi if none.
  [[nodiscard]] std::size_t next_bucket(std::size_t from,
                                        std::size_t hi) const;
  /// Links `color` into the recency list at its current timestamp.
  void lru_insert(ColorId color);
  void lru_remove(ColorId color);

  // Flat copies of the source's per-color metadata, filled at begin():
  // the drop/arrival/timestamp paths run every round and must not pay a
  // virtual call (or a std::map walk) per color.
  std::vector<Round> delay_bounds_;
  std::vector<Cost> drop_costs_;
  std::vector<Round> lengths_;
  /// Per-color eligibility threshold: the cold re-image price of the color
  /// (== Delta in the scalar tier).  A color becomes eligible once one cold
  /// reconfiguration's worth of droppable value has accumulated.
  std::vector<Cost> thresholds_;
  /// Which colors start a block at each round.
  BlockCalendar blocks_;
  std::vector<ColorState> state_;

  // --- incremental rank index state (built by begin()) ---
  Round now_ = -1;  ///< round of the most recent phase call (-1 = none)
  /// Color -> rank under the static EdfKey tiebreak (drop cost desc,
  /// length asc, delay bound asc, color asc), and rank -> color; constant
  /// per begin().
  std::vector<std::int32_t> static_rank_;
  std::vector<ColorId> rank_color_;
  /// Deadline calendar: bucket b = (dd & cal_mask_) is the cal_words_
  /// words from b * cal_words_, one bit per static rank, set for each
  /// eligible color with color deadline dd.
  std::vector<std::uint64_t> cal_bits_;
  std::size_t cal_words_ = 0;
  std::vector<std::uint64_t> cal_nonempty_;  ///< bitmap over buckets
  std::size_t cal_mask_ = 0;
  /// Intrusive recency list over eligible colors, (timestamp desc, color
  /// asc).
  std::vector<ColorId> lru_prev_;
  std::vector<ColorId> lru_next_;
  std::vector<std::uint8_t> lru_linked_;
  ColorId lru_head_ = kBlack;
  std::vector<ColorId> edf_scratch_;
  std::vector<ColorId> lru_scratch_;
};

template <typename Reject>
const std::vector<ColorId>& EligibilityTracker::edf_top(
    std::size_t k, const PendingJobs& pending, Reject reject) {
  RRS_CHECK_MSG(now_ >= 0,
                "edf_top needs a phase call before the first query");
  edf_scratch_.clear();
  // Walk buckets in deadline-ascending order: the window (now, now+ring]
  // maps to bucket indices starting at (now+1) & mask, wrapping once.
  const std::size_t start = static_cast<std::size_t>(now_ + 1) & cal_mask_;
  const std::size_t passes[2][2] = {{start, cal_mask_ + 1}, {0, start}};
  for (const auto& [lo, hi] : passes) {
    for (std::size_t b = next_bucket(lo, hi); b < hi && k > 0;
         b = next_bucket(b + 1, hi)) {
      // The bucket's set bits, ascending, are its colors in rank order.
      for (std::size_t w = 0; w < cal_words_; ++w) {
        for (std::uint64_t bits = cal_bits_[b * cal_words_ + w]; bits != 0;
             bits &= bits - 1) {
          const ColorId c = rank_color_[w * 64 + static_cast<std::size_t>(
                                                     std::countr_zero(bits))];
          RRS_CHECK_MSG(state_[idx(c)].dd > now_,
                        "stale deadline in rank calendar (color " << c
                                                                  << ")");
          if (pending.idle(c) || reject(c)) continue;
          edf_scratch_.push_back(c);
          if (edf_scratch_.size() == k) return edf_scratch_;
        }
      }
    }
  }
  return edf_scratch_;
}

}  // namespace rrs
