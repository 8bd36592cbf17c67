// Shared scaffold for lazy streaming workload generators.
//
// A GeneratorSource synthesizes each round's arrivals on demand from
// seeded RNG, so a run touches O(pending + colors) memory no matter how
// long the horizon.  Two conventions make a streamed run and its
// materialization (materialize()) produce byte-identical job sequences:
//   * per-color RNG streams (derive_rng) — a color's draws do not depend
//     on how other colors interleave, so round-major streaming and
//     color-major one-shot generation agree;
//   * emit() assigns dense ids in emission order, ascending color within
//     a round — exactly the id/order InstanceBuilder produces when the
//     same sequence is pulled round-major into add_jobs().
//
// Shard-native views: a generator whose colors draw from independent
// per-color streams can serve one shard of a ShardPlan without any demux —
// clone() the generator, restrict_to() the shard's colors, and the view
// synthesizes only those colors' draws (each color's sequence is identical
// to its sequence in the full stream, so the per-shard arrivals are
// bit-identical to what the demux fabric would deliver, modulo job ids
// being locally dense).  Subclasses opt in by implementing clone() and
// synthesize_color(); the default synthesize() then visits the view's
// colors in ascending global order.
//
// Batched contract: a subclass calling declare_batched() promises that
// synthesize_color(c, k) draws nothing unless D_c divides k; synthesize()
// then visits only the colors that start a block at k (BlockCalendar), in
// the same order.
//
// Quiet-round skip: in a trickle almost every (color, round) draw is a
// Poisson zero.  A generator whose round is one `Rng::poisson(PoissonMean)`
// draw per color, on the color's own stream, reports those *lanes*
// (poisson_lane()), and next_event_round() steps every lane over the
// rounds where all of their next draws are zero — a test on the next
// output word (PoissonMean::zero_max) that draws no count — and hands the
// first other round to synthesize().  Each lane's stream moves one word
// per skipped round, as the zero draws would have moved it, so the
// streams, emitted jobs and checkpoint bytes are those of the per-round
// path.  The lanes are stepped together, four to a SIMD register
// (util/lockstep_scan.h).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/arrival_source.h"
#include "core/block_calendar.h"
#include "core/checkpoint.h"
#include "util/check.h"
#include "util/lockstep_scan.h"
#include "util/rng.h"

namespace rrs {

/// Independent RNG for stream index `stream` of a seeded generator.
/// Distinct (seed, stream) pairs give decorrelated xoshiro states.
[[nodiscard]] inline Rng derive_rng(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t sm = seed + (stream + 1) * 0xd1b54a32d192ed03ULL;
  return Rng(splitmix64(sm));
}

/// Base class for streaming workload generators.  Subclasses register
/// colors in their constructor (add_color) and implement either
/// synthesize_color(color, k) — per-color decomposable generators, which
/// then also support shard-native views — or synthesize(k) wholesale,
/// calling emit() once per (color, batch) in ascending color order.
class GeneratorSource : public ArrivalSource {
 public:
  [[nodiscard]] Cost delta() const override { return delta_; }
  [[nodiscard]] ColorId num_colors() const override {
    return restricted_ ? static_cast<ColorId>(active_.size())
                       : static_cast<ColorId>(delay_bounds_.size());
  }
  [[nodiscard]] Round delay_bound(ColorId color) const override {
    return delay_bounds_[global_of(color)];
  }
  [[nodiscard]] Cost drop_cost(ColorId color) const override {
    return drop_costs_[global_of(color)];
  }
  [[nodiscard]] Round length(ColorId color) const override {
    return lengths_[global_of(color)];
  }
  [[nodiscard]] Round horizon() const override { return horizon_; }

  /// Scalar model over the (possibly restricted) color set.  Built from
  /// the global metadata and then restricted, so a view's model equals
  /// `parent.cost_model().restricted(colors)` — what the demux fabric
  /// hands its engines.  Subclasses with richer pricing may override, but
  /// such generators must not also offer clone() (native views rely on
  /// this base implementation re-indexing correctly).
  [[nodiscard]] const CostModel& cost_model() const override {
    if (!model_ready_) {
      CostModel full;
      full.set_delta(delta_);
      full.resize(static_cast<ColorId>(delay_bounds_.size()));
      for (std::size_t c = 0; c < delay_bounds_.size(); ++c) {
        full.set_drop_cost(static_cast<ColorId>(c), drop_costs_[c]);
        full.set_length(static_cast<ColorId>(c), lengths_[c]);
      }
      model_ = restricted_ ? full.restricted(active_) : full;
      model_ready_ = true;
    }
    return model_;
  }

  [[nodiscard]] std::span<const Job> arrivals_in_round(Round k) override {
    RRS_REQUIRE(k > served_, "streaming sources are sequential: round "
                                 << k << " already served (cursor "
                                 << served_ << ")");
    if (k < next_round_) {
      // next_event_round() scanned past k: the round is already
      // synthesized, and empty unless it is the peeked round.
      served_ = k;
      if (k == peek_round_) {
        peek_round_ = -1;
        return buffer_;
      }
      RRS_CHECK_MSG(peek_round_ < 0 || k < peek_round_,
                    "pull at " << k << " behind unserved peek "
                               << peek_round_);
      return {};
    }
    RRS_REQUIRE(k == next_round_, "streaming sources are sequential: "
                                  "expected round "
                                      << next_round_ << ", got " << k);
    RRS_CHECK(peek_round_ < 0);
    served_ = k;
    ++next_round_;
    buffer_.clear();
    if (!finite() || k < horizon_) synthesize(k);
    return buffer_;
  }

  /// Scans ahead for the first arrival-carrying round in [k, limit),
  /// synthesizing (and remembering) rounds as it goes, or stepping over
  /// quiet ones (file comment): scanned-and-empty rounds serve empty
  /// pulls without re-synthesizing, and a found round's jobs are held
  /// ("peeked") until that round is pulled.  The RNG position only ever
  /// moves forward, once per round, so a run with fast-forward is
  /// draw-for-draw identical to one without.
  [[nodiscard]] Round next_event_round(Round k, Round limit) override {
    RRS_REQUIRE(limit >= k && k > served_,
                "next_event_round(" << k << ", " << limit
                                    << ") behind cursor " << served_);
    if (peek_round_ >= 0) {
      RRS_CHECK(k <= peek_round_);
      return std::min(peek_round_, limit);
    }
    Round j = std::max(k, next_round_);
    const Round end = finite() ? std::min(limit, horizon_) : limit;
    while (j < limit) {
      if (j >= end) {
        // Rounds at or past the horizon carry no arrivals and are never
        // synthesized, so the whole tail can be declared empty at once.
        j = limit;
        break;
      }
      // Cleared as synthesizing round j would: a checkpoint writes it.
      buffer_.clear();
      j = skip_quiet_rounds(j, end);
      if (j == end) continue;
      synthesize(j);
      ++j;
      if (!buffer_.empty()) {
        next_round_ = j;
        peek_round_ = j - 1;
        return peek_round_;
      }
    }
    next_round_ = std::max(next_round_, j);
    return limit;
  }

  // --- shard-native view support ---

  /// A fresh, unpulled copy of this generator (same parameters and seed).
  /// Subclasses whose colors draw from independent per-color streams
  /// override this (and synthesize_color) to enable shard-native views;
  /// the default returns nullptr, meaning "demux me instead".
  [[nodiscard]] virtual std::unique_ptr<GeneratorSource> clone() const {
    return nullptr;
  }

  /// Turns a fresh clone into a view over `colors` (sorted, unique global
  /// ids): metadata accessors, the cost model, and emitted jobs all use
  /// the dense local id space (local i = colors[i]).  Must be called
  /// before the first pull and before colors_by_delay(), whose index the
  /// base class builds once.
  void restrict_to(std::span<const ColorId> colors) {
    RRS_REQUIRE(next_round_ == 0,
                "restrict_to must precede the first pull, not follow round "
                    << next_round_ - 1);
    RRS_REQUIRE(!colors.empty(), "a view needs at least one color");
    for (std::size_t i = 0; i < colors.size(); ++i) {
      (void)checked_global(colors[i]);
      RRS_REQUIRE(i == 0 || colors[i] > colors[i - 1],
                  "view colors must be sorted and unique");
    }
    restricted_ = true;
    active_.assign(colors.begin(), colors.end());
    local_of_global_.assign(delay_bounds_.size(), kBlack);
    for (std::size_t i = 0; i < active_.size(); ++i) {
      local_of_global_[static_cast<std::size_t>(active_[i])] =
          static_cast<ColorId>(i);
    }
    model_ready_ = false;
  }

  // --- checkpoint/restore (crash-safe service mode) ---

  /// Serializes the full stream position: the generator's identity and
  /// view, cursors, the scanned-ahead (peeked) buffer, and — via
  /// checkpoint_extra() — the subclass's RNG streams.
  void checkpoint(CheckpointWriter& w) const final {
    write_identity(w);
    w.i64(next_round_);
    w.i64(served_);
    w.i64(peek_round_);
    w.i64(next_id_);
    w.u64(buffer_.size());
    for (const Job& job : buffer_) {
      w.i64(job.id);
      w.i64(job.color);
      w.i64(job.arrival);
      w.i64(job.delay_bound);
      w.i64(job.drop_cost);
      w.i64(job.length);
    }
    checkpoint_extra(w);
  }

  /// Restores checkpoint() state onto a fresh, unpulled generator built
  /// with the same parameters (and the same restrict_to() view, if any).
  void restore(CheckpointReader& r) final {
    RRS_CHECK_MSG(next_round_ == 0 && served_ == -1,
                  "checkpoint restore into an already-pulled generator");
    CheckpointWriter identity;
    write_identity(identity);
    r.expect_bytes(identity.bytes(), "generator header");
    // Everything is checked before any field is committed: a restore that
    // breaks the pull contract must fail here, while recovery can still
    // fall back to an older checkpoint, not at a later pull.
    const Round next_round = r.i64();
    const Round served = r.i64();
    const Round peek = r.i64();
    const JobId next_id = r.i64();
    RRS_REQUIRE(served >= -1 && served < next_round && next_id >= 0,
                "checkpoint generator cursors out of order: served "
                    << served << ", next round " << next_round
                    << ", next id " << next_id);
    RRS_REQUIRE(peek == -1 || (peek == next_round - 1 && peek > served),
                "checkpoint generator peek " << peek << " is not the last "
                                             << "synthesized, unserved round");
    const std::uint64_t buffered = r.u64();
    RRS_REQUIRE(peek == -1 ||
                    (buffered >= 1 &&
                     buffered <= static_cast<std::uint64_t>(next_id)),
                "checkpoint generator peeked round "
                    << peek << " holds " << buffered << " jobs, not 1 to "
                    << next_id);
    std::vector<Job> buffer;
    for (std::uint64_t i = 0; i < buffered; ++i) {
      Job job;
      job.id = r.i64();
      const std::int64_t color = r.i64();
      RRS_REQUIRE(color >= 0 && color < num_colors(),
                  "checkpoint generator buffered color " << color);
      job.color = static_cast<ColorId>(color);
      job.arrival = r.i64();
      job.delay_bound = r.i64();
      job.drop_cost = r.i64();
      job.length = r.i64();
      // Without a peek the buffer is never served (the next pull clears
      // it); a peeked job is served as is, so it must be what emit() made.
      RRS_REQUIRE(
          peek == -1 ||
              (job.arrival == peek &&
               job.id == next_id - static_cast<JobId>(buffered - i) &&
               job.delay_bound == delay_bound(job.color) &&
               job.drop_cost == drop_cost(job.color) &&
               job.length == length(job.color)),
          "checkpoint generator peeked job " << i << " (id " << job.id
                                             << ") is not what round " << peek
                                             << " emitted");
      buffer.push_back(job);
    }
    next_round_ = next_round;
    served_ = served;
    peek_round_ = peek;
    next_id_ = next_id;
    buffer_ = std::move(buffer);
    restore_extra(r);
  }

 protected:
  /// `horizon` is the number of arrival-carrying rounds, or
  /// kInfiniteHorizon for an unbounded stream.
  GeneratorSource(Cost delta, Round horizon) : delta_(delta),
                                               horizon_(horizon) {
    RRS_REQUIRE(delta >= 1, "Delta must be a positive integer, got "
                                << delta);
    RRS_REQUIRE(horizon >= 1 || horizon == kInfiniteHorizon,
                "horizon must be >= 1 or kInfiniteHorizon, got " << horizon);
  }

  /// Registers a color; returns its (global) ColorId.  Constructor-time
  /// only.
  ColorId add_color(Round delay, Cost drop_cost = 1, Round length = 1) {
    RRS_REQUIRE(delay >= 1, "delay bound must be >= 1, got " << delay);
    RRS_REQUIRE(drop_cost >= 1, "drop cost must be >= 1, got " << drop_cost);
    RRS_REQUIRE(length >= 1, "job length must be >= 1, got " << length);
    delay_bounds_.push_back(delay);
    drop_costs_.push_back(drop_cost);
    lengths_.push_back(length);
    return static_cast<ColorId>(delay_bounds_.size() - 1);
  }

  /// Opts into the batched contract (file comment); constructor-time only.
  void declare_batched() { batched_ = true; }

  /// Appends `count` jobs of global color `color` arriving in round `k` to
  /// this round's buffer (relabeled to the local id on restricted views).
  /// Call in ascending color order within one synthesize().
  void emit(ColorId color, Round k, std::int64_t count) {
    const std::size_t c = checked_global(color);
    ColorId out = color;
    if (restricted_) {
      out = local_of_global_[c];
      RRS_CHECK_MSG(out >= 0, "emit for color " << color
                                                << " not in this view");
    }
    for (std::int64_t i = 0; i < count; ++i) {
      buffer_.push_back(Job{next_id_++, out, k, delay_bounds_[c],
                            drop_costs_[c], lengths_[c]});
    }
  }

  /// Produces round `k`'s arrivals via emit().  Called once per round, in
  /// order, only for rounds inside the horizon.  The default visits the
  /// view's colors in ascending global order through synthesize_color():
  /// all of them when unbatched, else those that start a block at k.
  /// Generators that are not per-color decomposable override this
  /// wholesale (and then cannot serve shard-native views).
  virtual void synthesize(Round k) {
    init_view(k);
    std::span<const ColorId> due = colors_;
    if (batched_) {
      due = blocks_.due(k);
      if (!std::is_sorted(due.begin(), due.end())) {
        // Several classes are due: emit() takes colors in ascending order.
        due_.assign(due.begin(), due.end());
        std::sort(due_.begin(), due_.end());
        due = due_;
      }
    }
    for (const ColorId c : due) synthesize_color(c, k);
  }

  /// Produces round `k`'s arrivals of global color `color` via emit().
  /// A color's draws must depend only on (color, k) and the color's own
  /// stream state — never on other colors — so restricted views replay
  /// identical per-color sequences (batched: called only when D_c | k).
  virtual void synthesize_color(ColorId color, Round k) {
    (void)k;
    RRS_CHECK_MSG(false, "generator cannot synthesize color " << color
                             << " independently (no synthesize_color "
                                "override)");
  }

  /// One color's whole draw in a round: `stream->poisson(*mean)`.
  struct Lane {
    Rng* stream = nullptr;
    const PoissonMean* mean = nullptr;
  };

  /// The quiet-round skip's hook (file comment).  When round k's
  /// synthesis of global color `color` is exactly one `poisson` draw on
  /// the color's own stream, emitted when nonzero, sets `lane` to that
  /// stream and mean and returns the first round after k where this stops
  /// describing the color's rounds (kInfiniteHorizon: never).  Otherwise
  /// returns k, and next_event_round() synthesizes the round.  Unbatched
  /// generators only.
  virtual Round poisson_lane(ColorId color, Round k, Lane& lane) {
    (void)color;
    (void)lane;
    return k;
  }

  /// A generator parameter as a Poisson mean, rejected (naming `name`)
  /// unless Rng::poisson draws it exactly.
  static PoissonMean poisson_mean(double mean, const std::string& name) {
    RRS_REQUIRE(PoissonMean::drawable(mean),
                name << " = " << mean
                     << " is outside [0, 708.39], where exp(-mean) is normal");
    return PoissonMean(mean);
  }

  /// Serializes the subclass's stream state (RNG words, phase machines)
  /// after the base fields.  Subclasses with ANY mutable generation state
  /// must override both hooks; the default rejects so a family that was
  /// never audited for checkpointing cannot silently resume wrong.
  virtual void checkpoint_extra(CheckpointWriter& w) const {
    (void)w;
    RRS_REQUIRE(false,
                "this generator family does not support checkpointing: "
                    << summary());
  }
  virtual void restore_extra(CheckpointReader& r) {
    (void)r;
    RRS_REQUIRE(false, "this generator family does not support restore: "
                           << summary());
  }

  /// Rng (de)serialization helpers for checkpoint_extra overrides.
  static void checkpoint_rng(CheckpointWriter& w, const Rng& rng) {
    for (const std::uint64_t word : rng.state_words()) w.u64(word);
  }
  static void restore_rng(CheckpointReader& r, Rng& rng) {
    std::array<std::uint64_t, 4> words{};
    for (auto& word : words) word = r.u64();
    rng.set_state_words(words);
  }

  /// Maps a caller-facing (local) id to the global metadata index.
  [[nodiscard]] std::size_t global_of(ColorId color) const {
    if (!restricted_) return checked_global(color);
    RRS_REQUIRE(color >= 0 && static_cast<std::size_t>(color) < active_.size(),
                "local color " << color << " out of range [0, "
                               << active_.size() << ")");
    return static_cast<std::size_t>(active_[static_cast<std::size_t>(color)]);
  }

 private:
  /// What a checkpoint must share with the generator restoring it: the
  /// parameters every subclass shares and the view's colors.
  void write_identity(CheckpointWriter& w) const {
    w.str("generator");
    w.i64(delta_);
    w.i64(horizon_);
    w.i64(static_cast<std::int64_t>(delay_bounds_.size()));
    w.boolean(restricted_);
    w.u64(active_.size());
    for (const ColorId c : active_) w.i64(c);
  }

  /// Builds the view's color list and block calendar at the first
  /// synthesis or skip, after the subclass registered its colors and any
  /// restrict_to(); a restore then resumes mid-cycle at k.
  void init_view(Round k) {
    if (!colors_.empty()) return;
    std::map<Round, std::vector<ColorId>> classes;
    for (ColorId c = 0; c < num_colors(); ++c) {
      colors_.push_back(static_cast<ColorId>(global_of(c)));
      classes[delay_bound(c)].push_back(colors_.back());
    }
    blocks_ = BlockCalendar(classes);
    blocks_.start_at(k);
  }

  /// Steps every lane over the rounds in [j, end) whose draws are all
  /// zero; returns the first round that is not (or `end`).  Returns j
  /// when a view color has no lane at j.
  Round skip_quiet_rounds(Round j, Round end) {
    if (batched_) return j;
    init_view(j);
    scan_.clear();
    for (const ColorId c : colors_) {
      Lane lane;
      const Round until = poisson_lane(c, j, lane);
      if (until != kInfiniteHorizon) {
        if (until <= j) return j;
        end = std::min(end, until);
      }
      // A mean-0 lane draws nothing, so it neither stops nor steps.
      if (lane.mean->mean > 0.0) scan_.add(*lane.stream, lane.mean->zero_max);
    }
    return j + scan_.run(end - j);
  }

  [[nodiscard]] std::size_t checked_global(ColorId color) const {
    RRS_REQUIRE(color >= 0 &&
                    static_cast<std::size_t>(color) < delay_bounds_.size(),
                "color " << color << " out of range [0, "
                         << delay_bounds_.size() << ")");
    return static_cast<std::size_t>(color);
  }

  Cost delta_;
  Round horizon_;
  // Global metadata: indexed by global color id even on restricted views.
  std::vector<Round> delay_bounds_;
  std::vector<Cost> drop_costs_;
  std::vector<Round> lengths_;
  // Restriction state.
  bool restricted_ = false;
  std::vector<ColorId> active_;           // global ids, ascending
  std::vector<ColorId> local_of_global_;  // kBlack when not in this view
  // Round state.  next_round_ is the SYNTHESIS position (first round whose
  // draws have not happened); served_ is the pull cursor, which lags it
  // when next_event_round() has scanned ahead.  Rounds in
  // [served_ + 1, next_round_) are synthesized-and-empty except
  // peek_round_, whose jobs wait in buffer_.
  std::vector<Job> buffer_;
  Round next_round_ = 0;
  Round served_ = -1;
  Round peek_round_ = -1;
  JobId next_id_ = 0;
  // The view's colors (global ids, ascending) and their block starts.
  bool batched_ = false;
  std::vector<ColorId> colors_;
  BlockCalendar blocks_;
  std::vector<ColorId> due_;  ///< merged due classes, ascending
  // The quiet-round skip's lanes, gathered at each skip.
  LockstepScan scan_;
  // Cost model cache (restrict_to() invalidates it).
  mutable CostModel model_;
  mutable bool model_ready_ = false;
};

}  // namespace rrs
