// The online-policy interface driven by the round engine.
//
// The paper's Section 2 model advances in rounds of four phases:
//   drop -> arrival -> reconfiguration -> execution.
// The engine owns the model-level bookkeeping (pending jobs, expiry, the
// physical cache, cost) and hands the policy ONE fused callback per
// mini-round: on_round(RoundContext&).  The context carries everything the
// three historical callbacks (drop / arrival / reconfigure) used to
// deliver — this round's drops, this round's arrivals, and the mutable
// cache — so the engine pays a single virtual dispatch per mini-round and
// policies can keep per-round state in registers across phases.
//
// on_round contract:
//   * Called once per mini-round, mini() = 0 .. speed-1, with round()
//     fixed within the round.  dropped() and arrivals() are identical for
//     every mini of one round: process them when first_mini() is true,
//     reconfigure on every call.
//   * arrivals() have already been ingested into pending().
//   * The cache is inside an open reconfiguration phase for the whole
//     call; insert/erase freely.  The engine charges Delta per physical
//     recoloring when the call returns.
//   * After the last round the engine makes one extra call with
//     final_sweep() == true (and mini() == 0) delivering the terminal
//     expiry sweep, so drop accounting in policies matches the engine's.
//     No reconfiguration phase is open then — the cache is read-only and
//     policies must not mutate it (mutations throw InvariantError).
//
// Policies only decide *which colors to cache*; execution is model-defined
// (each resource executes one pending job of its configured color,
// earliest deadline first).
#pragma once

#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/arrival_source.h"
#include "core/cache.h"
#include "core/pending.h"

namespace rrs {

class CheckpointReader;
class CheckpointWriter;

/// Everything a policy sees in one fused per-mini-round callback.
class RoundContext {
 public:
  RoundContext(Round round, int mini, bool final_sweep,
               const PendingJobs::DropResult& dropped,
               std::span<const Job> arrivals, const PendingJobs& pending,
               CacheAssignment& cache)
      : round_(round),
        mini_(mini),
        final_sweep_(final_sweep),
        dropped_(&dropped),
        arrivals_(arrivals),
        pending_(&pending),
        cache_(&cache) {}

  /// Current round k.
  [[nodiscard]] Round round() const { return round_; }

  /// Mini-round within the round, 0 .. speed-1.
  [[nodiscard]] int mini() const { return mini_; }

  /// True on the first mini-round — the one where per-round (as opposed to
  /// per-mini-round) processing of dropped()/arrivals() belongs.
  [[nodiscard]] bool first_mini() const { return mini_ == 0; }

  /// True on the one extra call after the last round: dropped() holds the
  /// terminal expiry sweep, arrivals() is empty, and the cache must not be
  /// mutated.
  [[nodiscard]] bool final_sweep() const { return final_sweep_; }

  /// Jobs the engine expired in this round's drop phase.
  [[nodiscard]] const PendingJobs::DropResult& dropped() const {
    return *dropped_;
  }

  /// This round's arrivals (already added to pending()).
  [[nodiscard]] std::span<const Job> arrivals() const { return arrivals_; }

  [[nodiscard]] const PendingJobs& pending() const { return *pending_; }

  /// The cache, open for mutation except when final_sweep() is true.
  [[nodiscard]] CacheAssignment& cache() const { return *cache_; }

 private:
  Round round_;
  int mini_;
  bool final_sweep_;
  const PendingJobs::DropResult* dropped_;
  std::span<const Job> arrivals_;
  const PendingJobs* pending_;
  CacheAssignment* cache_;
};

/// Portable per-color policy scratch: the Section 3.1 state machine fields
/// every ranked-cache-family policy keeps per color, enough for another
/// policy instance to rank the color exactly as this one would.  No engine
/// path moves colors between policies any more; the type and the
/// export/import hooks below remain only because perfbench's timing
/// decorator forwards them, and they go with its next revision.
struct PolicyColorState {
  Cost cnt = 0;            ///< arrivals counted modulo the threshold
  Round dd = 0;            ///< color deadline l.dd
  Round last_wrap = -1;    ///< most recent counter-wrap round
  Round timestamp = 0;     ///< dLRU timestamp recorded at the block start
  bool eligible = false;
};

/// Base class for online reconfiguration policies.
class Policy {
 public:
  virtual ~Policy() = default;

  /// Algorithm name for tables and registries (e.g. "dlru-edf").
  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Called once before round 0.  `source` carries the problem metadata
  /// (and, for materialized inputs, the whole sequence via
  /// source.materialized()); `num_resources` is the online resource count
  /// n; `speed` is mini-rounds per round (1 unless double-speed).
  virtual void begin(const ArrivalSource& source, int num_resources,
                     int speed) {
    (void)source;
    (void)num_resources;
    (void)speed;
  }

  /// The fused per-mini-round callback; see the contract at the top of
  /// this header.
  virtual void on_round(RoundContext& ctx) = 0;

  /// Called after the engine applies capacity-churn events at the start of
  /// a round (before that round's drop phase): `up` of `total` locations
  /// remain in service and `evicted` lists the cached colors the failures
  /// evicted (already removed from the cache).  The ranked-cache policies
  /// rebuild their targets from the live max_distinct() every round, so
  /// their one override (RankedCachePolicy) only counts the event; the
  /// default is a no-op.
  virtual void on_capacity_change(Round round, int up, int total,
                                  std::span<const ColorId> evicted) {
    (void)round;
    (void)up;
    (void)total;
    (void)evicted;
  }

  /// Smallest resource-count unit this policy accepts: any n it runs with
  /// must be a positive multiple (e.g. 4 for dLRU-EDF's two replicated
  /// cache halves).  The sharded runner splits the resource budget across
  /// shards in these units.  Defaults to `replication`.
  [[nodiscard]] virtual int resource_granularity(int replication) const {
    return replication;
  }

  /// True iff skipping a span of event-free rounds (no arrivals, no
  /// pending jobs, no capacity churn, no snapshot round, no round from
  /// next_policy_event()) cannot change this policy's decisions or
  /// counters: across such a span every on_round() call is a provable
  /// no-op.  The engine knows no delay classes, so a policy whose state
  /// moves at block starts reports them through next_policy_event(), as
  /// the ranked policies do.  Policies with per-round state that moves
  /// unconditionally must leave this false (the default), which disables
  /// Engine fast-forward for them.
  [[nodiscard]] virtual bool supports_fast_forward() const { return false; }

  /// Earliest round >= k at which the policy itself has a scheduled event
  /// that fast-forward must not skip (the ranked policies' next block
  /// start, the adaptive split's window end); kInfiniteHorizon when there
  /// is none (the default).  Only consulted when supports_fast_forward()
  /// is true.
  [[nodiscard]] virtual Round next_policy_event(Round k) const {
    (void)k;
    return kInfiniteHorizon;
  }

  /// Copies the policy's per-color scratch for `color` into `out` and
  /// returns true.  Policies without portable per-color state return false
  /// (the default).  See PolicyColorState for why this hook remains.
  [[nodiscard]] virtual bool export_color_state(ColorId color,
                                                PolicyColorState& out) const {
    (void)color;
    (void)out;
    return false;
  }

  /// Installs exported per-color scratch for `color`.  Call after begin(),
  /// before any round, only on freshly constructed policies.  The default
  /// ignores it.
  virtual void import_color_state(ColorId color,
                                  const PolicyColorState& state) {
    (void)color;
    (void)state;
  }

  /// Optional policy-specific counters (capacity changes, adaptations,
  /// ...) surfaced to experiments.
  [[nodiscard]] virtual std::vector<std::pair<std::string, std::int64_t>>
  stats() const {
    return {};
  }

  /// Checkpoint hook: serializes the policy's full mutable state into the
  /// writer's current section so a freshly constructed policy of the same
  /// type can resume bit-identically via restore_state().  Policies
  /// without support reject (the default), which makes any engine
  /// checkpoint over them fail loudly instead of silently dropping state.
  virtual void checkpoint_state(CheckpointWriter& w) const;

  /// Restore hook: installs checkpoint_state() output onto a freshly
  /// begun policy (begin() already called with the same parameters).
  virtual void restore_state(CheckpointReader& r);
};

}  // namespace rrs
