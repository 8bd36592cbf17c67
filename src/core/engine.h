// The round engine: executes the Section 2 model for any online policy.
//
// Per round k:
//   0. fault phase     — apply the FaultPlan's round-k capacity-churn
//                        events (failures evict the affected location's
//                        cached color; repairs return it blank); notify
//                        policy via on_capacity_change;
//   1. drop phase      — expire pending jobs with deadline k; notify policy;
//   2. arrival phase   — ingest request k into the pending set; notify
//                        policy;
//   3+4. for each mini-round (speed times): reconfiguration phase (policy
//        mutates the cache; Delta per physical recoloring), then execution
//        phase (each configured resource executes one pending job of its
//        color, earliest deadline first).
//
// The engine consumes a pull-based ArrivalSource, so memory stays
// O(pending jobs + colors) even on unbounded streams; run_policy on an
// Instance is a thin MaterializedSource wrapper.  The engine is the single
// place cost is accounted for online algorithms (incrementally, per drop
// phase), and optionally records a full event Schedule for validation.
#pragma once

#include <iosfwd>
#include <memory>

#include "core/arrival_source.h"
#include "core/fault_plan.h"
#include "core/instance.h"
#include "core/pending.h"
#include "core/policy.h"
#include "core/schedule.h"

namespace rrs {

struct Observer;
class CheckpointReader;
class CheckpointWriter;
class PhaseTimers;

/// Knobs for one engine run.
struct EngineOptions {
  int num_resources = 1;
  int speed = 1;  ///< mini-rounds per round (2 = double-speed, Section 3.3)
  /// Locations each cached color occupies (2 for the Section 3 algorithms'
  /// replication invariant, 1 for Seq-EDF).
  int replication = 1;
  bool record_schedule = true;  ///< disable for large benchmark runs
  /// Cap on rounds pulled from the source.  Required (finite) when the
  /// source is infinite; kInfiniteHorizon means "the source's horizon".
  Round max_rounds = kInfiniteHorizon;
  /// After arrivals end, keep running rounds until the pending set empties
  /// (every job executes or expires).  Off by default: the materialized
  /// wrapper preserves the historical contract of exactly horizon() rounds
  /// plus one final expiry sweep.
  bool drain_pending = false;
  /// Optional capacity-churn schedule (not owned; must outlive the run).
  /// Events at round k apply at the start of round k, before the drop and
  /// arrival phases.  nullptr — or an empty plan — leaves the run
  /// bit-identical to a fault-free one.
  const FaultPlan* fault_plan = nullptr;
  /// Repair-cost accounting: when true, each repair is charged as one
  /// reconfiguration event (the repaired resource comes back blank and must
  /// be re-imaged); when false, churn itself is free and only the policy's
  /// recolorings cost Delta.  Charged repairs are counted in
  /// CostBreakdown::churn_reconfigs but never recorded in the schedule —
  /// the validator only prices policy-driven events.
  bool charge_repair = false;
  /// Optional observability sink (not owned; must outlive the run).
  /// nullptr is the off mode: every hook site degrades to one branch on a
  /// null pointer and the run's results are bit-identical to a build
  /// without the obs subsystem.  With an observer the engine updates
  /// StreamStats in every phase, feeds the TraceRing, attributes phase
  /// time when ObsConfig::timers is set, takes periodic snapshots per
  /// ObsConfig::snapshot_every, and dumps the trace ring to
  /// Observer::trace_dump_out (default stderr) if the run dies on an
  /// InvariantError.
  Observer* observer = nullptr;
  /// Sparse-round fast-forward: when the pending set is empty and the
  /// policy declares supports_fast_forward(), run_rounds() jumps over
  /// spans with no arrivals (per the source's next_event_round() hint),
  /// no deadline-block boundary of any delay class, no fault event, no
  /// snapshot round, and no policy event.  Every skipped round is a
  /// provable no-op, so results — costs, schedules, stats, snapshots —
  /// are bit-identical with the flag off; disable only to measure the
  /// skip itself.
  bool fast_forward = true;
  /// Admission control: cap on the pending-set size (0 = unlimited).  When
  /// a round's arrivals would push pending beyond the budget, the engine
  /// sheds the cheapest-weight arrivals of that round at ingest — lowest
  /// drop cost first, later arrivals shed before earlier ones on ties —
  /// until the budget holds.  Shed jobs count as arrivals and are charged
  /// as drops (EngineResult::admission_rejected and
  /// StreamStats::admission_rejected isolate them from deadline expiries)
  /// but never enter the pending set and are invisible to the policy.  A
  /// budget the run never exceeds leaves every result bit-identical to
  /// budget-off.
  std::int64_t pending_budget = 0;
};

/// Capacity-churn counters for one run; all zero without a fault plan.
struct DegradedStats {
  std::int64_t fault_events = 0;     ///< failures applied
  std::int64_t repair_events = 0;    ///< repairs applied
  std::int64_t churn_evictions = 0;  ///< cached colors evicted by failures
  Round degraded_rounds = 0;  ///< rounds run with >= 1 location down
  Cost drops_while_degraded = 0;  ///< drop cost incurred in degraded rounds

  DegradedStats& operator+=(const DegradedStats& other) {
    fault_events += other.fault_events;
    repair_events += other.repair_events;
    churn_evictions += other.churn_evictions;
    degraded_rounds += other.degraded_rounds;
    drops_while_degraded += other.drops_while_degraded;
    return *this;
  }

  friend bool operator==(const DegradedStats&, const DegradedStats&) = default;
};

/// Result of one engine run.
struct EngineResult {
  CostBreakdown cost;
  std::int64_t executed = 0;  ///< jobs completed
  /// Execution units applied (== executed for unit lengths; partially
  /// executed jobs contribute units but never count as executed).
  std::int64_t work_units = 0;
  std::int64_t arrived = 0;   ///< jobs pulled from the source
  Round rounds = 0;           ///< rounds actually run
  std::int64_t peak_pending = 0;  ///< max pending-set size observed
  /// Arrivals shed by pending-budget admission control (already counted in
  /// arrived and charged in cost.drops).
  std::int64_t admission_rejected = 0;
  DegradedStats degraded;     ///< capacity-churn counters
  Schedule schedule;          ///< events iff options.record_schedule
  /// Policy-specific counters captured after the run.
  std::vector<std::pair<std::string, std::int64_t>> policy_stats;
};

/// Everything that travels with one color when it migrates between shard
/// engines: the pending jobs (FIFO order, partial progress preserved) and
/// the policy's portable per-color scratch.  Color ids here are LOCAL to
/// the exporting / importing engine; the caller relabels through the
/// global color space.
struct EngineColorState {
  std::vector<PendingJobs::ExportedJob> jobs;
  PolicyColorState policy;
  bool has_policy = false;  ///< policy exported portable state for the color
};

/// The round engine as a resumable object: construct, run segments of
/// rounds, then finish (drain + terminal expiry sweep) or abandon
/// (counters only — the run continues elsewhere after a migration).
///
/// The constructor snapshots the problem metadata (cost model, per-color
/// delay bounds / drop costs / lengths) out of `source`, so the engine
/// outlives any per-segment source: each run_rounds() call may use a
/// different ArrivalSource object, as long as together they deliver the
/// same global round sequence ([start_round, arrival_end) in order).
///
/// `policy.begin` is called from the constructor with the REAL `source`
/// (offline policies need source.materialized(); the internal metadata
/// snapshot would hide it).
class Engine {
 public:
  /// Validates `options`, resolves the arrival horizon from `source`
  /// (clipped by options.max_rounds), and starts the run at
  /// `start_round` (rounds before it are assumed to belong to another
  /// engine; the expiry calendar starts empty).
  Engine(ArrivalSource& source, Policy& policy, const EngineOptions& options,
         Round start_round = 0);
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Last round (exclusive) that may carry arrivals, resolved at
  /// construction.
  [[nodiscard]] Round arrival_end() const { return arrival_end_; }

  /// The next round this engine will run.
  [[nodiscard]] Round round() const { return k_; }

  /// Runs rounds [round(), until), pulling arrivals for each from
  /// `source` (which must serve absolute rounds sequentially from
  /// round()).  `until` must not exceed arrival_end().
  void run_rounds(ArrivalSource& source, Round until);

  /// Optional drain (EngineOptions::drain_pending) plus the terminal
  /// expiry sweep; returns the run's result.  Call at most once, after
  /// the last run_rounds().
  [[nodiscard]] EngineResult finish();

  /// Ends the run WITHOUT the drain/terminal sweep: returns the counters
  /// accumulated so far.  Used when a re-shard hands this engine's state
  /// to successors — the pending jobs live on via export_color().
  [[nodiscard]] EngineResult abandon();

  /// Copies `color`'s migratable state (pending jobs + policy scratch)
  /// out of the engine.  `color` is local to this engine.
  [[nodiscard]] EngineColorState export_color(ColorId color) const;

  /// Installs exported state under local id `color`.  Call after
  /// construction, before the first run_rounds().  Restored jobs update
  /// the deadline high-water mark and peak_pending but are NOT counted as
  /// arrivals again (they were counted by the exporting engine).
  void import_color(ColorId color, const EngineColorState& state);

  /// Serializes the complete mutable run state — options fingerprint,
  /// round cursor, accumulated result (schedule included when recorded),
  /// fault cursor, pending set, cache, policy scratch, observer stats —
  /// as one framed checkpoint (see core/checkpoint.h).  When `source` is
  /// non-null its stream position is embedded too (pass the source driving
  /// run_rounds); pass nullptr when the caller checkpoints the source
  /// separately, as the sharded runner's manifest does.
  /// checkpoint -> restore -> run_rounds is bit-identical to the
  /// uninterrupted run.
  void checkpoint(std::ostream& out, const ArrivalSource* source) const;

  /// Restores a checkpoint() stream onto this freshly constructed engine
  /// (same source parameters, policy type, and options; begin() already
  /// ran via the constructor).  Rejects any mismatch or malformation with
  /// InputError.  When `source` is non-null the embedded source state is
  /// restored onto it; the checkpoint must then carry one.
  void restore(std::istream& in, ArrivalSource* source);

 private:
  class MetaSource;
  struct FaultCursor;

  /// One full round at k_: churn, drop, arrival (from `pull`, or none),
  /// speed mini-rounds of policy + execution, periodic snapshot.
  void run_round(ArrivalSource* pull);

  /// Pending-budget admission: sheds the over-budget suffix of `arrivals`
  /// (cheapest drop cost first, later index first on ties), charges the
  /// shed jobs as drops, and returns the admitted jobs (a view into
  /// member scratch, valid until the next call).
  [[nodiscard]] std::span<const Job> admit_arrivals(
      std::span<const Job> arrivals, bool degraded_round);

  /// Latest round <= `until` that fast-forward may jump to from k_
  /// without crossing a deadline-block boundary, fault event, snapshot
  /// round, or policy event (k_ itself when it sits on one).
  [[nodiscard]] Round next_stop_round(Round until) const;

  /// With an empty pending set, jumps k_ to the next round in
  /// (k_, until] that any party — source, delay classes, faults,
  /// snapshots, policy — can observe, charging degraded-round accounting
  /// for the skipped span.  No-op when the next event is k_ itself.
  void fast_forward(ArrivalSource& source, Round until);

  EngineOptions options_;
  Policy* policy_;
  std::unique_ptr<MetaSource> meta_;  ///< owned metadata snapshot
  Round arrival_end_ = 0;
  bool unit_lengths_ = true;
  PendingJobs pending_;
  CacheAssignment cache_;
  EngineResult result_;
  PendingJobs::DropResult dropped_;  // reused across rounds
  std::vector<Job> admitted_;        // admission-control scratch
  std::vector<std::size_t> shed_order_;
  std::unique_ptr<FaultCursor> faults_;
  PhaseTimers* timers_ = nullptr;
  bool tracing_ = false;
  Round max_deadline_ = 0;  ///< high-water mark over ingested deadlines
  Round k_ = 0;
  bool ended_ = false;  ///< finish() or abandon() already called
  bool ff_eligible_ = false;       ///< options + policy allow fast-forward
  std::vector<Round> ff_delays_;   ///< distinct delay bounds (stop rounds)
  Round ff_snapshot_every_ = 0;    ///< observer snapshot cadence (0 = none)
};

/// Runs `policy` against `source` under `options`, pulling rounds
/// sequentially.  For infinite sources options.max_rounds must be set.
[[nodiscard]] EngineResult run_policy(ArrivalSource& source, Policy& policy,
                                      const EngineOptions& options);

/// Runs `policy` on a materialized `instance` (wraps it in a
/// MaterializedSource; exactly instance.horizon() rounds plus the final
/// expiry sweep, as before the streaming refactor).
[[nodiscard]] EngineResult run_policy(const Instance& instance,
                                      Policy& policy,
                                      const EngineOptions& options);

}  // namespace rrs
