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
// place cost is accounted for online algorithms (incrementally, per
// phase).  It emits each run event once (core/run_events.h) to its sinks:
// the schedule recorder (EngineOptions::record_schedule), the Observer,
// and any sink attached with Engine::attach().
#pragma once

#include <iosfwd>
#include <vector>

#include "core/arrival_source.h"
#include "core/fault_plan.h"
#include "core/instance.h"
#include "core/pending.h"
#include "core/policy.h"
#include "core/run_events.h"
#include "core/schedule.h"
#include "core/types.h"

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
  /// Attach the schedule recorder (disable for large benchmark runs).
  bool record_schedule = true;
  /// Cap on rounds pulled from the source.  Required (finite) when the
  /// source is infinite; kInfiniteHorizon means "the source's horizon".
  Round max_rounds = kInfiniteHorizon;
  /// After arrivals end, keep running rounds until the pending set empties
  /// (every job executes or expires).  Off by default: the run is exactly
  /// the arrival rounds plus one final expiry sweep, which drops every job
  /// still pending — including those whose deadline lies past the last
  /// round (a finite generator's last arrivals, or a max_rounds clip).
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
  /// CostBreakdown::churn_reconfigs; the recorded schedule marks them, so
  /// the validator prices them exactly as the engine does.
  bool charge_repair = false;
  /// Optional observability sink (not owned; must outlive the run).
  /// nullptr is the off mode: with no schedule recorded either, every emit
  /// site degrades to one branch on an empty sink list and the run's
  /// results are bit-identical to a build without the obs subsystem.  With
  /// an observer the engine feeds it every run event (StreamStats, the
  /// TraceRing and periodic snapshots per ObsConfig::snapshot_every read
  /// them), attributes phase time when ObsConfig::timers is set, and dumps
  /// the trace ring to Observer::trace_dump_out (default stderr) if the run
  /// dies on an InvariantError.
  Observer* observer = nullptr;
  /// Sparse-round fast-forward: when the pending set is empty and the
  /// policy declares supports_fast_forward(), run_rounds() jumps over
  /// spans with no arrivals (per the source's next_event_round() hint),
  /// no fault event, no snapshot round, and no policy event (the ranked
  /// policies report their block starts).  Every skipped round is a
  /// provable no-op, so results — costs, schedules, stats, snapshots —
  /// are bit-identical with the flag off; disable only to measure the
  /// skip itself.
  bool fast_forward = true;
};

/// Result of one engine run: its counters plus what only the engine holds.
struct EngineResult : RunCounters {
  Schedule schedule;  ///< events iff options.record_schedule
  /// Policy-specific counters captured after the run.
  std::vector<std::pair<std::string, std::int64_t>> policy_stats;
};

/// The round engine as a resumable object: construct, run segments of
/// rounds, then finish (drain + terminal expiry sweep) or abandon
/// (counters only — a stopped run resumes from its checkpoint).
///
/// The constructor copies the cost model and the per-color delay bounds
/// out of `source`, so the drain and the terminal sweep never call back
/// into a source: each run_rounds() call may use a different ArrivalSource
/// object, as long as together they deliver the global round sequence in
/// order.  `policy.begin` is called from the constructor with `source`.
class Engine {
 public:
  /// Validates `options`, resolves the arrival horizon from `source`
  /// (clipped by options.max_rounds), and starts the run at round 0.
  Engine(ArrivalSource& source, Policy& policy, const EngineOptions& options);
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Attaches `sink` (not owned) to every later event, after the recorder
  /// and the observer.  Call before the first run_rounds().
  void attach(RunSink& sink) { sinks_.push_back(&sink); }

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
  /// expiry sweep, which charges every job still pending as a drop;
  /// returns the run's result.  Call at most once, after the last
  /// run_rounds().
  [[nodiscard]] EngineResult finish();

  /// Ends the run WITHOUT the drain/terminal sweep: returns the counters
  /// accumulated so far.  Used when the stop flag ends a run whose pending
  /// jobs live on in its checkpoint.
  [[nodiscard]] EngineResult abandon();

  /// Serializes the complete mutable run state — options fingerprint,
  /// round cursor, accumulated counters, fault cursor, the recorder's
  /// schedule when recorded, pending set, cache, policy scratch, observer
  /// stats —
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
  /// Delivers `event` to every attached sink, in attach order.
  template <typename Event>
  void emit(void (RunSink::*hook)(const Event&), const Event& event) const {
    for (RunSink* const sink : sinks_) (sink->*hook)(event);
  }

  /// Churn phase at k_: applies every fault event due by k_ and, when
  /// there was one, notifies the policy once.
  void churn_phase();

  /// The counters (and recorded schedule) at the end of a run.
  [[nodiscard]] EngineResult end_run();

  /// One full round at k_: churn, drop, arrival (from `pull`, or none),
  /// speed mini-rounds of policy + execution, periodic snapshot.
  void run_round(ArrivalSource* pull);

  /// Drop phase at k_: expires the pending jobs whose deadline is at most
  /// `through` and charges their weight (also to drops_while_degraded
  /// when `degraded`).
  void drop_phase(Round through, bool degraded);

  /// Writes what a checkpoint must share with the engine restoring it:
  /// the options, the policy name, the arrival horizon and every color's
  /// delay bound, drop cost and length.
  void write_identity(CheckpointWriter& w) const;

  /// With an empty pending set, jumps k_ to the next round in
  /// (k_, until] that any party — source, faults, snapshots, policy —
  /// can observe, charging degraded-round accounting for the skipped
  /// span.  No-op when the next event is k_ itself.
  void fast_forward(ArrivalSource& source, Round until);

  EngineOptions options_;
  Policy* policy_;
  CostModel model_;                 ///< prices every drop and recoloring
  std::vector<Round> delay_bounds_;  ///< color -> D_c
  Round arrival_end_ = 0;
  PendingJobs pending_;
  CacheAssignment cache_;
  EngineResult result_;
  PendingJobs::DropResult dropped_;  // reused across rounds
  ScheduleRecorder recorder_;
  std::vector<RunSink*> sinks_;  ///< recorder, observer, then attached
  std::size_t fault_next_ = 0;   ///< next FaultPlan event to apply
  std::vector<ColorId> lost_;    ///< location -> physical color at failure
  std::vector<ColorId> evicted_;  ///< colors evicted by this round's churn
  PhaseTimers* timers_ = nullptr;
  Round max_deadline_ = 0;  ///< high-water mark over ingested deadlines
  Round k_ = 0;
  bool ended_ = false;  ///< finish() or abandon() already called
  bool ff_eligible_ = false;       ///< options + policy allow fast-forward
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
