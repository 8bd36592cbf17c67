// One-call experiment runner: algorithm name + instance -> measured record.
#pragma once

#include <csignal>
#include <string>
#include <vector>

#include "algs/registry.h"
#include "core/arrival_source.h"
#include "core/engine.h"
#include "core/instance.h"
#include "core/shard_plan.h"
#include "obs/observer.h"

namespace rrs {

/// Outcome of one (algorithm, instance, n) cell.
struct RunRecord {
  std::string algorithm;
  int n = 0;
  CostBreakdown cost;
  std::int64_t executed = 0;
  double seconds = 0.0;  ///< wall-clock of the run
  std::vector<std::pair<std::string, std::int64_t>> stats;
};

/// Runs the registered algorithm `name` with `n` resources on `instance`.
/// If `schedule_out` is non-null the event schedule is recorded there.
[[nodiscard]] RunRecord run_algorithm(const Instance& instance,
                                      const std::string& name, int n,
                                      Schedule* schedule_out = nullptr);

/// Outcome of one streaming run.
struct StreamRunRecord {
  std::string algorithm;
  int n = 0;
  CostBreakdown cost;
  std::int64_t executed = 0;      ///< jobs completed
  std::int64_t work_units = 0;    ///< execution units applied (== executed
                                  ///< under unit lengths)
  std::int64_t arrived = 0;       ///< jobs pulled from the source
  Round rounds = 0;               ///< rounds actually run
  std::int64_t peak_pending = 0;  ///< max pending-set size observed
  /// Arrivals shed by pending-budget admission control (already counted in
  /// arrived and charged in cost.drops).
  std::int64_t admission_rejected = 0;
  DegradedStats degraded;         ///< capacity-churn counters
  double seconds = 0.0;           ///< wall-clock of the run
  std::vector<std::pair<std::string, std::int64_t>> stats;
};

/// Builds the engine options + fresh policy for the streaming algorithm
/// `name` ("seq-edf"/"ds-seq-edf" run EDF unreplicated at speed 1/2;
/// everything else goes through the registry with the Section 3
/// replication of 2).  Throws InputError on unknown names.
[[nodiscard]] std::unique_ptr<Policy> make_stream_policy(
    const std::string& name, EngineOptions& options);

/// Knobs every run driver shares (run_streaming takes the first four as
/// arguments; ServiceOptions and ShardedRunOptions extend this).
struct RunOptions {
  /// Optional capacity-churn schedule over the GLOBAL resource indices
  /// [0, n) (not owned); a sharded run splits it by resource block.
  const FaultPlan* fault_plan = nullptr;
  /// Charge each repair as one reconfiguration (see EngineOptions).
  bool charge_repair = false;
  /// Optional observability sink (not owned; see EngineOptions::observer).
  /// One engine drives it directly; its state rides inside checkpoints
  /// (restore requires the same ObsConfig).  K engines each get a fresh
  /// Observer (same ObsConfig, no snapshot stream), and after the run this
  /// one is rebuilt as their exact additive merge: per-color counters
  /// relabeled to global ColorIds, histograms merged, timers summed,
  /// snapshot series merged point-wise with carry-forward (then written to
  /// snapshot_out), final snapshots merged.
  Observer* observer = nullptr;
  /// Sparse-round fast-forward (see EngineOptions::fast_forward).
  /// Bit-identical either way; disable only to measure the skip.
  bool fast_forward = true;
  /// Pending-budget admission control (see EngineOptions::pending_budget);
  /// 0 = unlimited.  Shard s of a sharded run gets
  /// budget * shard_resources[s] / n, rounded down but at least 1.
  std::int64_t pending_budget = 0;
  /// Checkpoint directory, required by checkpoint_every, resume and
  /// stop_flag.  One engine writes `ckpt-<round>.rrsckpt` (source
  /// embedded); K engines write a `ckpt-<round>.shard<s>` sidecar per
  /// shard, then `ckpt-<round>.manifest` as the commit point.
  std::string checkpoint_dir;
  /// Checkpoint at every multiple of this many rounds inside the arrival
  /// range; 0 = none.  Checkpointing never perturbs results.
  Round checkpoint_every = 0;
  /// Checkpoints retained on disk after each write: the newest of this
  /// run's own lineage (the one it resumed from and those it wrote).
  /// Every other checkpoint in the directory is deleted.  Must be >= 1.
  int checkpoint_keep = 3;
  /// Before running, restore from the newest valid checkpoint in
  /// checkpoint_dir (corrupt or mismatched ones are skipped to the
  /// next-oldest; InputError when none is usable).  The resumed run's
  /// record is bit-identical to the uninterrupted run's.
  bool resume = false;
  /// Cooperative shutdown: when non-null and set non-zero (e.g. by
  /// install_signal_stop's handler), the run stops at the next segment
  /// boundary, checkpoints there, and returns unfinished.
  volatile std::sig_atomic_t* stop_flag = nullptr;
};

/// How a run ended.
struct RunStatus {
  /// True when the run reached its natural end (arrivals exhausted and
  /// drained); false when the stop flag ended it early.
  bool finished = false;
  /// Round of the checkpoint the run resumed from; -1 for a fresh start.
  Round recovered_from = -1;
  int checkpoints_written = 0;  ///< checkpoints committed by this call
  /// Path of the newest checkpoint this call committed (the manifest for
  /// K engines); empty when none was written.
  std::string final_checkpoint;
};

/// Runs the engine-driven algorithm `name` ("dlru", "edf", "dlru-edf",
/// "adaptive", "seq-edf", "ds-seq-edf") with `n` resources against
/// `source`, pulling rounds lazily: no schedule recording, no
/// materialization, memory O(pending + colors).  `max_rounds` caps the
/// pull (required for infinite sources).  The reduction pipelines
/// ("distribute", "varbatch") are whole-instance transforms and are not
/// available here.  The one-engine case of run_streaming_sharded.
[[nodiscard]] StreamRunRecord run_streaming(
    ArrivalSource& source, const std::string& name, int n,
    Round max_rounds = kInfiniteHorizon,
    const FaultPlan* fault_plan = nullptr, bool charge_repair = false,
    Observer* observer = nullptr, bool fast_forward = true);

/// Knobs for a sharded streaming run.
struct ShardedRunOptions : RunOptions {
  /// Per-color load weights for the plan (see make_shard_plan); empty
  /// means uniform.  Use observe_color_weights on a probe source to
  /// balance shards by observed rate.
  std::vector<double> color_weights;
  /// Rounds demultiplexed per produced fabric chunk.
  Round chunk_rounds = 256;
  /// Buffered chunks per shard before the splitter applies backpressure.
  std::size_t max_buffered_chunks = 64;
  /// Optional caller-provided per-shard observers (size == num_shards; not
  /// owned); takes precedence over the runner-created ones so tests can
  /// inspect raw per-shard state.  Entries must not share snapshot
  /// streams: shards run concurrently.
  std::vector<Observer*> shard_observers;
  /// Adaptive re-sharding epoch: every this many rounds the runner takes
  /// the per-color arrival counts each shard consumer observed since the
  /// last boundary, recomputes the LPT plan from them (weights =
  /// counts + 1), and — if the plan changed — migrates every color's
  /// state (pending jobs, policy scratch) into freshly built engines
  /// under the new plan.  0 (default) disables: one plan for the whole
  /// run.  A single shard never migrates.
  Round reshard_every = 0;
};

/// Outcome of one sharded streaming run: the per-shard records plus their
/// merge.  The merged CostBreakdown/executed/arrived are exact sums (the
/// color partition makes shards independent); merged rounds is the
/// maximum over shards and merged peak_pending the sum of per-shard peaks
/// (shards run asynchronously, so the true global peak is unobservable —
/// the sum is a deterministic upper bound).  Merged policy stats sum
/// per-key over shards.
struct ShardedRunRecord : RunStatus {
  StreamRunRecord merged;                ///< n = total budget
  std::vector<StreamRunRecord> shards;   ///< per-shard, n = shard slice
  ShardPlan plan;                        ///< the partition that was run
  /// Splitter queue-depth gauges: peak buffered chunks per shard and total
  /// chunks produced.  The peaks are timing-dependent (consumer scheduling
  /// varies run to run), so they are diagnostics — deliberately kept out
  /// of `merged`/`shards`, whose fields are deterministic.
  std::vector<std::int64_t> splitter_peak_chunks;
  std::int64_t splitter_chunks_produced = 0;
  /// Residual chunks left in the rings when each segment's fabric shut
  /// down, summed (0 on a clean run — consumers drain their segments).
  std::int64_t fabric_ring_occupancy = 0;
  /// True when no demux fabric served the run (one engine, or shard-native
  /// generator views); the splitter gauges are then all zero.
  bool native_sources = false;
  /// Re-sharding log, one entry per boundary where the plan CHANGED: the
  /// boundary round and how many colors moved shards there.  With
  /// reshard_every == 0 (or when every boundary kept the plan) both stay
  /// empty and `plan` is the run's single plan; otherwise `plan` is the
  /// final era's.
  std::vector<Round> reshard_rounds;
  std::vector<int> reshard_moved_colors;
};

/// Runs `name` against `source` split into `num_shards` independent
/// engines (own PendingJobs, CacheAssignment, and policy instance per
/// shard).  The color partition mirrors the paper's Distribute reduction,
/// so shards never contend: results are deterministic for a fixed (source
/// seed, num_shards), and num_shards == 1 is run_streaming itself.  Every
/// engine runs to the next boundary (a multiple of checkpoint_every or
/// reshard_every, or of 1024 rounds when only a stop flag needs checking),
/// where the runner checkpoints, re-shards or stops.  One engine runs on
/// the calling thread over `source`; K engines run on global_pool() over
/// restricted clones when `source` is a generator with its own
/// shard-native clone(), otherwise over the demux fabric (ShardedSource).
/// Rejected with InputError: K > 1 checkpoints or stop flag without
/// shard-native clones (the fabric's run-ahead is not repositionable), and
/// re-sharding with a fault plan, shard_observers, a snapshot series or
/// checkpoints (each assumes one engine generation per shard).
[[nodiscard]] ShardedRunRecord run_streaming_sharded(
    ArrivalSource& source, const std::string& name, int n, int num_shards,
    Round max_rounds = kInfiniteHorizon,
    const ShardedRunOptions& options = {});

}  // namespace rrs
