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

/// Outcome of one run, on an instance or a stream: the engine's counters
/// plus its identity, wall clock and policy stats.
struct StreamRunRecord : RunCounters {
  std::string algorithm;
  int n = 0;
  double seconds = 0.0;  ///< wall-clock of the run
  std::vector<std::pair<std::string, std::int64_t>> stats;
};

/// Runs the registered algorithm `name` with `n` resources on `instance`
/// for exactly instance.horizon() rounds.  If `schedule_out` is non-null
/// the event schedule (a reduction's mapped back) is recorded there.
[[nodiscard]] StreamRunRecord run_algorithm(const Instance& instance,
                                            const std::string& name, int n,
                                            Schedule* schedule_out = nullptr);

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
  /// snapshot_out), final snapshots merged.  The merge holds only
  /// deterministic data, so the snapshot bytes do not depend on whether
  /// the shards ran over shard-native views or the demux fabric.  A
  /// reduction ("distribute", "varbatch") rejects an observer with
  /// InputError: it would count the adapters' virtual colors.
  Observer* observer = nullptr;
  /// Sparse-round fast-forward (see EngineOptions::fast_forward).
  /// Bit-identical either way; disable only to measure the skip.
  bool fast_forward = true;
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

/// Runs the registered algorithm `name` with `n` resources against
/// `source`, pulling rounds lazily: no schedule recording, no
/// materialization, memory O(pending + colors).  `max_rounds` caps the
/// pull (required for infinite sources).  A reduction ("distribute",
/// "varbatch") runs dLRU-EDF over its adapters (make_reduction) and
/// reports the mapped-back cost.  The one-engine case of
/// run_streaming_sharded.
[[nodiscard]] StreamRunRecord run_streaming(
    ArrivalSource& source, const std::string& name, int n,
    Round max_rounds = kInfiniteHorizon,
    const FaultPlan* fault_plan = nullptr, bool charge_repair = false,
    Observer* observer = nullptr, bool fast_forward = true);

/// Knobs for a sharded streaming run.
///
/// The plan (make_shard_plan) deals colors by count and is built with the
/// policy's replication, so whenever every color fits in n no shard gets
/// more colors than its slice can cache.
struct ShardedRunOptions : RunOptions {
  /// Rounds demultiplexed per produced fabric chunk.
  Round chunk_rounds = 256;
  /// Buffered chunks per shard before the splitter applies backpressure.
  std::size_t max_buffered_chunks = 64;
};

/// Outcome of one sharded streaming run: the per-shard records plus their
/// merge.  The merged counters follow RunCounters' field list: exact sums
/// (the color partition makes shards independent), except rounds, the
/// maximum over shards.  Merged policy stats sum per-key over shards.
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
  /// True when no demux fabric served the run (one engine, or shard-native
  /// generator views); the splitter gauges are then all zero.
  bool native_sources = false;
};

/// Runs `name` against `source` split into `num_shards` independent
/// engines (own PendingJobs, CacheAssignment, and policy instance per
/// shard) under one ShardPlan for the whole run.  Partitioning colors
/// partitions the problem, so shards never contend: results are
/// deterministic for a fixed (source seed, num_shards), and num_shards == 1
/// is run_streaming itself.  This is not the paper's Distribute reduction,
/// which serves virtual colors with one dLRU-EDF and does not split
/// resources: the shards keep Theorem 1's guarantee only when each slice
/// alone carries the augmentation (n_s = O(m)).  Every engine runs to the
/// next boundary (a multiple of checkpoint_every, or of 1024 rounds when
/// only a stop flag needs checking), where the runner checkpoints or
/// stops.  One engine runs on the calling thread over `source`; K engines
/// run on global_pool() over restricted clones when `source` is a
/// generator with its own shard-native clone(), otherwise over one demux
/// fabric (ShardedSource) spanning the run.  When the pool cannot run
/// every fabric shard at once (fewer workers than shards, or a call from
/// inside a pool worker) the shards take turns on the calling thread, one
/// chunk at a time.  A shard that throws closes the fabric, so the run
/// fails at once with that shard's error.  A reduction's adapters are an
/// opaque source: the fabric splits their virtual colors.  Rejected with
/// InputError: K > 1 checkpoints or stop flag without shard-native clones
/// (the fabric's run-ahead is not repositionable), and a reduction with
/// checkpoints, resume or the stop flag (its adapters do not checkpoint).
[[nodiscard]] ShardedRunRecord run_streaming_sharded(
    ArrivalSource& source, const std::string& name, int n, int num_shards,
    Round max_rounds = kInfiniteHorizon,
    const ShardedRunOptions& options = {});

}  // namespace rrs
