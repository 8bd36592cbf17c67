#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "core/run_events.h"
#include "core/types.h"
#include "obs/phase_timers.h"
#include "obs/snapshot.h"
#include "obs/stream_stats.h"
#include "obs/trace_ring.h"

namespace rrs {

class CheckpointReader;
class CheckpointWriter;

/// Observability knobs.  The true "off" mode is no Observer at all
/// (EngineOptions::observer == nullptr): the engine hot path then pays a
/// single null check per hook site and its results stay bit-identical to a
/// build without the subsystem.  With an Observer attached, StreamStats and
/// the trace ring are always on; phase timers and periodic snapshots toggle
/// independently.
struct ObsConfig {
  bool timers = false; ///< wall-clock phase attribution (1 clock read/phase)
  /// Emit a cumulative Snapshot every this many rounds (0 = only the final
  /// snapshot at end of run).
  Round snapshot_every = 0;
};

/// Per-engine observability bundle threaded through a run: a sink on the
/// engine's event stream (core/run_events.h) that feeds StreamStats, folds
/// each phase's drops and reconfigurations into one trace entry, and takes
/// the periodic snapshots at round ends.  Not thread-safe: each engine
/// (each shard) gets its own Observer; sharded runs merge them additively
/// afterwards.  The run's totals are not counted here: the engine keeps
/// them in RunCounters and hands them to each snapshot.
struct Observer final : RunSink {
  explicit Observer(const ObsConfig& c = {}) : config(c) {}

  ObsConfig config;
  StreamStats stats;
  TraceRing trace;  ///< the last 256 events
  PhaseTimers timers;
  std::vector<Snapshot> snapshots;  ///< periodic exports, oldest first
  Snapshot final_snapshot;          ///< totals at end of run
  /// Optional JSON-lines sink (not owned): periodic and final snapshots are
  /// written here as they are taken.
  std::ostream* snapshot_out = nullptr;
  /// Where dump_trace() writes when not given a stream; nullptr = stderr.
  std::ostream* trace_dump_out = nullptr;

  /// Resets all state for a run over colors [0, num_colors).
  void begin_run(ColorId num_colors);

  void on_churn(const Churn& e) override;
  void on_drop(const Drop& e) override;
  void on_arrivals(const Arrivals& e) override { stats.on_arrivals(e); }
  void on_reconfig(const Reconfiguration& e) override;
  void on_exec(const ExecUnit& e) override { stats.on_exec(e); }
  /// Every config.snapshot_every rounds, appends a snapshot of the
  /// engine's totals and stats to `snapshots` (and writes it to
  /// snapshot_out, if set).
  void on_round_end(const RoundEnd& e) override;

  /// Captures the final snapshot (and writes it to snapshot_out, if set).
  void finish_run(const RunCounters& counters, Round round,
                  std::int64_t pending);

  /// Dumps the trace ring: to `os` if given, else to trace_dump_out, else
  /// to stderr.  The engine calls this when a run dies on InvariantError.
  void dump_trace(std::ostream* os = nullptr) const;

  /// Serializes stats plus the periodic snapshot series (as JSON lines,
  /// re-validated through the strict parser on restore).  The trace ring and
  /// phase timers are diagnostics — recent-event debris and wall-clock data —
  /// and are deliberately excluded: a restored run reproduces results, not
  /// the debug trace.  restore_checkpoint requires begin_run() to have been
  /// called with the same color count; a snapshot_out sink attached to the
  /// restored observer receives only post-restore snapshots (the in-memory
  /// series stays complete).
  void checkpoint(CheckpointWriter& w) const;
  void restore_checkpoint(CheckpointReader& r);
};

}  // namespace rrs
