#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "core/types.h"
#include "obs/histogram.h"
#include "util/field_list.h"

namespace rrs {

class StreamStats;

/// A cumulative point-in-time export of a run's counters: every field is a
/// run total as of `round` (not a delta since the previous snapshot).
/// Integer counters and integer-backed histograms make merge_into() exact,
/// commutative, and associative; mean_wait / mean_slack are derived doubles
/// recomputed from the merged histograms, so merged snapshots stay
/// internally consistent.  Deliberately holds no wall-clock or
/// timing-dependent data: two runs of the same workload produce
/// byte-identical snapshot streams, whatever the worker count.
struct Snapshot {
  Round round = 0;
  std::int64_t arrived = 0;
  std::int64_t executed = 0;
  std::int64_t drop_count = 0;
  Cost drop_weight = 0;
  /// Total drop cost of completed jobs (== executed under unit weights).
  Cost completed_weight = 0;
  /// Execution units applied (== executed under unit lengths).
  std::int64_t work_units = 0;
  /// Policy recolorings (charged repairs excluded).
  std::int64_t reconfig_events = 0;
  std::int64_t churn_failures = 0;
  std::int64_t churn_repairs = 0;
  std::int64_t churn_evictions = 0;
  std::int64_t pending = 0;  // live gauge at snapshot time
  double mean_wait = 0.0;
  double mean_slack = 0.0;
  Histogram wait;
  Histogram slack;
  Histogram service;  ///< per-completion job lengths
  Histogram reconfig_gap;

  /// The JSON keys, in line order.
  static constexpr std::tuple kFields{
      Field{"round", &Snapshot::round, Merge::kMax},
      Field{"arrived", &Snapshot::arrived},
      Field{"executed", &Snapshot::executed},
      Field{"drop_count", &Snapshot::drop_count},
      Field{"drop_weight", &Snapshot::drop_weight},
      Field{"completed_weight", &Snapshot::completed_weight},
      Field{"work_units", &Snapshot::work_units},
      Field{"reconfig_events", &Snapshot::reconfig_events},
      Field{"churn_failures", &Snapshot::churn_failures},
      Field{"churn_repairs", &Snapshot::churn_repairs},
      Field{"churn_evictions", &Snapshot::churn_evictions},
      Field{"pending", &Snapshot::pending},
      Field{"mean_wait", &Snapshot::mean_wait},
      Field{"mean_slack", &Snapshot::mean_slack},
      Field{"wait", &Snapshot::wait},
      Field{"slack", &Snapshot::slack},
      Field{"service", &Snapshot::service},
      Field{"reconfig_gap", &Snapshot::reconfig_gap},
  };

  friend bool operator==(const Snapshot&, const Snapshot&) = default;
};

/// Captures a run at `round`: its totals from the engine's `counters`, its
/// distributions and observer-only totals from `stats`, and a live pending
/// gauge.  The one place engine counter names map onto snapshot keys.
[[nodiscard]] Snapshot make_snapshot(const StreamStats& stats,
                                     const RunCounters& counters, Round round,
                                     std::int64_t pending);

/// Additive merge: counters and histograms add, round takes the max,
/// means are recomputed from the merged histograms.
void merge_into(Snapshot& into, const Snapshot& from);

/// Serializes one snapshot as a single JSON line (no trailing newline).
[[nodiscard]] std::string to_json_line(const Snapshot& snapshot);

/// Strict parser for exactly the format to_json_line() emits: fixed key
/// order, no whitespace, full-line consumption.  Rejects NaN/Inf, overflow,
/// trailing garbage, and internally inconsistent histograms with InputError.
[[nodiscard]] Snapshot parse_snapshot_line(std::string_view line);

/// One JSON line per snapshot.
void write_snapshots(std::ostream& os, std::span<const Snapshot> snapshots);

/// Reads JSON-lines snapshots; blank lines are skipped, anything else must
/// parse.  Throws InputError on malformed input.
[[nodiscard]] std::vector<Snapshot> read_snapshots(std::istream& in);

/// Merges K per-shard periodic snapshot series into one global series.
/// Series may be ragged (shards drain for different numbers of rounds);
/// a shard that stopped early contributes its final cumulative snapshot to
/// later points (carry-forward).  Order-independent across shards.
[[nodiscard]] std::vector<Snapshot> merge_snapshot_series(
    const std::vector<std::vector<Snapshot>>& per_shard);

}  // namespace rrs
