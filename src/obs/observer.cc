#include "obs/observer.h"

#include <iostream>

#include "core/checkpoint.h"
#include "util/check.h"

namespace rrs {

void Observer::begin_run(std::span<const Round> delay_bounds,
                         std::span<const Cost> drop_costs,
                         std::span<const Round> lengths) {
  stats.begin(delay_bounds, drop_costs, lengths);
  trace.clear();
  timers.reset();
  snapshots.clear();
  final_snapshot = Snapshot{};
}

void Observer::emit_snapshot(const RunCounters& counters, Round round,
                             std::int64_t pending) {
  snapshots.push_back(make_snapshot(stats, counters, round, pending));
  if (config.trace) {
    trace.push({round, TraceKind::kSnapshot, 0, pending});
  }
  if (snapshot_out != nullptr) {
    write_snapshots(*snapshot_out, {&snapshots.back(), 1});
  }
}

void Observer::finish_run(const RunCounters& counters, Round round,
                          std::int64_t pending) {
  final_snapshot = make_snapshot(stats, counters, round, pending);
  if (snapshot_out != nullptr) {
    write_snapshots(*snapshot_out, {&final_snapshot, 1});
  }
}

void Observer::checkpoint(CheckpointWriter& w) const {
  w.i64(config.snapshot_every);
  stats.checkpoint(w);
  w.u64(snapshots.size());
  for (const Snapshot& s : snapshots) {
    w.str(to_json_line(s));
  }
}

void Observer::restore_checkpoint(CheckpointReader& r) {
  RRS_REQUIRE(r.i64() == config.snapshot_every,
              "checkpoint snapshot cadence mismatch");
  stats.restore_checkpoint(r);
  const std::uint64_t n = r.u64();
  snapshots.clear();
  snapshots.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    snapshots.push_back(parse_snapshot_line(r.str()));
  }
  final_snapshot = Snapshot{};
}

void Observer::dump_trace(std::ostream* os) const {
  std::ostream& sink =
      os != nullptr ? *os
                    : (trace_dump_out != nullptr ? *trace_dump_out : std::cerr);
  sink << "# rrs trace-ring dump\n";
  trace.dump(sink);
}

}  // namespace rrs
