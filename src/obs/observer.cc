#include "obs/observer.h"

#include <iostream>

#include "core/checkpoint.h"
#include "util/check.h"

namespace rrs {

void Observer::begin_run(ColorId num_colors) {
  stats.begin(num_colors);
  trace.clear();
  timers.reset();
  snapshots.clear();
  final_snapshot = Snapshot{};
}

void Observer::on_churn(const Churn& e) {
  trace.push({e.round, e.fail ? TraceKind::kChurnFail : TraceKind::kChurnRepair,
              e.location, e.fail ? e.lost : 0});
}

void Observer::on_drop(const Drop& e) {
  stats.on_drop(e);
  TraceEvent* last = trace.newest();
  if (last != nullptr && last->kind == TraceKind::kDropBurst &&
      last->round == e.round) {
    ++last->detail;
    last->value += e.count;
  } else {
    trace.push({e.round, TraceKind::kDropBurst, 1, e.count});
  }
}

void Observer::on_reconfig(const Reconfiguration& e) {
  stats.on_reconfigs(e.round);
  TraceEvent* last = trace.newest();
  if (last != nullptr && last->kind == TraceKind::kReconfig &&
      last->round == e.round && last->detail == e.mini) {
    ++last->value;
  } else {
    trace.push({e.round, TraceKind::kReconfig, e.mini, 1});
  }
}

void Observer::on_round_end(const RoundEnd& e) {
  if (e.totals == nullptr || config.snapshot_every <= 0 ||
      (e.round + 1) % config.snapshot_every != 0) {
    return;
  }
  snapshots.push_back(make_snapshot(stats, *e.totals, e.round, e.pending));
  trace.push({e.round, TraceKind::kSnapshot, 0, e.pending});
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
