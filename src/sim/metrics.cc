#include "sim/metrics.h"

#include <algorithm>

#include "core/replay.h"
#include "obs/stream_stats.h"
#include "util/check.h"

namespace rrs {

DistributionSummary summarize(std::vector<Round> samples) {
  DistributionSummary s;
  if (samples.empty()) return s;
  s.count = static_cast<std::int64_t>(samples.size());
  s.min = samples.front();
  s.max = samples.front();
  for (const Round v : samples) {
    s.sum += v;
    s.min = std::min(s.min, v);
    s.max = std::max(s.max, v);
  }
  s.mean = static_cast<double>(s.sum) / static_cast<double>(samples.size());
  // Nearest rank in integer arithmetic: 1-based rank ceil(p * count / 100).
  // floor(q * (count - 1)) indexing returned the MINIMUM for p99 on a
  // 2-element sample and was hostage to floating-point rounding
  // (0.95 * 20 < 19.0); integer nearest-rank has neither failure mode.
  //
  // Selection instead of a full sort: the three ranks are nondecreasing,
  // so each nth_element narrows to the suffix the previous one left
  // partitioned.  O(count) expected versus O(count log count), and the
  // selected values are exactly the sorted array's — bit-identical.
  auto begin = samples.begin();
  const auto at = [&](std::int64_t p) {
    const std::int64_t rank = (s.count * p + 99) / 100;  // >= 1
    const auto nth = samples.begin() + static_cast<std::ptrdiff_t>(rank - 1);
    if (nth >= begin) {
      std::nth_element(begin, nth, samples.end());
      begin = nth;
    }
    return *nth;
  };
  s.p50 = at(50);
  s.p95 = at(95);
  s.p99 = at(99);
  return s;
}

namespace {

/// compute_metrics' sink: the per-color counts StreamStats keeps from the
/// same events, plus the completed jobs' wait and slack samples (exact
/// percentiles need them) and the span of rounds with an event.
struct MetricsSink final : RunSink {
  void on_arrivals(const Arrivals& e) override { stats.on_arrivals(e); }
  void on_drop(const Drop& e) override { stats.on_drop(e); }
  void on_reconfig(const Reconfiguration& e) override { span(e.round); }

  /// Each unit fills a slot; a job contributes its samples at its
  /// completing (length(color)-th) unit — every unit under unit lengths.
  void on_exec(const ExecUnit& e) override {
    RRS_CHECK_MSG(e.round >= e.arrival && e.round < e.deadline,
                  "compute_metrics on an invalid schedule (job " << e.job
                                                                 << ")");
    stats.on_exec(e);
    ++units;
    span(e.round);
    if (!e.completes()) return;
    waits.push_back(e.round - e.arrival);
    slacks.push_back(e.deadline - 1 - e.round);
  }

  void span(Round round) {
    if (first_round < 0 || round < first_round) first_round = round;
    last_round = std::max(last_round, round);
  }

  StreamStats stats;
  std::vector<Round> waits, slacks;
  std::int64_t units = 0;
  Round first_round = -1, last_round = -1;
};

}  // namespace

ScheduleMetrics compute_metrics(const Instance& instance,
                                const Schedule& schedule) {
  MetricsSink sink;
  sink.stats.begin(instance.num_colors());
  replay(instance, schedule, sink);

  ScheduleMetrics m;
  std::int64_t completed = 0;
  for (ColorId c = 0; c < instance.num_colors(); ++c) {
    const ColorObs& obs = sink.stats.per_color()[static_cast<std::size_t>(c)];
    m.per_color.push_back({c, obs.arrived, obs.executed, obs.dropped,
                           obs.dropped_weight, obs.mean_wait()});
    completed += obs.executed;
  }
  m.wait = summarize(std::move(sink.waits));
  m.slack = summarize(std::move(sink.slacks));
  m.service_rate = instance.jobs().empty()
                       ? 1.0
                       : static_cast<double>(completed) /
                             static_cast<double>(instance.jobs().size());
  if (sink.first_round >= 0 && schedule.num_resources > 0) {
    const double span =
        static_cast<double>(sink.last_round - sink.first_round + 1) *
        static_cast<double>(schedule.num_resources) *
        static_cast<double>(schedule.speed);
    m.utilization = static_cast<double>(sink.units) / span;
  }
  return m;
}

}  // namespace rrs
