#include "sim/timeline.h"

#include <algorithm>

#include "core/replay.h"
#include "util/check.h"

namespace rrs {

namespace {

/// compute_timeline's sink: per-bucket event counts, and how many
/// locations hold each color, read at every round's end.  Drops due at
/// the horizon land in the last bucket.
class TimelineSink final : public RunSink {
 public:
  TimelineSink(const Instance& instance, Round width)
      : horizon_(instance.horizon()),
        width_(width),
        holders_(static_cast<std::size_t>(instance.num_colors()), 0),
        timeline(static_cast<std::size_t>((horizon_ + width - 1) / width)) {
    for (std::size_t b = 0; b < timeline.size(); ++b) {
      timeline[b].start = static_cast<Round>(b) * width_;
    }
  }

  void on_churn(const Churn& e) override {
    if (e.fail) release(e.lost);
  }
  void on_drop(const Drop& e) override {
    at(e.round).drops += e.count;
    at(e.round).drop_weight += e.weight;
  }
  void on_arrivals(const Arrivals& e) override {
    at(e.round).arrivals += static_cast<std::int64_t>(e.jobs.size());
  }
  void on_reconfig(const Reconfiguration& e) override {
    ++at(e.round).reconfigs;
    release(e.from);
    if (e.to != kBlack && holders_[static_cast<std::size_t>(e.to)]++ == 0) {
      ++distinct_;
    }
  }
  void on_exec(const ExecUnit& e) override { ++at(e.round).executions; }
  void on_round_end(const RoundEnd& e) override {
    at(e.round).distinct_colors = distinct_;
  }

 private:
  TimelineBucket& at(Round round) {
    return timeline[static_cast<std::size_t>(std::min(round, horizon_ - 1) /
                                             width_)];
  }
  void release(ColorId color) {
    if (color != kBlack && --holders_[static_cast<std::size_t>(color)] == 0) {
      --distinct_;
    }
  }

  Round horizon_;
  Round width_;
  std::vector<int> holders_;  // color -> locations configured to it
  int distinct_ = 0;

 public:
  std::vector<TimelineBucket> timeline;
};

}  // namespace

std::vector<TimelineBucket> compute_timeline(const Instance& instance,
                                             const Schedule& schedule,
                                             Round bucket_width) {
  RRS_REQUIRE(bucket_width >= 1, "bucket width must be >= 1");
  TimelineSink sink(instance, bucket_width);
  replay(instance, schedule, sink);
  return std::move(sink.timeline);
}

CsvWriter timeline_csv(const std::vector<TimelineBucket>& timeline) {
  CsvWriter csv({"start", "arrivals", "executions", "drops", "drop_weight",
                 "reconfigs", "distinct_colors"});
  for (const TimelineBucket& b : timeline) {
    csv.add_row({std::to_string(b.start), std::to_string(b.arrivals),
                 std::to_string(b.executions), std::to_string(b.drops),
                 std::to_string(b.drop_weight), std::to_string(b.reconfigs),
                 std::to_string(b.distinct_colors)});
  }
  return csv;
}

}  // namespace rrs
