#include "core/schedule.h"

#include <array>
#include <limits>

#include "core/checkpoint.h"
#include "core/replay.h"
#include "util/check.h"

namespace rrs {

CostBreakdown Schedule::cost(const Instance& instance) const {
  CostTally tally;
  replay(instance, *this, tally);
  return tally.cost;
}

void CostTally::on_churn(const Churn& e) {
  if (!e.charged) return;
  ++cost.reconfig_events;
  ++cost.churn_reconfigs;
  cost.reconfig_cost += e.price;
}

void CostTally::on_drop(const Drop& e) { cost.drops += e.weight; }

void CostTally::on_reconfig(const Reconfiguration& e) {
  ++cost.reconfig_events;
  cost.reconfig_cost += e.price;
}

void ScheduleRecorder::on_churn(const Churn& e) {
  schedule.churn.push_back({e.round, e.location, e.fail, e.charged});
}

void ScheduleRecorder::on_reconfig(const Reconfiguration& e) {
  schedule.reconfigs.push_back({e.round, e.mini, e.location, e.to});
}

void ScheduleRecorder::on_exec(const ExecUnit& e) {
  schedule.execs.push_back({e.round, e.mini, e.location, e.job});
}

// Every field is written as i64, four per event.
void ScheduleRecorder::checkpoint(CheckpointWriter& w) const {
  const auto write = [&w](const auto& events, const auto& fields) {
    w.u64(events.size());
    for (const auto& e : events) {
      for (const std::int64_t v : fields(e)) w.i64(v);
    }
  };
  write(schedule.reconfigs, [](const ReconfigEvent& e) {
    return std::array<std::int64_t, 4>{e.round, e.mini, e.resource, e.color};
  });
  write(schedule.execs, [](const ExecEvent& e) {
    return std::array<std::int64_t, 4>{e.round, e.mini, e.resource, e.job};
  });
  write(schedule.churn, [](const ChurnEvent& e) {
    return std::array<std::int64_t, 4>{e.round, e.resource, e.fail,
                                       e.charged};
  });
}

void ScheduleRecorder::restore_checkpoint(CheckpointReader& r,
                                          ColorId num_colors) {
  // Reads one list of four-field events; the remaining bytes bound the
  // claimable count, so a corrupt length cannot trigger a huge reserve.
  const auto read = [&r](auto& events, const auto& make) {
    const std::uint64_t count = r.u64();
    RRS_REQUIRE(count <= r.remaining() / 32, "checkpoint schedule truncated");
    events.reserve(static_cast<std::size_t>(count));
    for (std::uint64_t i = 0; i < count; ++i) {
      std::array<std::int64_t, 4> v{};
      for (std::int64_t& field : v) field = r.i64();
      events.push_back(make(v));
    }
  };
  // Each event must lie inside the run: round >= 0, mini < speed,
  // resource < num_resources, color < num_colors, job >= 0.
  const auto in = [](std::int64_t v, std::int64_t lo, std::int64_t end) {
    RRS_REQUIRE(v >= lo && v < end, "checkpoint schedule event field " << v
                                        << " outside [" << lo << ", " << end
                                        << ")");
    return static_cast<std::int32_t>(v);
  };
  const int n = schedule.num_resources;
  const int speed = schedule.speed;
  constexpr std::int64_t kAny = std::numeric_limits<std::int64_t>::max();
  Schedule restored{n, speed, {}, {}, {}};
  read(restored.reconfigs, [&](const auto& v) {
    in(v[0], 0, kAny);
    return ReconfigEvent{v[0], in(v[1], 0, speed), in(v[2], 0, n),
                         in(v[3], kBlack, num_colors)};
  });
  read(restored.execs, [&](const auto& v) {
    in(v[0], 0, kAny);
    in(v[3], 0, kAny);
    return ExecEvent{v[0], in(v[1], 0, speed), in(v[2], 0, n), v[3]};
  });
  read(restored.churn, [&](const auto& v) {
    in(v[0], 0, kAny);
    return ChurnEvent{v[0], in(v[1], 0, n), in(v[2], 0, 2) != 0,
                      in(v[3], 0, 2) != 0};
  });
  schedule = std::move(restored);
}

}  // namespace rrs
