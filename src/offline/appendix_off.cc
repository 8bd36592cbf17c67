#include "offline/appendix_off.h"

#include "core/pending.h"
#include "util/check.h"

namespace rrs {
namespace {

/// Replays `instance` on one resource following a piecewise-constant color
/// plan: `plan` maps the round at which a segment starts to the color to
/// configure from then on.  Executes greedily (earliest deadline first)
/// within the configured color.
Schedule run_single_resource_plan(const Instance& instance,
                                  const std::vector<std::pair<Round, ColorId>>&
                                      plan) {
  Schedule schedule;
  schedule.num_resources = 1;
  schedule.speed = 1;

  PendingJobs pending;
  pending.reset(instance.num_colors());
  PendingJobs::DropResult expired;  // reused sweep buffer
  std::size_t next_segment = 0;
  ColorId current = kBlack;

  for (Round k = 0; k < instance.horizon(); ++k) {
    pending.drop_expired(k, expired);
    pending.add(instance.arrivals_in_round(k));
    while (next_segment < plan.size() && plan[next_segment].first == k) {
      const ColorId color = plan[next_segment].second;
      ++next_segment;
      if (color != current) {
        current = color;
        schedule.reconfigs.push_back({k, 0, 0, color});
      }
    }
    if (current != kBlack && !pending.idle(current)) {
      schedule.execs.push_back({k, 0, 0, pending.pop_earliest(current)});
    }
  }
  return schedule;
}

}  // namespace

Schedule appendix_a_off_schedule(const AdversaryAInstance& adversary) {
  // Cache the long-term color from round 0 onward; drop all short jobs.
  return run_single_resource_plan(adversary.instance,
                                  {{0, adversary.long_color}});
}

Schedule appendix_b_off_schedule(const AdversaryBInstance& adversary) {
  const Round base_long_delay = Round{1} << adversary.params.k;
  std::vector<std::pair<Round, ColorId>> plan;
  plan.emplace_back(0, adversary.short_color);
  // Long color p occupies rounds [2^{k+p-1}, 2^{k+p}); the first segment
  // starts at 2^{k-1}, exactly when the short color's arrivals stop.
  for (std::size_t p = 0; p < adversary.long_colors.size(); ++p) {
    plan.emplace_back((base_long_delay << p) / 2, adversary.long_colors[p]);
  }
  Schedule schedule = run_single_resource_plan(adversary.instance, plan);
  RRS_CHECK_MSG(schedule.execs.size() == adversary.instance.jobs().size(),
                "Appendix B OFF is drop-free by construction");
  return schedule;
}

}  // namespace rrs
