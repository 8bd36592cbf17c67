#include "core/fault_plan.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"
#include "util/rng.h"

namespace rrs {

namespace {

/// Exponential interval of mean `mean`, floored to a whole round and at
/// least 1 so consecutive events never collide on the same resource.
Round exp_interval(Rng& rng, double mean) {
  const double u = 1.0 - rng.uniform01();  // in (0, 1]: log() stays finite
  return 1 + static_cast<Round>(-std::log(u) * mean);
}

}  // namespace

void validate_fault_plan(const FaultPlan& plan, int num_resources) {
  // state per resource: 0 = up, 1 = down.
  std::vector<char> down(static_cast<std::size_t>(num_resources), 0);
  Round prev_round = 0;
  for (std::size_t i = 0; i < plan.events.size(); ++i) {
    const FaultEvent& ev = plan.events[i];
    RRS_REQUIRE(ev.round >= 0,
                "fault event " << i << " has negative round " << ev.round);
    RRS_REQUIRE(i == 0 || ev.round >= prev_round,
                "fault events must be sorted by round; event "
                    << i << " at round " << ev.round << " follows round "
                    << prev_round);
    prev_round = ev.round;
    RRS_REQUIRE(ev.resource >= 0 && ev.resource < num_resources,
                "fault event " << i << " targets resource " << ev.resource
                               << ", outside [0, " << num_resources << ")");
    const auto r = static_cast<std::size_t>(ev.resource);
    RRS_REQUIRE(down[r] != (ev.fail ? 1 : 0),
                "fault event " << i << (ev.fail ? " fails" : " repairs")
                               << " resource " << ev.resource
                               << ", which is already "
                               << (ev.fail ? "down" : "up"));
    down[r] = ev.fail ? 1 : 0;
  }
}

FaultPlan make_mtbf_plan(const MtbfParams& params) {
  RRS_REQUIRE(params.num_resources >= 1, "need at least one resource");
  RRS_REQUIRE(params.horizon >= 0, "horizon must be >= 0");
  RRS_REQUIRE(params.mean_up > 0 && params.mean_down > 0,
              "mean_up and mean_down must be positive");
  FaultPlan plan;
  std::uint64_t sm = params.seed;
  for (int r = 0; r < params.num_resources; ++r) {
    Rng rng(splitmix64(sm));  // one independent stream per resource
    Round t = exp_interval(rng, params.mean_up);
    while (t < params.horizon) {
      plan.events.push_back({t, r, /*fail=*/true});
      const Round back_up = t + exp_interval(rng, params.mean_down);
      if (back_up >= params.horizon) break;  // stays down to the end
      plan.events.push_back({back_up, r, /*fail=*/false});
      t = back_up + exp_interval(rng, params.mean_up);
    }
  }
  std::stable_sort(plan.events.begin(), plan.events.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.round < b.round;
                   });
  return plan;
}

std::vector<FaultPlan> split_fault_plan(const FaultPlan& plan,
                                        std::span<const int> shard_resources) {
  std::vector<Round> offsets(shard_resources.size() + 1, 0);
  for (std::size_t s = 0; s < shard_resources.size(); ++s) {
    RRS_REQUIRE(shard_resources[s] >= 0, "negative shard resource count");
    offsets[s + 1] = offsets[s] + shard_resources[s];
  }
  std::vector<FaultPlan> shards(shard_resources.size());
  for (const FaultEvent& ev : plan.events) {
    RRS_REQUIRE(ev.resource >= 0 && ev.resource < offsets.back(),
                "fault event resource " << ev.resource << " outside [0, "
                                        << offsets.back() << ")");
    const auto s = static_cast<std::size_t>(
        std::upper_bound(offsets.begin(), offsets.end(), ev.resource) -
        offsets.begin() - 1);
    FaultEvent local = ev;
    local.resource = ev.resource - static_cast<int>(offsets[s]);
    shards[s].events.push_back(local);
  }
  return shards;
}

}  // namespace rrs
