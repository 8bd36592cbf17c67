#include "core/schedule.h"

#include "util/check.h"

namespace rrs {

CostBreakdown Schedule::cost(const Instance& instance) const {
  const CostModel& model = instance.cost_model();
  CostBreakdown c;
  c.reconfig_events = static_cast<Cost>(reconfigs.size());

  // Reconfiguration charges.  Scalar and vector tiers price each event by
  // its target alone; only the matrix tier needs the previous occupant,
  // recovered by replaying the per-resource configuration (events are in
  // order).  Recoloring to kBlack (freeing) is 0 in every tier.
  if (model.tier() != CostModel::Tier::kMatrix) {
    for (const ReconfigEvent& e : reconfigs) {
      c.reconfig_cost += model.reconfig_cost(kBlack, e.color);
    }
  } else {
    std::vector<ColorId> config(static_cast<std::size_t>(num_resources),
                                kBlack);
    for (const ReconfigEvent& e : reconfigs) {
      RRS_REQUIRE(e.resource >= 0 && e.resource < num_resources,
                  "reconfig event resource out of range");
      ColorId& at = config[static_cast<std::size_t>(e.resource)];
      c.reconfig_cost += model.reconfig_cost(at, e.color);
      at = e.color;
    }
  }

  // Drop charges: total weight minus the weight of *completed* jobs.  A
  // job completes after length(color) execution units; partial execution
  // earns nothing.
  Cost executed_weight = 0;
  std::vector<Round> units(instance.jobs().size(), 0);
  for (const ExecEvent& e : execs) {
    RRS_REQUIRE(e.job >= 0 &&
                    static_cast<std::size_t>(e.job) < instance.jobs().size(),
                "exec event job id out of range");
    ++units[static_cast<std::size_t>(e.job)];
  }
  for (const Job& job : instance.jobs()) {
    const Round got = units[static_cast<std::size_t>(job.id)];
    RRS_REQUIRE(got <= job.length, "job " << job.id
                                          << " executed past its length");
    if (got == job.length) executed_weight += job.drop_cost;
  }
  c.drops = instance.total_weight() - executed_weight;
  return c;
}

}  // namespace rrs
