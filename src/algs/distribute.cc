#include "algs/distribute.h"

#include <map>
#include <utility>

#include "algs/registry.h"
#include "util/check.h"

namespace rrs {

DistributeTransform distribute_transform(const Instance& instance) {
  RRS_REQUIRE(instance.is_batched(),
              "Distribute requires batched arrivals ([.. | D_l] input); got "
                  << instance.summary());

  DistributeTransform out;
  InstanceBuilder builder;
  builder.delta(instance.delta());
  builder.min_horizon(instance.horizon());

  // Allocate virtual colors (l, j) lazily, in first-use order.
  std::map<std::pair<ColorId, std::int64_t>, ColorId> virtual_ids;
  const auto virtual_color = [&](ColorId real, std::int64_t j) {
    const auto [it, inserted] =
        virtual_ids.try_emplace({real, j}, ColorId{0});
    if (inserted) {
      it->second = builder.add_color(instance.delay_bound(real),
                                     instance.drop_cost(real),
                                     instance.length(real));
      out.virtual_to_real.push_back(real);
    }
    return it->second;
  };

  // Jobs are stored sorted by arrival; per request, per color, rank in
  // stored (arrival) order.  Job ids are preserved because we add the jobs
  // in the same order the instance stores them.
  const auto& jobs = instance.jobs();
  std::size_t i = 0;
  std::map<ColorId, std::int64_t> rank_in_request;
  while (i < jobs.size()) {
    const Round round = jobs[i].arrival;
    rank_in_request.clear();
    for (; i < jobs.size() && jobs[i].arrival == round; ++i) {
      const Job& job = jobs[i];
      const std::int64_t rank = rank_in_request[job.color]++;
      const std::int64_t j = rank / instance.delay_bound(job.color);
      builder.add_jobs(virtual_color(job.color, j), round, 1);
    }
  }

  // Virtual colors inherit the reconfiguration prices of their real color:
  // the (l, j) copies are the same physical image, so Delta between two
  // virtual colors is Delta between their reals.  Scalar tiers need no
  // copying (the builder default already carries Delta).
  const CostModel& model = instance.cost_model();
  if (model.tier() != CostModel::Tier::kScalar) {
    const auto num_virtual = static_cast<ColorId>(out.virtual_to_real.size());
    for (ColorId v = 0; v < num_virtual; ++v) {
      builder.reconfig_cost(
          v, model.cold_cost(out.virtual_to_real[static_cast<std::size_t>(v)]));
    }
    if (model.tier() == CostModel::Tier::kMatrix) {
      for (ColorId v1 = 0; v1 < num_virtual; ++v1) {
        for (ColorId v2 = 0; v2 < num_virtual; ++v2) {
          if (v1 == v2) continue;
          builder.transition_cost(
              v1, v2,
              model.reconfig_cost(
                  out.virtual_to_real[static_cast<std::size_t>(v1)],
                  out.virtual_to_real[static_cast<std::size_t>(v2)]));
        }
      }
    }
  }

  out.rate_limited = builder.build();
  RRS_CHECK_MSG(out.rate_limited.is_rate_limited(),
                "Distribute output is not rate-limited");
  RRS_CHECK(out.rate_limited.jobs().size() == jobs.size());
  // Verify the job-id correspondence the mapping step relies on.
  for (std::size_t q = 0; q < jobs.size(); ++q) {
    const Job& v = out.rate_limited.jobs()[q];
    RRS_CHECK(v.arrival == jobs[q].arrival &&
              out.virtual_to_real[static_cast<std::size_t>(v.color)] ==
                  jobs[q].color);
  }
  return out;
}

Schedule distribute_map_back(const DistributeTransform& transform,
                             const Schedule& virtual_schedule) {
  Schedule mapped;
  mapped.num_resources = virtual_schedule.num_resources;
  mapped.speed = virtual_schedule.speed;
  mapped.execs = virtual_schedule.execs;  // job ids are shared

  // Recolor reconfigurations; drop the ones that keep the real color.
  std::vector<ColorId> real_config(
      static_cast<std::size_t>(virtual_schedule.num_resources), kBlack);
  mapped.reconfigs.reserve(virtual_schedule.reconfigs.size());
  for (const ReconfigEvent& e : virtual_schedule.reconfigs) {
    const ColorId real =
        e.color == kBlack
            ? kBlack
            : transform.virtual_to_real[static_cast<std::size_t>(e.color)];
    auto& current = real_config[static_cast<std::size_t>(e.resource)];
    if (current == real) continue;
    current = real;
    ReconfigEvent mapped_event = e;
    mapped_event.color = real;
    mapped.reconfigs.push_back(mapped_event);
  }
  return mapped;
}

DistributeResult run_distribute(const Instance& instance, int n) {
  DistributeResult result;
  DistributeTransform transform = distribute_transform(instance);

  EngineOptions options;
  const auto policy = make_stream_policy("dlru-edf", options);
  options.num_resources = n;
  options.record_schedule = true;
  result.virtual_run = run_policy(transform.rate_limited, *policy, options);

  result.schedule =
      distribute_map_back(transform, result.virtual_run.schedule);
  result.cost = result.schedule.cost(instance);
  return result;
}

}  // namespace rrs
