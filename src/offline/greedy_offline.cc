#include "offline/greedy_offline.h"

#include <algorithm>

#include "util/check.h"

namespace rrs {

void DemandGreedyPolicy::begin(const ArrivalSource& source, int num_resources,
                               int speed) {
  (void)num_resources;
  (void)speed;
  threshold_ = params_.switch_threshold;  // 0 = per-candidate cold cost
  const CostModel& model = source.cost_model();
  cold_costs_.resize(static_cast<std::size_t>(source.num_colors()));
  drop_costs_.resize(static_cast<std::size_t>(source.num_colors()));
  for (ColorId c = 0; c < source.num_colors(); ++c) {
    cold_costs_[static_cast<std::size_t>(c)] = model.cold_cost(c);
    drop_costs_[static_cast<std::size_t>(c)] = source.drop_cost(c);
  }
  skip_color_.assign(static_cast<std::size_t>(source.num_colors()), 0);
  if (params_.skip_small_colors) {
    // Needs whole-sequence knowledge (per-color total weight), so this
    // variant only runs on materialized inputs.
    const Instance* instance = source.materialized();
    RRS_REQUIRE(instance != nullptr,
                "demand-greedy with skip_small_colors needs a materialized "
                "instance, got streaming source: " << source.summary());
    for (ColorId c = 0; c < source.num_colors(); ++c) {
      // Cheaper to drop than to image: total droppable weight below the
      // color's own cold re-image price (< Delta jobs in the unit model).
      if (instance->weight_of_color(c) <
          cold_costs_[static_cast<std::size_t>(c)]) {
        skip_color_[static_cast<std::size_t>(c)] = 1;
      }
    }
  }
}

void DemandGreedyPolicy::on_round(RoundContext& ctx) {
  if (ctx.final_sweep()) return;
  CacheAssignment& cache = ctx.cache();
  const PendingJobs& pending = ctx.pending();

  // Candidate colors: nonidle, not skipped; ranked by backlog descending,
  // then earliest front deadline, then color id.
  scratch_.clear();
  const auto colors = static_cast<ColorId>(drop_costs_.size());
  for (ColorId c = 0; c < colors; ++c) {
    if (skip_color_[static_cast<std::size_t>(c)]) continue;
    if (!pending.idle(c)) scratch_.push_back(c);
  }
  // Backlogs are compared by droppable VALUE (count x per-job drop cost),
  // which reduces to plain counts in the unit-cost setting.
  const auto backlog = [&](ColorId c) {
    return pending.count(c) * drop_costs_[static_cast<std::size_t>(c)];
  };
  std::sort(scratch_.begin(), scratch_.end(), [&](ColorId a, ColorId b) {
    const Cost ca = backlog(a);
    const Cost cb = backlog(b);
    if (ca != cb) return ca > cb;
    const Round da = pending.earliest_deadline(a);
    const Round db = pending.earliest_deadline(b);
    if (da != db) return da < db;
    return a < b;
  });
  if (scratch_.size() > static_cast<std::size_t>(cache.max_distinct())) {
    scratch_.resize(static_cast<std::size_t>(cache.max_distinct()));
  }

  for (const ColorId want : scratch_) {
    if (cache.contains(want)) continue;
    if (!cache.full()) {
      cache.insert(want);
      continue;
    }
    // Hysteresis: replace the weakest incumbent only if `want` beats it by
    // the threshold (idle incumbents are always replaceable).
    ColorId weakest = kBlack;
    Cost weakest_backlog = -1;
    for (const ColorId c : cache.cached_colors()) {
      const Cost value = backlog(c);
      if (weakest == kBlack || value < weakest_backlog ||
          (value == weakest_backlog && c > weakest)) {
        weakest = c;
        weakest_backlog = value;
      }
    }
    const bool idle_takeover =
        weakest_backlog == 0 && params_.replace_idle_freely;
    // The default hysteresis is what the switch would actually cost: the
    // candidate's cold re-image price (Delta under the scalar model).
    const Cost threshold =
        threshold_ > 0 ? threshold_
                       : cold_costs_[static_cast<std::size_t>(want)];
    if (weakest != kBlack &&
        (idle_takeover || backlog(want) >= weakest_backlog + threshold)) {
      cache.erase(weakest);
      cache.insert(want);
    }
  }
}

EngineResult run_demand_greedy(const Instance& instance, int m,
                               DemandGreedyParams params) {
  DemandGreedyPolicy policy(params);
  EngineOptions options;
  options.num_resources = m;
  options.speed = 1;
  options.replication = 1;
  options.record_schedule = false;
  return run_policy(instance, policy, options);
}

Cost best_offline_heuristic_cost(const Instance& instance, int m) {
  Cost best = -1;
  for (const bool skip_small : {false, true}) {
    for (const bool idle_freely : {false, true}) {
      for (const Cost threshold :
           {instance.delta() / 2, instance.delta(), instance.delta() * 2}) {
        DemandGreedyParams params;
        params.switch_threshold = std::max<Cost>(1, threshold);
        params.skip_small_colors = skip_small;
        params.replace_idle_freely = idle_freely;
        const Cost cost =
            run_demand_greedy(instance, m, params).cost.total();
        if (best < 0 || cost < best) best = cost;
      }
    }
  }
  return best;
}

}  // namespace rrs
