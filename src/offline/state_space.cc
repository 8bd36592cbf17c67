#include "offline/state_space.h"

#include <algorithm>
#include <limits>

#include "core/pending.h"
#include "util/check.h"

namespace rrs::offdp {
namespace {

/// Per-slot recoloring price: keeping a slot's color (or retiring it to
/// black) is free; everything else pays Delta(from -> to).
Cost slot_cost(const CostModel& model, ColorId from, ColorId to) {
  if (from == to || to == kBlack) return 0;
  return model.reconfig_cost(from, to);
}

/// Bitmask-DP exact bijection for m <= 8 (see matrix_assignment).
Cost bitmask_assignment(const std::vector<ColorId>& sources,
                        const std::vector<ColorId>& targets,
                        const CostModel& model, std::vector<int>* out_assign) {
  const int m = static_cast<int>(sources.size());
  const std::size_t full = std::size_t{1} << m;
  // best[t * full + mask]: min cost of matching targets [t, m) given that
  // `mask` source slots are already taken.  Filled backwards.
  std::vector<Cost> best((static_cast<std::size_t>(m) + 1) * full, 0);
  for (int t = m - 1; t >= 0; --t) {
    for (std::size_t mask = 0; mask < full; ++mask) {
      Cost cell = -1;
      for (int s = 0; s < m; ++s) {
        if ((mask >> s) & 1u) continue;
        const Cost cand =
            slot_cost(model, sources[static_cast<std::size_t>(s)],
                      targets[static_cast<std::size_t>(t)]) +
            best[(static_cast<std::size_t>(t) + 1) * full |
                 (mask | (std::size_t{1} << s))];
        if (cell < 0 || cand < cell) cell = cand;
      }
      best[static_cast<std::size_t>(t) * full + mask] = cell;
    }
  }
  if (out_assign != nullptr) {
    out_assign->assign(static_cast<std::size_t>(m), -1);
    std::size_t mask = 0;
    for (int t = 0; t < m; ++t) {
      const Cost want = best[static_cast<std::size_t>(t) * full + mask];
      for (int s = 0; s < m; ++s) {
        if ((mask >> s) & 1u) continue;
        const Cost cand =
            slot_cost(model, sources[static_cast<std::size_t>(s)],
                      targets[static_cast<std::size_t>(t)]) +
            best[(static_cast<std::size_t>(t) + 1) * full |
                 (mask | (std::size_t{1} << s))];
        if (cand == want) {
          (*out_assign)[static_cast<std::size_t>(t)] = s;
          mask |= std::size_t{1} << s;
          break;
        }
      }
    }
  }
  return best[0];
}

/// Hungarian algorithm (potentials formulation) for m > 8: rows are
/// targets, columns are sources, cost[t][s] = slot_cost(source -> target).
Cost hungarian_assignment(const std::vector<ColorId>& sources,
                          const std::vector<ColorId>& targets,
                          const CostModel& model,
                          std::vector<int>* out_assign) {
  const int m = static_cast<int>(sources.size());
  const std::size_t n = static_cast<std::size_t>(m);
  std::vector<Cost> cost(n * n, 0);
  for (std::size_t t = 0; t < n; ++t) {
    for (std::size_t s = 0; s < n; ++s) {
      cost[t * n + s] = slot_cost(model, sources[s], targets[t]);
    }
  }
  const Cost kInf = std::numeric_limits<Cost>::max() / 4;
  std::vector<Cost> u(n + 1, 0);
  std::vector<Cost> v(n + 1, 0);
  std::vector<int> match(n + 1, 0);  // match[col] = row (1-based; 0 = free)
  std::vector<int> way(n + 1, 0);
  for (int row = 1; row <= m; ++row) {
    match[0] = row;
    int j0 = 0;
    std::vector<Cost> minv(n + 1, kInf);
    std::vector<char> used(n + 1, 0);
    do {
      used[static_cast<std::size_t>(j0)] = 1;
      const int i0 = match[static_cast<std::size_t>(j0)];
      int j1 = -1;
      Cost delta = kInf;
      for (int j = 1; j <= m; ++j) {
        if (used[static_cast<std::size_t>(j)]) continue;
        const Cost cur =
            cost[static_cast<std::size_t>(i0 - 1) * n +
                 static_cast<std::size_t>(j - 1)] -
            u[static_cast<std::size_t>(i0)] - v[static_cast<std::size_t>(j)];
        if (cur < minv[static_cast<std::size_t>(j)]) {
          minv[static_cast<std::size_t>(j)] = cur;
          way[static_cast<std::size_t>(j)] = j0;
        }
        if (minv[static_cast<std::size_t>(j)] < delta) {
          delta = minv[static_cast<std::size_t>(j)];
          j1 = j;
        }
      }
      for (int j = 0; j <= m; ++j) {
        if (used[static_cast<std::size_t>(j)]) {
          u[static_cast<std::size_t>(match[static_cast<std::size_t>(j)])] +=
              delta;
          v[static_cast<std::size_t>(j)] -= delta;
        } else {
          minv[static_cast<std::size_t>(j)] -= delta;
        }
      }
      j0 = j1;
    } while (match[static_cast<std::size_t>(j0)] != 0);
    do {
      const int j1 = way[static_cast<std::size_t>(j0)];
      match[static_cast<std::size_t>(j0)] =
          match[static_cast<std::size_t>(j1)];
      j0 = j1;
    } while (j0 != 0);
  }
  Cost total = 0;
  if (out_assign != nullptr) out_assign->assign(n, -1);
  for (int j = 1; j <= m; ++j) {
    const int t = match[static_cast<std::size_t>(j)];
    RRS_CHECK(t >= 1);
    total += cost[static_cast<std::size_t>(t - 1) * n +
                  static_cast<std::size_t>(j - 1)];
    if (out_assign != nullptr) {
      (*out_assign)[static_cast<std::size_t>(t - 1)] = j - 1;
    }
  }
  return total;
}

}  // namespace

Key encode(const std::vector<ColorId>& cache, const Profile& profile) {
  Key key;
  key.reserve(cache.size() + 8);
  for (const ColorId c : cache) key.push_back(c);
  key.push_back(-7);  // separator
  for (std::size_t c = 0; c < profile.size(); ++c) {
    if (profile[c].buckets.empty()) continue;
    key.push_back(static_cast<std::int64_t>(c));
    key.push_back(profile[c].front_done);
    for (const auto& [deadline, count] : profile[c].buckets) {
      key.push_back(-deadline - 2);  // negative marks deadline entries
      key.push_back(count);
    }
  }
  return key;
}

Cost expire(Profile& profile, Round round, const Instance& instance) {
  Cost dropped = 0;
  for (std::size_t color = 0; color < profile.size(); ++color) {
    auto& q = profile[color];
    // Buckets ascend by deadline, so expiry removes a prefix; if the
    // earliest job goes, its partial execution is forfeited.
    std::size_t gone = 0;
    while (gone < q.buckets.size() && q.buckets[gone].first <= round) {
      dropped += q.buckets[gone].second *
                 instance.drop_cost(static_cast<ColorId>(color));
      ++gone;
    }
    if (gone > 0) {
      q.buckets.erase(q.buckets.begin(),
                      q.buckets.begin() + static_cast<std::ptrdiff_t>(gone));
      q.front_done = 0;
    }
  }
  return dropped;
}

void add_arrivals(Profile& profile, std::span<const Job> arrivals) {
  for (const Job& job : arrivals) {
    auto& buckets = profile[static_cast<std::size_t>(job.color)].buckets;
    if (!buckets.empty() && buckets.back().first == job.deadline()) {
      ++buckets.back().second;
    } else {
      buckets.emplace_back(job.deadline(), 1);
    }
  }
}

bool execute_one(Profile& profile, ColorId color, const Instance& instance) {
  ColorQueue& q = profile[static_cast<std::size_t>(color)];
  if (q.buckets.empty()) return false;
  if (++q.front_done >= instance.length(color)) {
    q.front_done = 0;
    if (--q.buckets.front().second == 0) {
      q.buckets.erase(q.buckets.begin());
    }
  }
  return true;
}

Cost total_pending_weight(const Profile& profile, const Instance& instance) {
  Cost total = 0;
  for (std::size_t color = 0; color < profile.size(); ++color) {
    for (const auto& [deadline, count] : profile[color].buckets) {
      (void)deadline;
      total += count * instance.drop_cost(static_cast<ColorId>(color));
    }
  }
  return total;
}

void enumerate_multisets(
    const std::vector<ColorId>& candidates, int m,
    std::vector<ColorId>& scratch,
    const std::function<void(const std::vector<ColorId>&)>& visit,
    std::size_t from) {
  if (static_cast<int>(scratch.size()) == m) {
    visit(scratch);
    return;
  }
  // kBlack (skip slot) allowed only as a prefix to keep multisets sorted.
  if (scratch.empty() || scratch.back() == kBlack) {
    scratch.push_back(kBlack);
    enumerate_multisets(candidates, m, scratch, visit, from);
    scratch.pop_back();
  }
  for (std::size_t i = from; i < candidates.size(); ++i) {
    scratch.push_back(candidates[i]);
    enumerate_multisets(candidates, m, scratch, visit, i);
    scratch.pop_back();
  }
}

Cost matrix_assignment(const std::vector<ColorId>& sources,
                       const std::vector<ColorId>& targets,
                       const CostModel& model, std::vector<int>* out_assign) {
  RRS_CHECK(sources.size() == targets.size());
  if (sources.size() <= 8) {
    return bitmask_assignment(sources, targets, model, out_assign);
  }
  return hungarian_assignment(sources, targets, model, out_assign);
}

Cost reconfig_cost_between(const std::vector<ColorId>& a,
                           const std::vector<ColorId>& b,
                           const CostModel& model) {
  if (model.tier() == CostModel::Tier::kMatrix) {
    return matrix_assignment(a, b, model);
  }
  Cost total = 0;
  std::vector<ColorId> remaining = a;
  for (const ColorId color : b) {
    if (color == kBlack) continue;
    const auto it = std::find(remaining.begin(), remaining.end(), color);
    if (it != remaining.end()) {
      remaining.erase(it);
    } else {
      total += model.reconfig_cost(kBlack, color);  // cold price / Delta
    }
  }
  return total;
}

Schedule replay_configs(const Instance& instance, int m,
                        const std::vector<std::vector<ColorId>>& configs) {
  RRS_CHECK(static_cast<Round>(configs.size()) == instance.horizon());
  Schedule schedule;
  schedule.num_resources = m;
  schedule.speed = 1;

  // Replay forward, assigning multiset slots to concrete resources.  Under
  // the scalar/vector tiers colors keep their resource while still
  // configured and freed slots emit no event (the per-target pricing never
  // reads the previous occupant).  Under the matrix tier the per-round
  // min-cost bijection is re-solved so the emitted events charge exactly
  // the solver's transition price, and freed slots emit explicit to-black
  // events (cost 0) so the validator's from-color replay matches the
  // logical configuration.
  const CostModel& model = instance.cost_model();
  const bool matrix = model.tier() == CostModel::Tier::kMatrix;
  std::vector<ColorId> resource_color(static_cast<std::size_t>(m), kBlack);
  PendingJobs pending;
  pending.reset(instance.num_colors());
  PendingJobs::DropResult expired;  // reused sweep buffer
  std::vector<int> assign;          // matrix tier: target -> source slot
  for (Round k = 0; k < instance.horizon(); ++k) {
    pending.drop_expired(k, expired);
    pending.add(instance.arrivals_in_round(k));

    std::vector<ColorId> want = configs[static_cast<std::size_t>(k)];
    RRS_CHECK(static_cast<int>(want.size()) == m);
    if (matrix) {
      matrix_assignment(resource_color, want, model, &assign);
      for (std::size_t t = 0; t < want.size(); ++t) {
        const auto r = static_cast<std::size_t>(assign[t]);
        if (resource_color[r] == want[t]) continue;
        resource_color[r] = want[t];
        schedule.reconfigs.push_back(
            {k, 0, static_cast<std::int32_t>(r), want[t]});
      }
    } else {
      // Match the target multiset against current resource colors.
      std::vector<char> keep(static_cast<std::size_t>(m), 0);
      for (std::size_t r = 0; r < static_cast<std::size_t>(m); ++r) {
        const auto it = std::find(want.begin(), want.end(), resource_color[r]);
        if (it != want.end() && resource_color[r] != kBlack) {
          keep[r] = 1;
          want.erase(it);
        }
      }
      // Remaining wanted colors (non-black) take the unkept resources.
      std::size_t next_resource = 0;
      for (const ColorId color : want) {
        if (color == kBlack) continue;
        while (keep[next_resource]) ++next_resource;
        resource_color[next_resource] = color;
        keep[next_resource] = 1;
        schedule.reconfigs.push_back(
            {k, 0, static_cast<std::int32_t>(next_resource), color});
      }
      // Unkept resources logically hold black this round (the solver
      // charged no execution for them); physically we leave them as-is,
      // executing nothing, which the model permits ("up to one job") and
      // the per-target pricing never notices.
      for (std::size_t r = 0; r < static_cast<std::size_t>(m); ++r) {
        if (!keep[r]) resource_color[r] = kBlack;
      }
    }

    // Execution: one unit to the earliest-deadline job per configured
    // resource (EDF-within-color, mirroring the solvers' execute_one).
    for (std::size_t r = 0; r < static_cast<std::size_t>(m); ++r) {
      const ColorId color = resource_color[r];
      if (color == kBlack || pending.idle(color)) continue;
      const PendingJobs::ExecResult exec = pending.execute_earliest(color);
      schedule.execs.push_back({k, 0, static_cast<std::int32_t>(r), exec.id});
    }
  }
  return schedule;
}

}  // namespace rrs::offdp
