#include "offline/exact_bnb.h"

#include <algorithm>
#include <functional>
#include <queue>
#include <unordered_map>
#include <utility>
#include <vector>

#include "offline/greedy_offline.h"
#include "offline/state_space.h"
#include "util/check.h"

namespace rrs {
namespace {

using offdp::Key;
using offdp::Profile;

struct KeyHash {
  std::size_t operator()(const Key& key) const {
    std::size_t h = 1469598103934665603ull;  // FNV-1a over the elements
    for (const std::int64_t v : key) {
      h ^= static_cast<std::size_t>(v);
      h *= 1099511628211ull;
    }
    return h;
  }
};

/// Search node kept in a stable arena so witnesses can backtrack.
struct Node {
  Round round = 0;  // next round to process; state after rounds [0, round)
  Cost g = 0;
  std::int32_t parent = -1;
  std::vector<ColorId> cache;
  Profile profile;
};

struct HeapEntry {
  Cost f = 0;
  Cost g = 0;
  std::int32_t idx = -1;
};

struct HeapCmp {
  bool operator()(const HeapEntry& a, const HeapEntry& b) const {
    if (a.f != b.f) return a.f > b.f;  // min-f first
    return a.g < b.g;                  // deeper (larger g) first on ties
  }
};

Key full_key(Round round, const std::vector<ColorId>& cache,
             const Profile& profile) {
  Key key = offdp::encode(cache, profile);
  key.push_back(round);
  return key;
}

Key dom_key(Round round, const std::vector<ColorId>& cache) {
  Key key;
  key.reserve(cache.size() + 1);
  for (const ColorId c : cache) key.push_back(c);
  key.push_back(round);
  return key;
}

/// True when completing from `easier` can never cost more than from
/// `harder` (same round, same configuration): per color, either equal
/// buckets with the easier front at least as far along, or untouched
/// fronts with the easier deadline multiset Hall-matchable into the harder
/// one (for every d, easier has no more jobs with deadline <= d).
bool profile_dominates(const Profile& easier, const Profile& harder) {
  for (std::size_t c = 0; c < easier.size(); ++c) {
    const offdp::ColorQueue& e = easier[c];
    const offdp::ColorQueue& n = harder[c];
    if (e.buckets.empty()) continue;
    if (e.buckets == n.buckets) {
      if (e.front_done >= n.front_done) continue;
      return false;
    }
    if (e.front_done != 0 || n.front_done != 0) return false;
    Cost count_e = 0;
    Cost count_n = 0;
    std::size_t j = 0;
    for (const auto& [deadline, count] : e.buckets) {
      while (j < n.buckets.size() && n.buckets[j].first <= deadline) {
        count_n += n.buckets[j].second;
        ++j;
      }
      count_e += count;
      if (count_e > count_n) return false;
    }
  }
  return true;
}

/// Distinct sub-multisets reachable from `cache` by free retire-to-black
/// moves (matrix tier only: when Delta is non-metric, the round a slot is
/// retired changes the price of its next recoloring, so an empty-profile
/// fast-forward must branch over the retire choices).
std::vector<std::vector<ColorId>> retire_submultisets(
    const std::vector<ColorId>& cache) {
  std::vector<std::pair<ColorId, int>> groups;
  for (const ColorId c : cache) {
    if (c == kBlack) continue;
    if (!groups.empty() && groups.back().first == c) {
      ++groups.back().second;
    } else {
      groups.emplace_back(c, 1);
    }
  }
  std::vector<std::vector<ColorId>> out;
  std::vector<ColorId> kept;
  const std::function<void(std::size_t)> rec = [&](std::size_t gi) {
    if (gi == groups.size()) {
      std::vector<ColorId> config(cache.size() - kept.size(), kBlack);
      config.insert(config.end(), kept.begin(), kept.end());
      out.push_back(std::move(config));
      return;
    }
    for (int take = groups[gi].second; take >= 0; --take) {
      kept.insert(kept.end(), static_cast<std::size_t>(take),
                  groups[gi].first);
      rec(gi + 1);
      kept.erase(kept.end() - take, kept.end());
    }
  };
  rec(0);
  return out;
}

}  // namespace

BnbResult exact_offline_bnb(const Instance& instance, int m,
                            const BnbOptions& options) {
  RRS_REQUIRE(m >= 1, "exact_offline_bnb needs m >= 1");
  RRS_REQUIRE(options.max_nodes >= 1, "exact_offline_bnb needs max_nodes >= 1");
  const Round horizon = instance.horizon();
  const CostModel& model = instance.cost_model();
  const bool matrix = model.tier() == CostModel::Tier::kMatrix;

  BnbResult result;

  // Incumbent: drop-everything is always feasible; the greedy family and
  // the caller hint tighten it.
  Cost incumbent = instance.total_weight();
  if (options.seed_greedy) {
    incumbent = std::min(incumbent, best_offline_heuristic_cost(instance, m));
  }
  if (options.incumbent_hint >= 0) {
    incumbent = std::min(incumbent, options.incumbent_hint);
  }

  LagrangianOptions lag;
  lag.iterations = std::max(1, options.lagrangian_iterations);
  lag.upper_bound_hint = incumbent;
  result.root_bound = offline_lower_bound_full(instance, m, lag);

  if (horizon == 0) {
    result.best_bound = 0;
    result.incumbent = 0;
    result.closed = true;
    result.has_witness = true;
    result.schedule.num_resources = m;
    result.schedule.speed = 1;
    return result;
  }

  const SuffixBoundOracle oracle(instance, m);
  std::vector<Node> arena;
  std::priority_queue<HeapEntry, std::vector<HeapEntry>, HeapCmp> open;
  std::unordered_map<Key, Cost, KeyHash> trans;
  std::unordered_map<Key, std::vector<std::int32_t>, KeyHash> dominators;
  constexpr std::size_t kMaxDominators = 24;

  bool has_witness = false;
  std::int32_t witness_idx = -1;

  // Records a completed path; <= keeps ties so closure always has a
  // witness once the incumbent is optimal.
  const auto offer_terminal = [&](Cost total, std::vector<ColorId> cache,
                                  std::int32_t parent) {
    if (total > incumbent) return;
    incumbent = total;
    Node node;
    node.round = horizon;
    node.g = total;
    node.parent = parent;
    node.cache = std::move(cache);
    arena.push_back(std::move(node));
    witness_idx = static_cast<std::int32_t>(arena.size()) - 1;
    has_witness = true;
  };

  const auto consider_child = [&](Round round, std::vector<ColorId> cache,
                                  Profile profile, Cost g,
                                  std::int32_t parent) {
    if (round >= horizon) {
      offer_terminal(g + offdp::total_pending_weight(profile, instance),
                     std::move(cache), parent);
      return;
    }
    const Cost f = g + oracle.bound(round, cache, profile);
    if (f > incumbent) {
      ++result.nodes_pruned_bound;
      return;
    }
    Key key = full_key(round, cache, profile);
    const auto it = trans.find(key);
    if (it != trans.end() && it->second <= g) return;
    if (it != trans.end()) {
      it->second = g;  // cheaper rediscovery: reopen
    } else {
      trans.emplace(std::move(key), g);
    }
    if (options.use_dominance) {
      const auto dit = dominators.find(dom_key(round, cache));
      if (dit != dominators.end()) {
        for (const std::int32_t di : dit->second) {
          if (arena[static_cast<std::size_t>(di)].g <= g &&
              profile_dominates(arena[static_cast<std::size_t>(di)].profile,
                                profile)) {
            ++result.nodes_pruned_dominated;
            return;
          }
        }
      }
    }
    Node node;
    node.round = round;
    node.g = g;
    node.parent = parent;
    node.cache = std::move(cache);
    node.profile = std::move(profile);
    arena.push_back(std::move(node));
    open.push({f, g, static_cast<std::int32_t>(arena.size()) - 1});
  };

  {
    Node root;
    root.cache.assign(static_cast<std::size_t>(m), kBlack);
    root.profile.resize(static_cast<std::size_t>(instance.num_colors()));
    arena.push_back(std::move(root));
    const Cost f = oracle.bound(0, arena[0].cache, arena[0].profile);
    open.push({f, 0, 0});
  }

  bool closed = false;
  bool exhausted = false;  // the node budget stopped the search
  Cost frontier_f = result.root_bound.best();  // min open f at exit
  while (!open.empty()) {
    const HeapEntry top = open.top();
    open.pop();
    // Closure: every open true cost is >= its f >= top.f.  Without a
    // witness yet, keep expanding the f == incumbent plateau so the
    // optimal path materializes a schedule.
    if (top.f > incumbent || (top.f >= incumbent && has_witness)) {
      closed = true;
      break;
    }
    const Node& peek = arena[static_cast<std::size_t>(top.idx)];
    {  // lazy stale skip: a cheaper rediscovery superseded this entry
      const Key key = full_key(peek.round, peek.cache, peek.profile);
      const auto it = trans.find(key);
      if (it != trans.end() && it->second < top.g) continue;
    }
    if (result.nodes_expanded >= options.max_nodes) {
      frontier_f = top.f;
      exhausted = true;
      break;
    }
    ++result.nodes_expanded;

    // Copy out: arena reallocates as children are appended.
    const Round round = peek.round;
    const Cost g = peek.g;
    const std::vector<ColorId> cache = peek.cache;
    Profile profile = peek.profile;

    if (options.use_dominance) {
      auto& list = dominators[dom_key(round, cache)];
      if (list.size() < kMaxDominators) list.push_back(top.idx);
    }

    bool profile_empty = true;
    for (const offdp::ColorQueue& q : profile) {
      if (!q.buckets.empty()) {
        profile_empty = false;
        break;
      }
    }
    if (profile_empty) {
      const Round next = instance.next_arrival_round(round);
      if (next < 0) {
        offer_terminal(g, cache, top.idx);
        continue;
      }
      if (next > round) {
        // Sparse fast-forward: holding the configuration is free and
        // (scalar/vector) dominant; the matrix tier must branch over the
        // free retire-to-black timings.
        if (matrix) {
          for (std::vector<ColorId>& sub : retire_submultisets(cache)) {
            consider_child(next, std::move(sub), profile, g, top.idx);
          }
        } else {
          consider_child(next, cache, profile, g, top.idx);
        }
        continue;
      }
    }

    // Phases 1+2: drop, then arrivals.
    const Cost dropped = offdp::expire(profile, round, instance);
    offdp::add_arrivals(profile, instance.arrivals_in_round(round));
    const Cost g2 = g + dropped;

    // Candidates: colors with pending jobs + currently configured ones
    // (configure-on-demand pruning, identical to the DP).
    std::vector<ColorId> candidates;
    for (ColorId c = 0; c < instance.num_colors(); ++c) {
      if (!profile[static_cast<std::size_t>(c)].buckets.empty()) {
        candidates.push_back(c);
      }
    }
    for (const ColorId c : cache) {
      if (c != kBlack &&
          std::find(candidates.begin(), candidates.end(), c) ==
              candidates.end()) {
        candidates.push_back(c);
      }
    }
    std::sort(candidates.begin(), candidates.end());

    // Phases 3+4: enumerate configurations; execution is deterministic.
    std::vector<ColorId> scratch;
    offdp::enumerate_multisets(
        candidates, m, scratch, [&](const std::vector<ColorId>& config) {
          const Cost reconf =
              offdp::reconfig_cost_between(cache, config, model);
          Profile after = profile;
          for (const ColorId c : config) {
            if (c != kBlack) offdp::execute_one(after, c, instance);
          }
          consider_child(round + 1, config, std::move(after), g2 + reconf,
                         top.idx);
        });
  }
  if (!exhausted) closed = true;  // heap drained: incumbent is optimal

  result.incumbent = incumbent;
  result.has_witness = has_witness;
  if (closed) {
    result.best_bound = incumbent;
  } else {
    result.best_bound =
        std::max(result.root_bound.best(), std::min(incumbent, frontier_f));
  }
  result.closed = result.best_bound == result.incumbent;

  if (has_witness) {
    std::vector<std::vector<ColorId>> configs(
        static_cast<std::size_t>(horizon));
    std::int32_t idx = witness_idx;
    while (idx >= 0) {
      const Node& node = arena[static_cast<std::size_t>(idx)];
      if (node.parent < 0) break;
      const Round from = arena[static_cast<std::size_t>(node.parent)].round;
      for (Round k = from; k < node.round; ++k) {
        configs[static_cast<std::size_t>(k)] = node.cache;
      }
      idx = node.parent;
    }
    result.schedule = offdp::replay_configs(instance, m, configs);
  } else {
    result.schedule.num_resources = m;
    result.schedule.speed = 1;
  }
  return result;
}

}  // namespace rrs
