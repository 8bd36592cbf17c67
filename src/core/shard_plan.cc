#include "core/shard_plan.h"

#include <algorithm>
#include <cstdint>
#include <numeric>

#include "util/check.h"

namespace rrs {

int ShardPlan::total_resources() const {
  return std::accumulate(shard_resources.begin(), shard_resources.end(), 0);
}

ShardPlan make_shard_plan(ColorId num_colors, int num_shards,
                          int num_resources, int resource_unit,
                          std::span<const double> weights, int replication) {
  RRS_REQUIRE(num_colors >= 1, "a plan needs at least one color, got "
                                   << num_colors);
  RRS_REQUIRE(num_shards >= 1, "num_shards must be >= 1, got " << num_shards);
  RRS_REQUIRE(num_shards <= num_colors,
              "cannot spread " << num_colors << " colors over " << num_shards
                               << " shards: shards would be empty");
  RRS_REQUIRE(resource_unit >= 1, "resource_unit must be >= 1, got "
                                      << resource_unit);
  RRS_REQUIRE(num_resources % resource_unit == 0,
              "num_resources (" << num_resources
                                << ") must be divisible by the policy's "
                                << "resource granularity (" << resource_unit
                                << ")");
  const int units = num_resources / resource_unit;
  RRS_REQUIRE(units >= num_shards,
              "resource budget " << num_resources << " holds only " << units
                                 << " blocks of " << resource_unit
                                 << " — fewer than " << num_shards
                                 << " shards");
  RRS_REQUIRE(weights.empty() ||
                  static_cast<ColorId>(weights.size()) == num_colors,
              "weights size " << weights.size() << " != num_colors "
                              << num_colors);
  for (const double w : weights) {
    RRS_REQUIRE(w > 0.0, "per-color weights must be positive, got " << w);
  }
  RRS_REQUIRE(replication >= 0 &&
                  (replication == 0 || resource_unit % replication == 0),
              "replication " << replication << " must be 0 or divide the "
                             << "resource unit " << resource_unit);
  // Capacity applies only when every color fits.
  const std::int64_t demand = std::int64_t{num_colors} * replication;
  const bool all_fit = replication > 0 && demand <= num_resources;

  ShardPlan plan;
  plan.num_shards = num_shards;
  plan.resource_unit = resource_unit;
  plan.shard_of_color.assign(static_cast<std::size_t>(num_colors), 0);
  plan.shard_colors.resize(static_cast<std::size_t>(num_shards));

  // Longest-processing-time greedy: heaviest color first onto the
  // least-loaded shard.  All ties break toward the lower index, so the
  // assignment is a pure function of the inputs.
  std::vector<ColorId> order(static_cast<std::size_t>(num_colors));
  std::iota(order.begin(), order.end(), 0);
  const auto weight_of = [&weights](ColorId c) {
    return weights.empty() ? 1.0 : weights[static_cast<std::size_t>(c)];
  };
  std::stable_sort(order.begin(), order.end(),
                   [&weight_of](ColorId a, ColorId b) {
                     return weight_of(a) > weight_of(b);
                   });

  std::vector<double> load(static_cast<std::size_t>(num_shards), 0.0);
  // Colors each shard may still take: unbounded unless every color fits,
  // then what its share of an even block split caches.  Those shares sum
  // to num_resources / replication >= num_colors, so some shard always
  // has room.
  std::vector<int> room(static_cast<std::size_t>(num_shards), num_colors);
  if (all_fit) {
    for (int s = 0; s < num_shards; ++s) {
      const int blocks = units / num_shards + (s < units % num_shards ? 1 : 0);
      room[static_cast<std::size_t>(s)] = blocks * resource_unit / replication;
    }
  }
  for (const ColorId color : order) {
    int lightest = -1;
    for (int s = 0; s < num_shards; ++s) {
      const auto i = static_cast<std::size_t>(s);
      if (room[i] == 0) continue;
      if (lightest < 0 || load[i] < load[static_cast<std::size_t>(lightest)]) {
        lightest = s;
      }
    }
    plan.shard_of_color[static_cast<std::size_t>(color)] = lightest;
    load[static_cast<std::size_t>(lightest)] += weight_of(color);
    --room[static_cast<std::size_t>(lightest)];
  }
  for (ColorId c = 0; c < num_colors; ++c) {
    const int s = plan.shard_of_color[static_cast<std::size_t>(c)];
    plan.shard_colors[static_cast<std::size_t>(s)].push_back(c);
  }

  // Resource split: each shard first gets the blocks its colors need (one
  // block when capacity does not apply; the engine needs >= 1), then the
  // rest proportional to shard load with largest-remainder rounding (ties
  // toward the lower shard index).
  plan.shard_resources.assign(static_cast<std::size_t>(num_shards), 0);
  int spare = units;
  for (std::size_t s = 0; s < plan.shard_resources.size(); ++s) {
    const auto held = static_cast<int>(plan.shard_colors[s].size());
    const int blocks =
        all_fit ? (held * replication + resource_unit - 1) / resource_unit : 1;
    plan.shard_resources[s] = blocks * resource_unit;
    spare -= blocks;
  }
  const double total_load = std::accumulate(load.begin(), load.end(), 0.0);
  if (spare > 0 && total_load > 0.0) {
    std::vector<double> ideal(static_cast<std::size_t>(num_shards), 0.0);
    std::vector<int> extra(static_cast<std::size_t>(num_shards), 0);
    int given = 0;
    for (int s = 0; s < num_shards; ++s) {
      ideal[static_cast<std::size_t>(s)] =
          static_cast<double>(spare) * load[static_cast<std::size_t>(s)] /
          total_load;
      extra[static_cast<std::size_t>(s)] =
          static_cast<int>(ideal[static_cast<std::size_t>(s)]);
      given += extra[static_cast<std::size_t>(s)];
    }
    std::vector<int> by_remainder(static_cast<std::size_t>(num_shards));
    std::iota(by_remainder.begin(), by_remainder.end(), 0);
    std::stable_sort(by_remainder.begin(), by_remainder.end(),
                     [&ideal, &extra](int a, int b) {
                       const double ra = ideal[static_cast<std::size_t>(a)] -
                                         extra[static_cast<std::size_t>(a)];
                       const double rb = ideal[static_cast<std::size_t>(b)] -
                                         extra[static_cast<std::size_t>(b)];
                       return ra > rb;
                     });
    for (int i = 0; given < spare; ++i) {
      ++extra[static_cast<std::size_t>(
          by_remainder[static_cast<std::size_t>(i % num_shards)])];
      ++given;
    }
    for (int s = 0; s < num_shards; ++s) {
      plan.shard_resources[static_cast<std::size_t>(s)] +=
          extra[static_cast<std::size_t>(s)] * resource_unit;
    }
  }
  RRS_CHECK(plan.total_resources() == num_resources);
  return plan;
}

std::vector<double> observe_color_weights(ArrivalSource& probe,
                                          Round sample_rounds) {
  RRS_REQUIRE(sample_rounds >= 1, "need at least one sample round, got "
                                      << sample_rounds);
  Round end = sample_rounds;
  if (probe.finite()) end = std::min(end, probe.horizon());
  std::vector<double> weights(static_cast<std::size_t>(probe.num_colors()),
                              1.0);
  for (Round k = 0; k < end; ++k) {
    for (const Job& job : probe.arrivals_in_round(k)) {
      weights[static_cast<std::size_t>(job.color)] += 1.0;
    }
  }
  return weights;
}

}  // namespace rrs
