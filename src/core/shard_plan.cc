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
                          int replication) {
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
  const auto held = [&plan](int s) {
    return static_cast<int>(plan.shard_colors[static_cast<std::size_t>(s)]
                                .size());
  };

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
  // Deal colors in ascending order, each to the shard with room that holds
  // the fewest (ties toward the lower index), so the assignment is a pure
  // function of the inputs and every shard's list comes out ascending.
  for (ColorId color = 0; color < num_colors; ++color) {
    int fewest = -1;
    for (int s = 0; s < num_shards; ++s) {
      if (room[static_cast<std::size_t>(s)] == 0) continue;
      if (fewest < 0 || held(s) < held(fewest)) fewest = s;
    }
    plan.shard_of_color[static_cast<std::size_t>(color)] = fewest;
    plan.shard_colors[static_cast<std::size_t>(fewest)].push_back(color);
    --room[static_cast<std::size_t>(fewest)];
  }

  // Resource split: each shard first gets the blocks its colors need (one
  // block when capacity does not apply; the engine needs >= 1), then the
  // rest proportional to its color count with largest-remainder rounding
  // (ties toward the lower shard index).
  plan.shard_resources.assign(static_cast<std::size_t>(num_shards), 0);
  int spare = units;
  for (int s = 0; s < num_shards; ++s) {
    const int blocks =
        all_fit ? (held(s) * replication + resource_unit - 1) / resource_unit
                : 1;
    plan.shard_resources[static_cast<std::size_t>(s)] = blocks * resource_unit;
    spare -= blocks;
  }
  if (spare > 0) {
    std::vector<double> ideal(static_cast<std::size_t>(num_shards), 0.0);
    std::vector<int> extra(static_cast<std::size_t>(num_shards), 0);
    int given = 0;
    for (int s = 0; s < num_shards; ++s) {
      const auto i = static_cast<std::size_t>(s);
      ideal[i] = static_cast<double>(spare) * static_cast<double>(held(s)) /
                 static_cast<double>(num_colors);
      extra[i] = static_cast<int>(ideal[i]);
      given += extra[i];
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

}  // namespace rrs
