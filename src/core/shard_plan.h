// Color partitioning for sharded streaming execution.
//
// Partitioning colors partitions the whole problem: a job can only run on
// a resource configured to its color, so K shards that each own a
// disjoint color set and a slice of the resource budget share no pending
// jobs, caches or costs.  A ShardPlan is that partition made explicit.
// It is a decomposition, not the paper's Distribute reduction: Distribute
// (Theorem 2) splits colors into virtual colors served by ONE dLRU-EDF
// over all n resources and never splits resources.  Under the paper's
// scalar Delta the optimum restricted to one shard's colors costs no more
// than that shard's share of OPT(m), so the shards keep Theorem 1's
// guarantee only when each slice alone carries the augmentation
// (n_s = O(m)): sharding trades augmentation for cores.
//
// Plans are pure data and deterministic: make_shard_plan is a function of
// (num_colors, num_shards, num_resources, resource_unit, replication)
// only, so a fixed seed + fixed K reproduce the identical sharded run.
// With K = 1 the plan is the identity (all colors, all resources, in
// order), which run_streaming_sharded relies on for bit-identity with
// run_streaming.
#pragma once

#include <vector>

#include "core/types.h"

namespace rrs {

/// A deterministic partition of colors (and the resource budget) into
/// shards.  Shards are indexed [0, num_shards).
struct ShardPlan {
  int num_shards = 1;
  /// Smallest resource block a shard may receive (the policy's resource
  /// granularity, e.g. 4 for dLRU-EDF); every shard's slice is a positive
  /// multiple of this.
  int resource_unit = 1;
  /// color -> owning shard.
  std::vector<int> shard_of_color;
  /// shard -> its colors, ascending global ColorIds.  A shard's stream
  /// relabels global color c to its index in this list (the identity when
  /// num_shards == 1).
  std::vector<std::vector<ColorId>> shard_colors;
  /// shard -> resources assigned (each >= resource_unit, each a multiple
  /// of resource_unit, summing to the total budget n).
  std::vector<int> shard_resources;

  [[nodiscard]] int total_resources() const;
  [[nodiscard]] ColorId num_colors() const {
    return static_cast<ColorId>(shard_of_color.size());
  }
};

/// Builds a count-balanced plan: colors are dealt in ascending order, each
/// to the shard holding the fewest (ties toward the lower index), and the
/// `num_resources` budget is split across shards proportionally to their
/// color counts in blocks of `resource_unit` (largest-remainder rounding,
/// every shard getting at least one block).
///
/// `replication` is the policy's locations per cached color (a divisor of
/// `resource_unit`).  When the whole color set fits the budget
/// (num_colors * replication <= num_resources) the plan also respects
/// cache capacity: the deal skips a shard once it holds as many colors as
/// its share of an even block split can cache, and the split first gives
/// each shard the blocks its colors need before spreading the rest by
/// count, so no shard holds more than shard_resources[s] / replication
/// colors.  0 (the default) plans by count alone, as does any shape where
/// the colors cannot all fit.  Requires 1 <= num_shards <= num_colors and
/// num_shards resource blocks.
[[nodiscard]] ShardPlan make_shard_plan(ColorId num_colors, int num_shards,
                                        int num_resources, int resource_unit,
                                        int replication = 0);

}  // namespace rrs
