#include "algs/dlru_edf.h"

#include <algorithm>

#include "util/check.h"

namespace rrs {

void DLruEdfPolicy::begin(const ArrivalSource& source, int num_resources,
                          int speed) {
  RRS_REQUIRE(lru_fraction_ >= 0.0 && lru_fraction_ < 1.0,
              "lru_fraction must be in [0, 1), got " << lru_fraction_);
  RRS_REQUIRE(num_resources % 4 == 0,
              "dLRU-EDF needs n divisible by 4 (n/4 LRU colors + n/4 EDF "
              "colors, each in 2 locations); got n="
                  << num_resources);
  RankedCachePolicy::begin(source, num_resources, speed);
  const auto colors = static_cast<std::size_t>(source.num_colors());
  is_lru_.ensure_size(colors);
  is_protected_.ensure_size(colors);
}

void DLruEdfPolicy::on_round(RoundContext& ctx) {
  if (!ingest(ctx)) return;
  CacheAssignment& cache = ctx.cache();
  const PendingJobs& pending = ctx.pending();
  const auto max_distinct = static_cast<std::size_t>(cache.max_distinct());
  // The paper's split is half/half; lru_fraction generalizes it, clamped
  // so the non-LRU pool is never empty (evictions need a victim).
  const auto lru_cap = std::min(
      max_distinct - 1,
      static_cast<std::size_t>(lru_fraction_ *
                               static_cast<double>(max_distinct)));
  const std::size_t edf_cap = max_distinct - lru_cap;

  // --- LRU half: the top lru_cap eligible colors by timestamp recency. ---
  // The tracker's two query buffers are distinct, so lru_target stays
  // valid across the edf_top() call below.
  const std::vector<ColorId>& lru_target = tracker_.lru_order(lru_cap);
  is_lru_.clear();
  for (const ColorId c : lru_target) is_lru_.set(c, 1);

  is_protected_.clear();
  // Evictions take the worst-EDF-ranked cached color that is neither an
  // LRU color nor protected (just inserted by the EDF half this phase).
  const auto lru_or_protected = [this](ColorId c) {
    return is_lru_.contains(c) || is_protected_.contains(c);
  };

  // Bring LRU-target colors in (eviction takes the worst non-LRU color;
  // one always exists because the LRU target holds at most half the
  // capacity).
  for (const ColorId c : lru_target) {
    if (cache.contains(c)) continue;
    if (cache.full()) evict_worst(cache, pending, lru_or_protected);
    cache.insert(c);
  }

  // --- EDF half: X = the nonidle colors among the top edf_cap EDF ranks
  // of the non-LRU colors, not cached.  Nonidle colors rank first, so X
  // is drawn from the first edf_cap nonidle non-LRU colors. ---
  const auto is_lru = [this](ColorId c) { return is_lru_.contains(c); };
  for (const ColorId color : tracker_.edf_top(edf_cap, pending, is_lru)) {
    if (cache.contains(color)) continue;
    if (cache.full()) evict_worst(cache, pending, lru_or_protected);
    cache.insert(color);
    is_protected_.set(color, 1);
  }
}

}  // namespace rrs
