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
  rank_pos_.ensure_size(colors);
}

void DLruEdfPolicy::evict_worst_non_lru(CacheAssignment& cache) {
  ColorId victim = kBlack;
  std::int32_t worst = -1;
  for (const ColorId c : cache.cached_colors()) {
    if (is_lru_.contains(c) || is_protected_.contains(c)) continue;
    // Every cached non-LRU color is eligible and therefore ranked.
    RRS_CHECK_MSG(rank_pos_.contains(c),
                  "cached non-LRU color " << c << " missing from ranking");
    const std::int32_t pos = rank_pos_.at(c);
    if (pos > worst) {
      worst = pos;
      victim = c;
    }
  }
  RRS_CHECK_MSG(victim != kBlack, "no evictable non-LRU color");
  cache.erase(victim);
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
  // valid across the edf_order() call below.
  const std::vector<ColorId>& lru_target = tracker_.lru_order(lru_cap);
  is_lru_.clear();
  for (const ColorId c : lru_target) is_lru_.set(c, 1);

  // --- EDF half: rank the eligible non-LRU colors.  Filtering the full
  // EDF order (a strict total order) preserves the exact relative ranks
  // of the surviving colors. ---
  edf_ranked_.clear();
  for (const ColorId c : tracker_.edf_order(pending)) {
    if (!is_lru_.contains(c)) edf_ranked_.push_back(c);
  }
  rank_pos_.clear();
  for (std::size_t i = 0; i < edf_ranked_.size(); ++i) {
    rank_pos_.set(edf_ranked_[i], static_cast<std::int32_t>(i));
  }

  is_protected_.clear();

  // Bring LRU-target colors in (eviction takes the worst non-LRU color;
  // one always exists because the LRU target holds at most half the
  // capacity).
  for (const ColorId c : lru_target) {
    if (cache.contains(c)) continue;
    if (cache.full()) evict_worst_non_lru(cache);
    cache.insert(c);
  }

  // X = nonidle non-LRU colors in the top edf_cap EDF ranks not cached.
  const auto top = std::min(edf_ranked_.size(), edf_cap);
  for (std::size_t i = 0; i < top; ++i) {
    const ColorId color = edf_ranked_[i];
    if (pending.idle(color) || cache.contains(color)) continue;
    if (cache.full()) evict_worst_non_lru(cache);
    cache.insert(color);
    is_protected_.set(color, 1);
  }
}

}  // namespace rrs
