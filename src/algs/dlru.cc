#include "algs/dlru.h"

namespace rrs {

void DLruPolicy::begin(const ArrivalSource& source, int num_resources,
                       int speed) {
  RankedCachePolicy::begin(source, num_resources, speed);
  in_target_.ensure_size(static_cast<std::size_t>(source.num_colors()));
}

void DLruPolicy::on_round(RoundContext& ctx) {
  if (!ingest(ctx)) return;
  CacheAssignment& cache = ctx.cache();

  // Invariant: the cache holds exactly the top min(n/2, |eligible|)
  // eligible colors by timestamp recency.
  const auto capacity = static_cast<std::size_t>(cache.max_distinct());
  const std::vector<ColorId>& target = tracker_.lru_order(capacity);

  // Evict cached colors outside the target set, then insert the rest.
  in_target_.clear();
  for (const ColorId c : target) in_target_.set(c, 1);
  evict_scratch_.clear();
  for (const ColorId c : cache.cached_colors()) {
    if (!in_target_.contains(c)) evict_scratch_.push_back(c);
  }
  for (const ColorId c : evict_scratch_) cache.erase(c);
  for (const ColorId c : target) {
    if (!cache.contains(c)) cache.insert(c);
  }
}

}  // namespace rrs
