#include "algs/edf.h"

#include <algorithm>

#include "util/check.h"

namespace rrs {

void EdfPolicy::begin(const ArrivalSource& source, int num_resources,
                      int speed) {
  RankedCachePolicy::begin(source, num_resources, speed);
  rank_pos_.ensure_size(static_cast<std::size_t>(source.num_colors()));
}

void EdfPolicy::on_round(RoundContext& ctx) {
  if (!ingest(ctx)) return;
  CacheAssignment& cache = ctx.cache();
  const PendingJobs& pending = ctx.pending();

  const std::vector<ColorId>& ranked = tracker_.edf_order(pending);

  rank_pos_.clear();
  for (std::size_t i = 0; i < ranked.size(); ++i) {
    rank_pos_.set(ranked[i], static_cast<std::int32_t>(i));
  }

  // Cache every nonidle color among the top max_distinct() ranks; when
  // full, evict the cached color with the worst rank.  Cached colors are
  // always eligible (a color only becomes ineligible while uncached), so
  // every cached color has a rank.
  const auto top = std::min(ranked.size(),
                            static_cast<std::size_t>(cache.max_distinct()));
  for (std::size_t i = 0; i < top; ++i) {
    const ColorId color = ranked[i];
    if (pending.idle(color) || cache.contains(color)) continue;
    if (cache.full()) {
      ColorId victim = kBlack;
      std::int32_t worst = -1;
      for (const ColorId c : cache.cached_colors()) {
        RRS_CHECK_MSG(rank_pos_.contains(c),
                      "cached color " << c << " missing from EDF ranking");
        const std::int32_t pos = rank_pos_.at(c);
        if (pos > worst) {
          worst = pos;
          victim = c;
        }
      }
      RRS_CHECK_MSG(worst > static_cast<std::int32_t>(i),
                    "EDF would evict a better-ranked color than it inserts");
      cache.erase(victim);
    }
    cache.insert(color);
  }
}

}  // namespace rrs
