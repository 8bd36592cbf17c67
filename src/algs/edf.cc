#include "algs/edf.h"

#include "util/check.h"

namespace rrs {

void EdfPolicy::on_round(RoundContext& ctx) {
  if (!ingest(ctx)) return;
  CacheAssignment& cache = ctx.cache();
  const PendingJobs& pending = ctx.pending();

  // Cache every nonidle color among the top max_distinct() ranks; when
  // full, evict the cached color with the worst rank.  Nonidle colors rank
  // before idle ones, so those ranks' nonidle members are the first
  // max_distinct() nonidle colors.
  const auto none = [](ColorId) { return false; };
  const auto top = static_cast<std::size_t>(cache.max_distinct());
  for (const ColorId color : tracker_.edf_top(top, pending, none)) {
    if (cache.contains(color)) continue;
    if (cache.full()) {
      const ColorId victim = evict_worst(cache, pending, none);
      RRS_CHECK_MSG(tracker_.edf_before(color, victim, pending),
                    "EDF would evict a better-ranked color than it inserts");
    }
    cache.insert(color);
  }
}

}  // namespace rrs
