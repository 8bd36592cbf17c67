#include "algs/ranked_cache.h"

#include "core/checkpoint.h"

namespace rrs {

void RankedCachePolicy::begin(const ArrivalSource& source, int num_resources,
                              int speed) {
  (void)num_resources;
  (void)speed;
  tracker_.begin(source);
  cache_ = nullptr;
}

bool RankedCachePolicy::ingest(RoundContext& ctx) {
  if (ctx.final_sweep()) return false;
  cache_ = &ctx.cache();
  if (ctx.first_mini()) {
    tracker_.drop_phase(ctx.round(), ctx.cache());
    tracker_.arrival_phase(ctx.round(), ctx.arrivals());
  }
  return true;
}

void RankedCachePolicy::on_capacity_change(Round round, int up, int total,
                                           std::span<const ColorId> evicted) {
  (void)round;
  (void)up;
  (void)total;
  (void)evicted;
  ++capacity_changes_;
}

std::vector<std::pair<std::string, std::int64_t>> RankedCachePolicy::stats()
    const {
  return {{"capacity_changes", capacity_changes_}};
}

void RankedCachePolicy::checkpoint_state(CheckpointWriter& w) const {
  tracker_.checkpoint(w);
  w.i64(capacity_changes_);
}

void RankedCachePolicy::restore_state(CheckpointReader& r) {
  tracker_.restore_checkpoint(r);
  capacity_changes_ = r.i64();
}

}  // namespace rrs
