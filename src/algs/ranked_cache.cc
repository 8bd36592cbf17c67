#include "algs/ranked_cache.h"

#include <algorithm>

#include "core/checkpoint.h"
#include "obs/observer.h"

namespace rrs {

void edf_sort(std::vector<ColorId>& colors, const EligibilityTracker& tracker,
              const PendingJobs& pending) {
  std::vector<EdfKey> keys;
  keys.reserve(colors.size());
  for (const ColorId c : colors) {
    keys.push_back(EdfKey{pending.idle(c), tracker.color_deadline(c),
                          tracker.drop_cost(c), tracker.length(c),
                          tracker.delay_bound(c), c});
  }
  std::sort(keys.begin(), keys.end());
  for (std::size_t i = 0; i < colors.size(); ++i) {
    colors[i] = keys[i].color;
  }
}

void lru_sort(std::vector<ColorId>& colors, const EligibilityTracker& tracker,
              Round now) {
  std::vector<LruKey> keys;
  keys.reserve(colors.size());
  for (const ColorId c : colors) {
    keys.push_back(LruKey{tracker.timestamp(c, now), c});
  }
  std::sort(keys.begin(), keys.end());
  for (std::size_t i = 0; i < colors.size(); ++i) {
    colors[i] = keys[i].color;
  }
}

void RankedCachePolicy::begin(const ArrivalSource& source, int num_resources,
                              int speed) {
  (void)num_resources;
  (void)speed;
  tracker_.begin(source);
  observed_epochs_ = 0;
}

bool RankedCachePolicy::ingest(RoundContext& ctx) {
  if (!ctx.first_mini()) return true;
  const Round k = ctx.round();
  tracker_.drop_phase(k, ctx.dropped(), ctx.cache());
  if (!ctx.final_sweep()) tracker_.arrival_phase(k, ctx.arrivals());
  if (Observer* o = ctx.obs(); o != nullptr) {
    const std::int64_t epochs = tracker_.num_epochs();
    if (epochs != observed_epochs_) {
      o->trace.push({k, TraceKind::kEpochTurnover, 0, epochs});
      observed_epochs_ = epochs;
    }
  }
  return !ctx.final_sweep();
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
  return {{"epochs", tracker_.num_epochs()},
          {"eligible_drops", tracker_.eligible_drops()},
          {"ineligible_drops", tracker_.ineligible_drops()},
          {"capacity_changes", capacity_changes_}};
}

void RankedCachePolicy::checkpoint_state(CheckpointWriter& w) const {
  tracker_.checkpoint(w);
  w.i64(capacity_changes_);
  w.i64(observed_epochs_);
}

void RankedCachePolicy::restore_state(CheckpointReader& r) {
  tracker_.restore_checkpoint(r);
  capacity_changes_ = r.i64();
  observed_epochs_ = r.i64();
}

}  // namespace rrs
