// Algorithm dLRU (Section 3.1.1): pure recency-based reconfiguration.
//
// Keeps the (up to) n/2 eligible colors with the most recent counter-wrap
// timestamps cached, each replicated in two locations, regardless of
// whether they have pending jobs.  The paper proves (Appendix A) that this
// is NOT resource competitive: it happily caches idle recently-used colors
// while a backlog of long-delay jobs drops.  Implemented both as a paper
// artifact and as the LRU half reused by dLRU-EDF.
#pragma once

#include "algs/ranked_cache.h"
#include "util/stamped_map.h"

namespace rrs {

/// The dLRU reconfiguration scheme.  Run with EngineOptions{.replication=2}.
class DLruPolicy : public RankedCachePolicy {
 public:
  [[nodiscard]] std::string_view name() const override { return "dlru"; }

  void begin(const ArrivalSource& source, int num_resources,
             int speed) override;
  void on_round(RoundContext& ctx) override;

 private:
  std::vector<ColorId> evict_scratch_;
  StampedMap<char> in_target_;  // member of this round's LRU target set
};

}  // namespace rrs
