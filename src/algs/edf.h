// Algorithm EDF (Section 3.1.2): pure deadline-based reconfiguration.
//
// Ranks eligible colors (nonidle first, then earliest color deadline,
// breaking ties by delay bound and then a consistent color order) and
// caches every nonidle color among the top max_distinct() ranks, evicting
// the worst-ranked cached color when full.  The paper proves (Appendix B)
// that this is NOT resource competitive: alternating idleness of a
// short-delay color makes EDF thrash long-delay colors in and out.
//
// The same policy doubles as Seq-EDF (Section 3.3) when run with
// replication 1 — Seq-EDF "is defined the same as EDF except that [it] uses
// all the cache capacity to cache distinct colors" — and as DS-Seq-EDF with
// speed 2.
#pragma once

#include "algs/ranked_cache.h"

namespace rrs {

/// The EDF reconfiguration scheme.  Run with EngineOptions{.replication=2}
/// for the paper's EDF, {.replication=1} for Seq-EDF, and additionally
/// {.speed=2} for DS-Seq-EDF (make_stream_policy sets each by name).
class EdfPolicy : public RankedCachePolicy {
 public:
  [[nodiscard]] std::string_view name() const override { return "edf"; }

  void on_round(RoundContext& ctx) override;
};

}  // namespace rrs
