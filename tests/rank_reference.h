// From-scratch reference rankings over an EligibilityTracker's state: the
// orders its incremental rank index must reproduce, built by sorting with
// Section3Shadow's EdfKey and LruKey.
#pragma once

#include <algorithm>
#include <vector>

#include "algs/section3_shadow.h"
#include "core/color_state.h"
#include "core/pending.h"

namespace rrs::testing {

/// Sorts `colors` best-rank-first by the EDF color ranking.
inline void edf_sort(std::vector<ColorId>& colors,
                     const EligibilityTracker& tracker,
                     const PendingJobs& pending) {
  const auto key = [&](ColorId c) {
    return EdfKey{pending.idle(c),       tracker.color_deadline(c),
                  tracker.drop_cost(c),  tracker.length(c),
                  tracker.delay_bound(c), c};
  };
  std::sort(colors.begin(), colors.end(),
            [&](ColorId a, ColorId b) { return key(a) < key(b); });
}

/// Sorts `colors` most-recent-timestamp-first (dLRU order), ties by
/// ascending ColorId.
inline void lru_sort(std::vector<ColorId>& colors,
                     const EligibilityTracker& tracker) {
  std::sort(colors.begin(), colors.end(), [&](ColorId a, ColorId b) {
    return LruKey{tracker.timestamp(a), a} < LruKey{tracker.timestamp(b), b};
  });
}

}  // namespace rrs::testing
