// Block starts by delay class (Section 3.1 of the paper).
//
// At each multiple k of a delay bound D_l, every color of that class gets
// the color deadline k + D_l, an uncached eligible color's epoch ends, and
// batched inputs arrive.  BlockCalendar is the one place that works out
// which colors start a block at round k: EligibilityTracker's phases and
// GeneratorSource's synthesis walk due(k), and the ranked policies report
// next_start() as the round fast-forward must not skip.
#pragma once

#include <algorithm>
#include <limits>
#include <map>
#include <span>
#include <vector>

#include "core/arrival_source.h"
#include "util/bits.h"
#include "util/check.h"

namespace rrs {

class BlockCalendar {
 public:
  BlockCalendar() = default;

  /// One class per key of `classes` (its period, a delay bound), holding
  /// its colors in the given order.
  explicit BlockCalendar(const std::map<Round, std::vector<ColorId>>& classes) {
    for (const auto& [period, colors] : classes) {
      RRS_CHECK(period >= 1);
      classes_.push_back({period, 0, colors});
    }
  }

  /// The colors whose period divides k: classes by ascending period, each
  /// in its own order.  Rounds are asked in nondecreasing order, and each
  /// class keeps its next block start, so a round where no class is due
  /// costs O(1).  A query repeated at one round returns the same list.
  /// The first query may come at any round (after a restore); it sets
  /// every cursor from k.
  [[nodiscard]] std::span<const ColorId> due(Round k) {
    if (k == last_) return due_;
    RRS_CHECK_MSG(k > last_, "block calendar asked for round "
                                 << k << " after round " << last_);
    last_ = k;
    due_.clear();
    if (k < min_next_) return due_;
    min_next_ = kNever;
    for (Class& cls : classes_) {
      // An unknown cursor, or one behind a round nobody asked about,
      // catches up to k in one step.
      if (cls.next < k) cls.next = ceil_multiple(k, cls.period);
      if (cls.next == k) {
        cls.next += cls.period;
        due_.insert(due_.end(), cls.colors.begin(), cls.colors.end());
      }
      min_next_ = std::min(min_next_, cls.next);
    }
    return due_;
  }

  /// The earliest round >= k at which some class starts a block, or
  /// kInfiniteHorizon without classes.  Allocation-free and O(classes)
  /// at worst.
  [[nodiscard]] Round next_start(Round k) const {
    if (classes_.empty()) return kInfiniteHorizon;
    // Every cursor holds its class's first start after last_, so the
    // round after the last query, which fast-forward asks about, is O(1).
    if (k == last_ + 1) return min_next_;
    Round next = kNever;
    for (const Class& cls : classes_) {
      next = std::min(next, ceil_multiple(k, cls.period));
    }
    return next;
  }

 private:
  struct Class {
    Round period;
    Round next;  ///< next start due() has not reported (0 until known)
    std::vector<ColorId> colors;
  };
  static constexpr Round kNever = std::numeric_limits<Round>::max();

  std::vector<Class> classes_;
  std::vector<ColorId> due_;  ///< due(last_)
  Round last_ = -1;
  Round min_next_ = 0;  ///< earliest `next` over the classes
};

}  // namespace rrs
