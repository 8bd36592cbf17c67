// Block starts by delay class (Section 3.1 of the paper).
//
// At each multiple k of a delay bound D_l, every color of that class gets
// the color deadline k + D_l, an uncached eligible color's epoch ends, and
// batched inputs arrive.  BlockCalendar is the one place that works out
// which classes start a block between two rounds.  GeneratorSource's
// batched synthesis asks about every round; EligibilityTracker's phases
// ask only about the rounds the engine visits, so a class whose block
// starts fast-forward skipped is reported at the next visited round, and
// the tracker catches it up to its latest start.
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
  /// its colors in the given order.  The first due() reports every class,
  /// as round 0 starts a block of each.
  explicit BlockCalendar(const std::map<Round, std::vector<ColorId>>& classes) {
    for (const auto& [period, colors] : classes) {
      RRS_CHECK(period >= 1);
      classes_.push_back({period, 0, colors});
    }
  }

  /// Resumes the calendar at `round`, as if every earlier round had been
  /// asked about: the next due() reports only block starts from `round`
  /// on.  A restore resumes there.
  void start_at(Round round) {
    RRS_CHECK(round >= 0);
    last_ = round - 1;
    due_.clear();
    min_next_ = kNever;
    for (Class& cls : classes_) {
      cls.next = ceil_multiple(round, cls.period);
      min_next_ = std::min(min_next_, cls.next);
    }
  }

  /// The colors of every class with a block start in (previous query, k]:
  /// the classes whose period divides k when no round between was
  /// skipped.  Classes come by ascending period, each in its own order.
  /// Rounds are asked in increasing order (a repeat of the last returns
  /// the same list), and each class keeps its next block start, so a
  /// round where no class is due costs O(1).
  [[nodiscard]] std::span<const ColorId> due(Round k) {
    if (k == last_) return due_;
    RRS_CHECK_MSG(k > last_, "block calendar asked for round "
                                 << k << " after round " << last_);
    last_ = k;
    due_.clear();
    if (k < min_next_) return due_;
    min_next_ = kNever;
    for (Class& cls : classes_) {
      if (cls.next <= k) {
        // A skip may have passed several starts: move to the latest.
        if (cls.next < k) cls.next = floor_multiple(k, cls.period);
        cls.next += cls.period;
        due_.insert(due_.end(), cls.colors.begin(), cls.colors.end());
      }
      min_next_ = std::min(min_next_, cls.next);
    }
    return due_;
  }

 private:
  struct Class {
    Round period;
    Round next;  ///< first start after the last round asked about
    std::vector<ColorId> colors;
  };
  static constexpr Round kNever = std::numeric_limits<Round>::max();

  std::vector<Class> classes_;
  std::vector<ColorId> due_;  ///< due(last_)
  Round last_ = -1;
  Round min_next_ = 0;  ///< earliest `next` over the classes
};

}  // namespace rrs
