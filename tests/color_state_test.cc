// Unit tests for core/color_state: the Section 3.1 per-color state machine
// (counters, wraps, eligibility, timestamps), and the epoch and drop
// accounting Section3Shadow recomputes from an engine run's events.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "algs/section3_shadow.h"
#include "core/arrival_source.h"
#include "core/block_calendar.h"
#include "core/cache.h"
#include "core/color_state.h"
#include "core/engine.h"
#include "core/instance.h"
#include "util/bits.h"
#include "util/check.h"
#include "util/rng.h"

namespace rrs {
namespace {

/// Drives an EligibilityTracker round by round the way the engine would.
class TrackerHarness {
 public:
  explicit TrackerHarness(Instance instance)
      : instance_(std::move(instance)), source_(instance_), cache_(4, 2) {
    cache_.ensure_colors(instance_.num_colors());
    tracker_.begin(source_);
  }

  /// Runs rounds [next_, until) with no cache changes and no drops.
  void advance_to(Round until) {
    for (; next_ < until; ++next_) {
      tracker_.drop_phase(next_, cache_);
      tracker_.arrival_phase(next_, instance_.arrivals_in_round(next_));
    }
  }

  /// Caches `color` (so boundary resets skip it).
  void cache_color(ColorId color) {
    cache_.begin_phase();
    cache_.insert(color);
    (void)cache_.finish_phase();
  }
  void uncache_color(ColorId color) {
    cache_.begin_phase();
    cache_.erase(color);
    (void)cache_.finish_phase();
  }

  EligibilityTracker& tracker() { return tracker_; }
  [[nodiscard]] Round now() const { return next_; }

 private:
  Instance instance_;
  MaterializedSource source_;
  CacheAssignment cache_;
  EligibilityTracker tracker_;
  Round next_ = 0;
};

/// A policy that never caches a color.
class NeverCache : public Policy {
 public:
  [[nodiscard]] std::string_view name() const override {
    return "never-cache";
  }
  void on_round(RoundContext& ctx) override { (void)ctx; }
};

/// What Section3Shadow counts over an engine run of `instance` in which
/// no color is ever cached, so every eligible color ends its epoch at its
/// next block start.
Section3Report never_cached_report(const Instance& instance) {
  MaterializedSource source(instance);
  NeverCache policy;
  EngineOptions options;
  options.num_resources = 4;
  options.replication = 2;
  options.record_schedule = false;
  Section3Shadow shadow(source, options, Section3Rule::kNone);
  (void)run_with_shadow(source, policy, options, shadow);
  return shadow.report();
}

/// One color, delay 4, Delta 3; batches of `batch` jobs at given rounds.
Instance one_color_instance(Cost delta, Round delay,
                            std::vector<std::pair<Round, std::int64_t>>
                                batches) {
  InstanceBuilder builder;
  builder.delta(delta);
  const ColorId c = builder.add_color(delay);
  Round max_round = 0;
  for (const auto& [round, count] : batches) {
    builder.add_jobs(c, round, count);
    max_round = std::max(max_round, round);
  }
  builder.min_horizon(max_round + 4 * delay);
  return builder.build();
}

TEST(EligibilityTracker, ColorStartsIneligible) {
  TrackerHarness h(one_color_instance(3, 4, {{0, 1}}));
  h.advance_to(1);
  EXPECT_FALSE(h.tracker().eligible(0));
  EXPECT_TRUE(h.tracker().eligible_colors().empty());
}

TEST(EligibilityTracker, WrapMakesEligible) {
  // Delta = 3; 3 jobs at round 0 wrap the counter immediately.
  TrackerHarness h(one_color_instance(3, 4, {{0, 3}}));
  h.advance_to(1);
  EXPECT_TRUE(h.tracker().eligible(0));
  EXPECT_EQ(h.tracker().eligible_colors().size(), 1u);
}

TEST(EligibilityTracker, CounterAccumulatesAcrossBatches) {
  // 2 jobs at round 0, 2 at round 4: wrap happens at round 4 (2+2 >= 3).
  TrackerHarness h(one_color_instance(3, 4, {{0, 2}, {4, 2}}));
  h.advance_to(4);
  EXPECT_FALSE(h.tracker().eligible(0));
  h.advance_to(5);
  EXPECT_TRUE(h.tracker().eligible(0));
}

TEST(EligibilityTracker, UncachedEligibleColorResetsAtBoundary) {
  const Instance instance = one_color_instance(3, 4, {{0, 3}});
  TrackerHarness h(instance);
  h.advance_to(4);  // rounds 0..3: eligible since the round-0 wrap
  ASSERT_TRUE(h.tracker().eligible(0));
  h.advance_to(5);  // boundary at round 4: not cached -> ineligible
  EXPECT_FALSE(h.tracker().eligible(0));
  // 1 completed + 1 incomplete, and no later wrap.
  EXPECT_EQ(never_cached_report(instance).epochs, 2);
}

TEST(EligibilityTracker, CachedColorStaysEligibleAtBoundary) {
  TrackerHarness h(one_color_instance(3, 4, {{0, 3}}));
  h.advance_to(1);
  h.cache_color(0);
  h.advance_to(9);  // two boundaries pass while cached
  EXPECT_TRUE(h.tracker().eligible(0));
  h.uncache_color(0);
  h.advance_to(13);  // next boundary: uncached -> ineligible
  EXPECT_FALSE(h.tracker().eligible(0));
}

TEST(EligibilityTracker, TimestampLagsWrapByOneBoundary) {
  // Wrap at round 0.  Within block [0, 4) the most recent multiple is 0 and
  // no wrap happened strictly before it, so timestamp stays 0 (the paper's
  // "no such round" default); from round 4 the wrap at 0 becomes visible.
  TrackerHarness h(one_color_instance(3, 4, {{0, 3}, {8, 3}}));
  h.advance_to(1);
  EXPECT_EQ(h.tracker().timestamp(0), 0);
  h.cache_color(0);  // keep it eligible across boundaries
  h.advance_to(5);
  EXPECT_EQ(h.tracker().timestamp(0), 0);  // wrap at 0 now < boundary 4
  h.advance_to(9);  // wrap at 8 happened; within [8,12) it is not visible
  EXPECT_EQ(h.tracker().timestamp(0), 0);  // still the round-0 wrap
  h.advance_to(13);
  EXPECT_EQ(h.tracker().timestamp(0), 8);  // now the round-8 wrap shows
}

TEST(EligibilityTracker, ColorDeadlineAdvancesAtBoundaries) {
  TrackerHarness h(one_color_instance(3, 4, {{0, 3}}));
  h.advance_to(1);
  EXPECT_EQ(h.tracker().color_deadline(0), 4);
  h.advance_to(5);
  EXPECT_EQ(h.tracker().color_deadline(0), 8);
  h.advance_to(9);
  EXPECT_EQ(h.tracker().color_deadline(0), 12);
}

TEST(EligibilityTracker, DropClassificationUsesPreResetStatus) {
  InstanceBuilder builder;
  builder.delta(2);
  const ColorId c = builder.add_color(4);
  builder.add_jobs(c, 0, 3);  // wraps (3 >= 2), 1 leftover counted
  builder.add_jobs(c, 4, 1);  // counted after the epoch end: no wrap
  builder.min_horizon(16);
  const Instance inst = builder.build();

  TrackerHarness h(inst);
  h.advance_to(1);
  ASSERT_TRUE(h.tracker().eligible(c));
  h.advance_to(5);
  EXPECT_FALSE(h.tracker().eligible(c));

  // Boundary at round 4: the 3 jobs expire while the color is STILL
  // eligible, so they are eligible drops; the color then goes ineligible,
  // and the round-4 job expires at round 8 as an ineligible drop.
  const Section3Report report = never_cached_report(inst);
  EXPECT_EQ(report.dropped_eligible.count, 3);
  EXPECT_EQ(report.dropped_ineligible.count, 1);
}

TEST(EligibilityTracker, EpochCountingMultipleCycles) {
  // Delta 2, delay 4; 2 jobs at rounds 0, 8, 16 -> three eligibility
  // cycles, each ending at the next boundary (uncached throughout).
  const Instance instance = one_color_instance(2, 4, {{0, 2}, {8, 2}, {16, 2}});
  TrackerHarness h(instance);
  for (const Round wrap : {0, 8, 16}) {
    h.advance_to(wrap + 1);
    EXPECT_TRUE(h.tracker().eligible(0)) << "round " << wrap;
    h.advance_to(wrap + 5);
    EXPECT_FALSE(h.tracker().eligible(0)) << "round " << wrap + 4;
  }
  // 3 completed epochs + the current incomplete one.
  EXPECT_EQ(never_cached_report(instance).epochs, 4);
}

TEST(EligibilityTracker, ActiveColorsCountedOnce) {
  InstanceBuilder builder;
  builder.delta(100);  // never wraps
  const ColorId c = builder.add_color(4);
  builder.add_jobs(c, 0, 1).add_jobs(c, 4, 1).add_jobs(c, 8, 1);
  builder.min_horizon(32);
  const Instance instance = builder.build();
  TrackerHarness h(instance);
  h.advance_to(12);
  EXPECT_FALSE(h.tracker().eligible(c));
  // One incomplete epoch only.
  EXPECT_EQ(never_cached_report(instance).epochs, 1);
}

TEST(EligibilityTracker, CounterWrapsModuloDelta) {
  // Delta 3, 7 jobs at once: cnt -> 7 mod 3 = 1; another 2 jobs at the
  // next boundary wrap again (1 + 2 = 3).
  TrackerHarness h(one_color_instance(3, 4, {{0, 7}, {4, 2}}));
  h.advance_to(1);
  EXPECT_TRUE(h.tracker().eligible(0));
  h.cache_color(0);
  h.advance_to(5);
  // Second wrap at round 4 is recorded: from round 8 both wraps are past
  // boundaries and timestamp shows round 4.
  h.advance_to(9);
  EXPECT_EQ(h.tracker().timestamp(0), 4);
}

TEST(EligibilityTracker, MultipleDelayGroupsTouchOnlyAtOwnBoundaries) {
  InstanceBuilder builder;
  builder.delta(1);  // every job wraps instantly
  const ColorId fast = builder.add_color(2);
  const ColorId slow = builder.add_color(8);
  builder.add_jobs(fast, 0, 1).add_jobs(slow, 0, 1);
  builder.min_horizon(24);
  TrackerHarness h(builder.build());
  h.advance_to(3);
  // fast reset at its boundary (round 2, uncached); slow still eligible.
  EXPECT_FALSE(h.tracker().eligible(fast));
  EXPECT_TRUE(h.tracker().eligible(slow));
  h.advance_to(9);
  EXPECT_FALSE(h.tracker().eligible(slow));  // reset at round 8
}

/// Every color with a block start in (after, k], by ascending delay and
/// then ascending color: what BlockCalendar::due(k) must return when the
/// round asked before k was `after`.
std::vector<ColorId> brute_force_due(const std::vector<Round>& delays,
                                     Round after, Round k) {
  std::vector<std::pair<Round, ColorId>> due;
  for (std::size_t c = 0; c < delays.size(); ++c) {
    if (floor_multiple(k, delays[c]) > after) {
      due.emplace_back(delays[c], static_cast<ColorId>(c));
    }
  }
  std::sort(due.begin(), due.end());
  std::vector<ColorId> colors;
  for (const auto& [delay, color] : due) colors.push_back(color);
  return colors;
}

TEST(BlockCalendar, MatchesBruteForceOnRandomDelaySets) {
  Rng rng(27);
  for (int trial = 0; trial < 200; ++trial) {
    // Even trials draw powers of two, odd ones arbitrary bounds.
    const bool pow2 = trial % 2 == 0;
    std::vector<Round> delays;
    std::map<Round, std::vector<ColorId>> classes;
    const std::int64_t colors = rng.uniform(1, 12);
    for (ColorId c = 0; c < colors; ++c) {
      const Round delay =
          pow2 ? Round{1} << rng.uniform(0, 6) : rng.uniform(1, 40);
      delays.push_back(delay);
      classes[delay].push_back(c);
    }
    BlockCalendar calendar(classes);
    // A fresh calendar reports round 0's starts at its first query,
    // wherever that lands.
    Round after = -1;
    Round k = rng.uniform(0, 500);
    for (int step = 0; step < 300; ++step) {
      const std::vector<ColorId> want = brute_force_due(delays, after, k);
      // Asked twice, as the tracker's drop and arrival phases do.
      for (int query = 0; query < 2; ++query) {
        const std::span<const ColorId> got = calendar.due(k);
        ASSERT_EQ(std::vector<ColorId>(got.begin(), got.end()), want)
            << "trial " << trial << " round " << k << " after " << after
            << " query " << query;
      }
      after = k;
      if (step == 150) {
        // A restore resumes a fresh calendar at an earlier round.
        EXPECT_THROW((void)calendar.due(k - 1), InvariantError);
        calendar = BlockCalendar(classes);
        k = rng.uniform(0, k);
        calendar.start_at(k);
        after = k - 1;
      } else {
        // Mostly the next round; sometimes a skip over several.
        k += rng.bernoulli(0.8) ? 1 : rng.uniform(2, 50);
      }
    }
  }
}

TEST(BlockCalendar, WithoutClassesNothingStarts) {
  BlockCalendar calendar;
  EXPECT_TRUE(calendar.due(0).empty());
  calendar.start_at(7);
  EXPECT_TRUE(calendar.due(9).empty());
}

}  // namespace
}  // namespace rrs
