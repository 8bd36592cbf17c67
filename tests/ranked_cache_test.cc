// Tests for algs/ranked_cache: the shared EDF and dLRU orderings.
#include <gtest/gtest.h>

#include <optional>

#include "algs/ranked_cache.h"
#include "core/arrival_source.h"
#include "core/cache.h"
#include "core/color_state.h"
#include "core/instance.h"
#include "core/pending.h"

namespace rrs {
namespace {

TEST(EdfKey, OrderingPrecedence) {
  // Field order: {idle, color_deadline, weight, length, delay_bound, color}.
  // nonidle beats idle regardless of other fields.
  EXPECT_LT((EdfKey{false, 100, 1, 100, 100, 100}),
            (EdfKey{true, 0, 100, 1, 0, 0}));
  // earlier color deadline wins among nonidle.
  EXPECT_LT((EdfKey{false, 4, 1, 100, 100, 100}),
            (EdfKey{false, 8, 100, 1, 0, 0}));
  // heavier drop weight breaks deadline ties.
  EXPECT_LT((EdfKey{false, 8, 5, 100, 100, 100}),
            (EdfKey{false, 8, 2, 1, 0, 0}));
  // shorter job length breaks weight ties.
  EXPECT_LT((EdfKey{false, 8, 2, 1, 100, 100}),
            (EdfKey{false, 8, 2, 3, 0, 0}));
  // smaller delay bound breaks length ties.
  EXPECT_LT((EdfKey{false, 8, 1, 1, 2, 100}),
            (EdfKey{false, 8, 1, 1, 4, 0}));
  // the consistent color order breaks full ties.
  EXPECT_LT((EdfKey{false, 8, 1, 1, 4, 1}), (EdfKey{false, 8, 1, 1, 4, 2}));
  // irreflexive.
  EXPECT_FALSE((EdfKey{false, 8, 1, 1, 4, 1}) <
               (EdfKey{false, 8, 1, 1, 4, 1}));
}

class RankingFixture : public ::testing::Test {
 protected:
  RankingFixture() : cache_(8, 2) {}

  /// Builds a 3-color instance and drives the tracker to a state where
  /// all colors are eligible with distinct deadlines/timestamps.
  void drive() {
    InstanceBuilder builder;
    builder.delta(1);
    fast_ = builder.add_color(2);
    medium_ = builder.add_color(4);
    slow_ = builder.add_color(8);
    builder.add_jobs(fast_, 0, 1);
    builder.add_jobs(medium_, 0, 2);
    builder.add_jobs(slow_, 0, 2);
    builder.add_jobs(fast_, 2, 1);
    builder.min_horizon(16);
    inst_ = builder.build();

    source_.emplace(inst_);
    cache_.ensure_colors(inst_.num_colors());
    tracker_.begin(*source_);
    pending_.reset(inst_.num_colors());
    // Keep every color cached so eligibility persists across boundaries.
    cache_.begin_phase();
    cache_.insert(fast_);
    cache_.insert(medium_);
    cache_.insert(slow_);
    (void)cache_.finish_phase();
    PendingJobs::DropResult dropped;
    for (Round k = 0; k < 3; ++k) {
      pending_.drop_expired(k, dropped);
      tracker_.drop_phase(k, dropped, cache_);
      for (const Job& job : inst_.arrivals_in_round(k)) pending_.add(job);
      tracker_.arrival_phase(k, inst_.arrivals_in_round(k));
    }
  }

  Instance inst_;
  std::optional<MaterializedSource> source_;
  ColorId fast_ = 0, medium_ = 0, slow_ = 0;
  EligibilityTracker tracker_;
  PendingJobs pending_;
  CacheAssignment cache_;
};

TEST_F(RankingFixture, EdfSortFollowsColorDeadlines) {
  drive();
  // At round 2: fast's deadline is 4, medium's 4 (set at round 0 + 4?),
  // slow's 8.  fast re-batched at 2 -> deadline 4; medium still 4 but
  // larger delay bound; slow latest.
  std::vector<ColorId> colors{slow_, medium_, fast_};
  edf_sort(colors, tracker_, pending_);
  EXPECT_EQ(colors[0], fast_);   // deadline 4, delay 2
  EXPECT_EQ(colors[1], medium_); // deadline 4, delay 4
  EXPECT_EQ(colors[2], slow_);   // deadline 8
}

TEST_F(RankingFixture, IdleColorsSinkToTheBottom) {
  drive();
  // Drain fast's pending jobs: it becomes idle and must rank last.
  while (!pending_.idle(fast_)) (void)pending_.pop_earliest(fast_);
  std::vector<ColorId> colors{fast_, medium_, slow_};
  edf_sort(colors, tracker_, pending_);
  EXPECT_EQ(colors.back(), fast_);
}

TEST_F(RankingFixture, LruSortPrefersRecentTimestamps) {
  drive();
  // At round 2: fast wrapped at rounds 0 and 2; its visible timestamp
  // (wraps before block start 2) is 0.  All colors tie at timestamp 0, so
  // the order falls back to ascending ids.
  std::vector<ColorId> colors{slow_, fast_, medium_};
  lru_sort(colors, tracker_, 2);
  EXPECT_EQ(colors, (std::vector<ColorId>{fast_, medium_, slow_}));

  // At round 4 fast's round-2 wrap becomes visible and beats the others.
  std::vector<ColorId> later{slow_, medium_, fast_};
  lru_sort(later, tracker_, 4);
  EXPECT_EQ(later.front(), fast_);
}

}  // namespace
}  // namespace rrs
