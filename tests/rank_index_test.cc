// The incremental rank index (EligibilityTracker::edf_top / edf_before /
// lru_order) must reproduce the sort-based reference rankings exactly,
// round for round: the deadline-bucket calendar's top-k walk and pairwise
// comparison against edf_sort and EdfKey, the intrusive recency list
// against lru_sort (tests/rank_reference.h), both sorts run over the
// tracker's own eligible set and per-color state.  Differential tests
// drive a tracker through phase sequences — arrivals, drops, executions,
// cache churn, counter wraps, ring wrap-around, migration handoff — and
// compare orders after every round.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "core/cache.h"
#include "core/color_state.h"
#include "core/instance.h"
#include "core/pending.h"
#include "rank_reference.h"
#include "util/rng.h"

namespace rrs {
namespace {

using testing::edf_sort;
using testing::lru_sort;

/// The EDF queries against the edf_sort reference: edf_top for a random k
/// in [0, |eligible|] and a random skip set must return the first k
/// nonidle, unskipped colors of the reference, and edf_before must agree
/// with the reference order and with EdfKey on every pair.
void check_edf(EligibilityTracker& tracker, const PendingJobs& pending,
               Rng& rng, Round now) {
  std::vector<ColorId> ref = tracker.eligible_colors();
  edf_sort(ref, tracker, pending);
  std::vector<ColorId> skip;
  for (const ColorId c : ref) {
    if (rng.bernoulli(0.3)) skip.push_back(c);
  }
  const auto skipped = [&skip](ColorId c) {
    return std::find(skip.begin(), skip.end(), c) != skip.end();
  };
  const auto k = static_cast<std::size_t>(
      rng.uniform(0, static_cast<std::int64_t>(ref.size())));
  for (const bool use_skip : {false, true}) {
    std::vector<ColorId> want;
    for (const ColorId c : ref) {
      if (want.size() == k) break;
      if (!pending.idle(c) && !(use_skip && skipped(c))) want.push_back(c);
    }
    const std::vector<ColorId> got =
        use_skip ? tracker.edf_top(k, pending, skipped)
                 : tracker.edf_top(k, pending, [](ColorId) { return false; });
    EXPECT_EQ(got, want) << "round " << now << " k " << k << " skip "
                         << use_skip;
  }
  const auto key = [&](ColorId c) {
    return EdfKey{pending.idle(c),     tracker.color_deadline(c),
                  tracker.drop_cost(c), tracker.length(c),
                  tracker.delay_bound(c), c};
  };
  for (std::size_t i = 0; i < ref.size(); ++i) {
    for (std::size_t j = 0; j < ref.size(); ++j) {
      EXPECT_EQ(tracker.edf_before(ref[i], ref[j], pending), i < j)
          << "round " << now << " colors " << ref[i] << ", " << ref[j];
      EXPECT_EQ(tracker.edf_before(ref[i], ref[j], pending),
                key(ref[i]) < key(ref[j]));
    }
  }
}

/// Drives a tracker through rounds against a PendingJobs /
/// CacheAssignment, the way the engine would, and checks both rankings
/// after each round.
class Harness {
 public:
  explicit Harness(Instance instance, int resources = 4, int replication = 2)
      : instance_(std::move(instance)),
        source_(instance_),
        cache_(resources, replication) {
    cache_.ensure_colors(instance_.num_colors());
    pending_.reset(instance_.num_colors());
    tracker_.begin(source_);
  }

  /// One engine round: expiry sweep, drop phase, arrivals, arrival phase.
  void step() {
    pending_.drop_expired(k_, dropped_);
    tracker_.drop_phase(k_, cache_);
    const auto arrivals = instance_.arrivals_in_round(k_);
    for (const Job& job : arrivals) pending_.add(job);
    tracker_.arrival_phase(k_, arrivals);
    ++k_;
  }

  /// Both orders against the sort-based reference: the EDF queries (see
  /// check_edf) and truncated lru_order prefixes (the capacity-capped walk
  /// a policy issues).
  void check_orders(Rng& rng) {
    const Round now = k_ - 1;
    check_edf(tracker_, pending_, rng, now);

    std::vector<ColorId> lru_ref = tracker_.eligible_colors();
    lru_sort(lru_ref, tracker_);
    for (const std::size_t cap :
         {std::size_t{0}, std::size_t{1}, std::size_t{2}, lru_ref.size()}) {
      const auto take = std::min(cap, lru_ref.size());
      const std::vector<ColorId> want(lru_ref.begin(),
                                      lru_ref.begin() +
                                          static_cast<std::ptrdiff_t>(take));
      EXPECT_EQ(tracker_.lru_order(cap), want)
          << "round " << now << " cap " << cap;
    }
  }

  void execute_some(Rng& rng) {
    for (int tries = 0; tries < 2; ++tries) {
      const auto c = static_cast<ColorId>(rng() %
                                          static_cast<std::uint64_t>(
                                              instance_.num_colors()));
      if (pending_.count(c) > 0) (void)pending_.execute_earliest(c);
    }
  }

  void toggle_cache(Rng& rng) {
    const auto c = static_cast<ColorId>(
        rng() % static_cast<std::uint64_t>(instance_.num_colors()));
    cache_.begin_phase();
    if (cache_.contains(c)) {
      cache_.erase(c);
    } else if (!cache_.full()) {
      cache_.insert(c);
    }
    (void)cache_.finish_phase();
  }

  [[nodiscard]] Round round() const { return k_; }
  [[nodiscard]] Instance& instance() { return instance_; }
  [[nodiscard]] EligibilityTracker& tracker() { return tracker_; }

 private:
  Instance instance_;
  MaterializedSource source_;
  CacheAssignment cache_;
  PendingJobs pending_;
  EligibilityTracker tracker_;
  PendingJobs::DropResult dropped_;
  Round k_ = 0;
};

/// Random instance: 8 colors, mixed delays (optionally non-powers of two,
/// stressing the ceil_pow2 calendar ring), weighted drop costs, non-unit
/// lengths, ~20% arrival density per color.
Instance random_instance(std::uint64_t seed, bool pow2_only) {
  Rng rng(seed);
  InstanceBuilder builder;
  builder.delta(static_cast<Cost>(1 + rng() % 4));
  const Round pow2_delays[] = {1, 2, 4, 8, 16};
  const Round any_delays[] = {1, 3, 4, 5, 6, 8, 12};
  const int num_colors = 8;
  for (int i = 0; i < num_colors; ++i) {
    const Round d = pow2_only ? pow2_delays[rng() % 5] : any_delays[rng() % 7];
    builder.add_color(d, static_cast<Cost>(1 + rng() % 3),
                      static_cast<Round>(1 + rng() % 2));
  }
  const Round horizon = 160;
  for (Round k = 0; k < horizon; ++k) {
    for (ColorId c = 0; c < num_colors; ++c) {
      if (rng() % 100 < 20) {
        builder.add_jobs(c, k, static_cast<std::int64_t>(1 + rng() % 3));
      }
    }
  }
  return builder.build();
}

TEST(RankIndexDifferential, MatchesSortsEveryRoundPow2Delays) {
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL, 5ULL}) {
    Harness h(random_instance(seed, /*pow2_only=*/true));
    Rng rng(seed * 977 + 5);
    const Round until = h.instance().horizon() + 32;
    for (Round k = 0; k < until; ++k) {
      if (k % 7 == 3) h.toggle_cache(rng);
      h.step();
      h.execute_some(rng);
      h.check_orders(rng);
    }
  }
}

TEST(RankIndexDifferential, MatchesSortsEveryRoundArbitraryDelays) {
  for (const std::uint64_t seed : {6ULL, 7ULL, 8ULL}) {
    Harness h(random_instance(seed, /*pow2_only=*/false));
    Rng rng(seed * 977 + 5);
    const Round until = h.instance().horizon() + 32;
    for (Round k = 0; k < until; ++k) {
      if (k % 5 == 2) h.toggle_cache(rng);
      h.step();
      h.execute_some(rng);
      h.check_orders(rng);
    }
  }
}

TEST(RankIndexCalendar, SurvivesManyRingWraps) {
  // One delay class (D = 4, ring of 4 buckets) over a long horizon: every
  // block boundary moves the whole class one ring slot, so the calendar
  // wraps dozens of times.
  InstanceBuilder builder;
  builder.delta(1);
  const ColorId a = builder.add_color(4);
  const ColorId b = builder.add_color(4, /*drop_cost=*/2);
  for (Round k = 0; k < 200; k += 4) {
    builder.add_jobs(a, k, 1);
    if (k % 8 == 0) builder.add_jobs(b, k, 1);
  }
  Harness h(builder.build());
  Rng rng(17);
  for (Round k = 0; k < 220; ++k) {
    h.step();
    h.execute_some(rng);
    h.check_orders(rng);
  }
}

TEST(RankIndexChurn, EpochEndEvictsFromBothOrders) {
  // Delta 1: a single arrival makes the color eligible; at the next
  // multiple of D an uncached eligible color's epoch ends and it must
  // leave the calendar and the recency list.
  InstanceBuilder builder;
  builder.delta(1);
  const ColorId c = builder.add_color(4);
  builder.add_jobs(c, 1, 1);
  builder.min_horizon(16);
  Harness h(builder.build());
  Rng rng(19);
  for (Round k = 0; k < 16; ++k) {
    h.step();
    h.check_orders(rng);
  }
  EXPECT_FALSE(h.tracker().eligible(c)) << "epoch must have ended";
  EXPECT_TRUE(h.tracker().lru_order(4).empty());
}

TEST(RankIndexWraps, SecondWrapInBlockReordersRecency) {
  // Two colors with D = 8, Delta 2.  Color a wraps twice inside one block,
  // color b once.  Timestamps move only at block starts: through round 7
  // both read 0, and from round 8 a's reads 3 and b's 5.  The recency
  // list must follow the same recorded timestamps.
  InstanceBuilder builder;
  builder.delta(2);
  const ColorId a = builder.add_color(8);
  const ColorId b = builder.add_color(8);
  builder.add_jobs(a, 0, 2);  // wrap at 0
  builder.add_jobs(a, 3, 2);  // second wrap, same block
  builder.add_jobs(b, 5, 2);  // wrap at 5
  builder.add_jobs(a, 8, 1);
  builder.add_jobs(b, 9, 1);
  builder.min_horizon(32);
  Harness h(builder.build());
  Rng rng(23);
  for (Round k = 0; k < 32; ++k) {
    h.step();
    h.check_orders(rng);
    EXPECT_EQ(h.tracker().timestamp(a), k < 8 ? 0 : 3) << "round " << k;
    EXPECT_EQ(h.tracker().timestamp(b), k < 8 ? 0 : 5) << "round " << k;
  }
}

TEST(RankIndexMigration, ImportHandoffPreservesOrders) {
  // Export every color from a mid-run tracker into a fresh one, then keep
  // driving: the imported colors must link at their exported timestamps,
  // and every later round must still match the sorts.
  const Instance instance = random_instance(42, /*pow2_only=*/true);
  MaterializedSource source(instance);
  CacheAssignment cache(4, 2);
  cache.ensure_colors(instance.num_colors());
  PendingJobs pending;
  pending.reset(instance.num_colors());
  PendingJobs::DropResult dropped;

  EligibilityTracker original;
  original.begin(source);
  const Round handoff = 48;
  for (Round k = 0; k < handoff; ++k) {
    pending.drop_expired(k, dropped);
    original.drop_phase(k, cache);
    const auto arrivals = instance.arrivals_in_round(k);
    for (const Job& job : arrivals) pending.add(job);
    original.arrival_phase(k, arrivals);
  }

  EligibilityTracker imported;
  imported.begin(source);
  for (ColorId c = 0; c < instance.num_colors(); ++c) {
    imported.import_color(c, original.export_color(c));
  }

  Rng rng(31);
  for (Round k = handoff; k < instance.horizon() + 16; ++k) {
    pending.drop_expired(k, dropped);
    imported.drop_phase(k, cache);
    const auto arrivals = instance.arrivals_in_round(k);
    for (const Job& job : arrivals) pending.add(job);
    imported.arrival_phase(k, arrivals);

    check_edf(imported, pending, rng, k);
    std::vector<ColorId> lru_ref = imported.eligible_colors();
    lru_sort(lru_ref, imported);
    EXPECT_EQ(imported.lru_order(lru_ref.size()), lru_ref) << "round " << k;
  }
}

TEST(RankIndexContract, EmptyEligibleSetYieldsEmptyOrders) {
  InstanceBuilder builder;
  builder.delta(100);  // threshold far above any arrival mass
  const ColorId c = builder.add_color(4);
  builder.add_jobs(c, 0, 1);
  builder.min_horizon(8);
  Harness h(builder.build());
  Rng rng(29);
  for (Round k = 0; k < 8; ++k) {
    h.step();
    h.check_orders(rng);
  }
  EXPECT_TRUE(h.tracker().lru_order(4).empty());
}

}  // namespace
}  // namespace rrs
