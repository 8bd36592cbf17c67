// Unit tests for core/cache: logical color set vs. physical recolorings.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/cache.h"
#include "util/check.h"

namespace rrs {
namespace {

TEST(CacheAssignment, ConstructionInvariants) {
  CacheAssignment cache(8, 2);
  EXPECT_EQ(cache.num_resources(), 8);
  EXPECT_EQ(cache.replication(), 2);
  EXPECT_EQ(cache.max_distinct(), 4);
  EXPECT_EQ(cache.num_cached(), 0);
  EXPECT_FALSE(cache.full());
  for (int r = 0; r < 8; ++r) EXPECT_EQ(cache.color_at(r), kBlack);
}

TEST(CacheAssignment, BadConstructionThrows) {
  EXPECT_THROW(CacheAssignment(7, 2), InputError);
  EXPECT_THROW(CacheAssignment(4, 0), InputError);
  EXPECT_THROW(CacheAssignment(-2, 1), InputError);
}

TEST(CacheAssignment, InsertClaimsReplicationLocations) {
  CacheAssignment cache(8, 2);
  cache.ensure_colors(4);
  cache.begin_phase();
  cache.insert(3);
  const auto events = cache.finish_phase();
  ASSERT_EQ(events.size(), 2u);  // one recoloring per replica
  EXPECT_TRUE(cache.contains(3));
  int colored = 0;
  for (int r = 0; r < 8; ++r) {
    if (cache.color_at(r) == 3) ++colored;
  }
  EXPECT_EQ(colored, 2);
}

TEST(CacheAssignment, EraseIsFreeUntilReuse) {
  CacheAssignment cache(4, 2);
  cache.ensure_colors(4);
  cache.begin_phase();
  cache.insert(0);
  (void)cache.finish_phase();

  cache.begin_phase();
  cache.erase(0);
  const auto events = cache.finish_phase();
  EXPECT_TRUE(events.empty());  // freeing does not recolor
  EXPECT_FALSE(cache.contains(0));
  // The physical locations still carry color 0.
  int still_colored = 0;
  for (int r = 0; r < 4; ++r) {
    if (cache.color_at(r) == 0) ++still_colored;
  }
  EXPECT_EQ(still_colored, 2);
}

TEST(CacheAssignment, ReinsertAfterEraseIsFree) {
  CacheAssignment cache(4, 2);
  cache.ensure_colors(4);
  cache.begin_phase();
  cache.insert(0);
  (void)cache.finish_phase();

  cache.begin_phase();
  cache.erase(0);
  cache.insert(0);  // reclaim the same still-colored locations
  const auto events = cache.finish_phase();
  EXPECT_TRUE(events.empty());
  EXPECT_TRUE(cache.contains(0));
}

TEST(CacheAssignment, EvictAndReplaceCostsOnlyNewColor) {
  CacheAssignment cache(4, 2);
  cache.ensure_colors(4);
  cache.begin_phase();
  cache.insert(0);
  cache.insert(1);
  EXPECT_EQ(cache.finish_phase().size(), 4u);
  EXPECT_TRUE(cache.full());

  cache.begin_phase();
  cache.erase(0);
  cache.insert(2);
  const auto events = cache.finish_phase();
  ASSERT_EQ(events.size(), 2u);
  for (const Recoloring& e : events) {
    EXPECT_EQ(e.from, 0);  // the evicted color's freed locations
    EXPECT_EQ(e.to, 2);
  }
  EXPECT_TRUE(cache.contains(1));
  EXPECT_TRUE(cache.contains(2));
  EXPECT_FALSE(cache.contains(0));
}

TEST(CacheAssignment, ChurnWithinPhaseCollapsesToNetChange) {
  CacheAssignment cache(2, 1);
  cache.ensure_colors(4);
  cache.begin_phase();
  cache.insert(0);
  cache.insert(1);
  (void)cache.finish_phase();

  // Evict 0, insert 2, evict 2, re-insert 0: net no change.
  cache.begin_phase();
  cache.erase(0);
  cache.insert(2);
  cache.erase(2);
  cache.insert(0);
  const auto events = cache.finish_phase();
  EXPECT_TRUE(events.empty()) << "net-unchanged phase must cost nothing";
}

TEST(CacheAssignment, ReplicationOneUsesAllLocations) {
  CacheAssignment cache(3, 1);
  cache.ensure_colors(3);
  cache.begin_phase();
  cache.insert(0);
  cache.insert(1);
  cache.insert(2);
  EXPECT_EQ(cache.finish_phase().size(), 3u);
  EXPECT_TRUE(cache.full());
}

TEST(CacheAssignment, CachedColorsTracksLogicalSet) {
  CacheAssignment cache(8, 2);
  cache.ensure_colors(5);
  cache.begin_phase();
  cache.insert(4);
  cache.insert(2);
  cache.erase(4);
  cache.insert(0);
  (void)cache.finish_phase();
  auto colors = cache.cached_colors();
  std::sort(colors.begin(), colors.end());
  EXPECT_EQ(colors, (std::vector<ColorId>{0, 2}));
}

TEST(CacheAssignment, MisuseIsRejected) {
  CacheAssignment cache(4, 2);
  cache.ensure_colors(4);
  EXPECT_THROW(cache.insert(0), InvariantError);  // outside phase
  cache.begin_phase();
  EXPECT_THROW(cache.begin_phase(), InvariantError);  // nested phase
  cache.insert(0);
  EXPECT_THROW(cache.insert(0), InvariantError);  // duplicate insert
  cache.insert(1);
  EXPECT_THROW(cache.insert(2), InvariantError);  // full
  EXPECT_THROW(cache.erase(3), InvariantError);   // not cached
  (void)cache.finish_phase();
  EXPECT_THROW((void)cache.finish_phase(), InvariantError);  // no phase
  EXPECT_THROW((void)cache.color_at(9), InputError);
}

TEST(CacheAssignment, EventsSortedByLocation) {
  CacheAssignment cache(8, 2);
  cache.ensure_colors(8);
  cache.begin_phase();
  cache.insert(5);
  cache.insert(1);
  cache.insert(3);
  const auto events = cache.finish_phase();
  ASSERT_EQ(events.size(), 6u);
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LT(events[i - 1].location, events[i].location);
  }
}

}  // namespace
}  // namespace rrs
