// Unit tests for core/instance: building, classification, indexing.
#include <gtest/gtest.h>

#include "core/arrival_source.h"
#include "core/instance.h"
#include "util/check.h"

namespace rrs {
namespace {

TEST(InstanceBuilder, BasicBuild) {
  InstanceBuilder builder;
  builder.delta(5);
  const ColorId red = builder.add_color(4);
  const ColorId blue = builder.add_color(8);
  builder.add_jobs(red, 0, 2).add_jobs(blue, 8, 3);
  const Instance inst = builder.build();

  EXPECT_EQ(inst.delta(), 5);
  EXPECT_EQ(inst.num_colors(), 2);
  EXPECT_EQ(inst.delay_bound(red), 4);
  EXPECT_EQ(inst.delay_bound(blue), 8);
  EXPECT_EQ(inst.jobs().size(), 5u);
  EXPECT_EQ(inst.jobs_of_color(red), 2);
  EXPECT_EQ(inst.jobs_of_color(blue), 3);
  EXPECT_EQ(inst.horizon(), 16);  // blue deadline 8 + 8
}

TEST(InstanceBuilder, JobsSortedByArrivalWithDenseIds) {
  InstanceBuilder builder;
  const ColorId c0 = builder.add_color(4);
  const ColorId c1 = builder.add_color(4);
  builder.add_jobs(c1, 8, 1);
  builder.add_jobs(c0, 0, 2);
  builder.add_jobs(c1, 4, 1);
  const Instance inst = builder.build();

  ASSERT_EQ(inst.jobs().size(), 4u);
  for (std::size_t i = 0; i < inst.jobs().size(); ++i) {
    EXPECT_EQ(inst.jobs()[i].id, static_cast<JobId>(i));
    if (i > 0) {
      EXPECT_LE(inst.jobs()[i - 1].arrival, inst.jobs()[i].arrival);
    }
  }
  EXPECT_EQ(inst.jobs()[0].color, c0);
  EXPECT_EQ(inst.jobs()[3].arrival, 8);
}

TEST(InstanceBuilder, ArrivalsInRound) {
  InstanceBuilder builder;
  const ColorId c = builder.add_color(2);
  builder.add_jobs(c, 0, 1);
  builder.add_jobs(c, 4, 3);
  const Instance inst = builder.build();

  EXPECT_EQ(inst.arrivals_in_round(0).size(), 1u);
  EXPECT_TRUE(inst.arrivals_in_round(1).empty());
  EXPECT_TRUE(inst.arrivals_in_round(3).empty());
  EXPECT_EQ(inst.arrivals_in_round(4).size(), 3u);
  EXPECT_TRUE(inst.arrivals_in_round(5).empty());
  for (const Job& job : inst.arrivals_in_round(4)) {
    EXPECT_EQ(job.arrival, 4);
    EXPECT_EQ(job.delay_bound, 2);
    EXPECT_EQ(job.deadline(), 6);
  }
}

TEST(InstanceBuilder, BatchedClassification) {
  InstanceBuilder builder;
  const ColorId c4 = builder.add_color(4);
  const ColorId c8 = builder.add_color(8);
  builder.add_jobs(c4, 0, 1).add_jobs(c4, 8, 2).add_jobs(c8, 16, 1);
  const Instance inst = builder.build();
  EXPECT_TRUE(inst.is_batched());
  EXPECT_TRUE(inst.is_rate_limited());
}

TEST(InstanceBuilder, UnbatchedClassification) {
  InstanceBuilder builder;
  const ColorId c4 = builder.add_color(4);
  builder.add_jobs(c4, 3, 1);  // 3 is not a multiple of 4
  const Instance inst = builder.build();
  EXPECT_FALSE(inst.is_batched());
  EXPECT_FALSE(inst.is_rate_limited());
}

TEST(InstanceBuilder, RateLimitViolationDetected) {
  InstanceBuilder builder;
  const ColorId c4 = builder.add_color(4);
  builder.add_jobs(c4, 4, 5);  // 5 > D = 4 jobs in one batch
  const Instance inst = builder.build();
  EXPECT_TRUE(inst.is_batched());
  EXPECT_FALSE(inst.is_rate_limited());
}

TEST(InstanceBuilder, RateLimitAggregatesSplitAdds) {
  InstanceBuilder builder;
  const ColorId c4 = builder.add_color(4);
  builder.add_jobs(c4, 4, 3).add_jobs(c4, 4, 2);  // 3 + 2 > 4
  const Instance inst = builder.build();
  EXPECT_FALSE(inst.is_rate_limited());
}

TEST(InstanceBuilder, Pow2Classification) {
  {
    InstanceBuilder builder;
    builder.add_color(4);
    builder.add_color(64);
    EXPECT_TRUE(builder.build().all_delays_pow2());
  }
  {
    InstanceBuilder builder;
    builder.add_color(4);
    builder.add_color(6);
    EXPECT_FALSE(builder.build().all_delays_pow2());
  }
}

TEST(InstanceBuilder, ColorsByDelayGroups) {
  InstanceBuilder builder;
  const ColorId a = builder.add_color(4);
  const ColorId b = builder.add_color(8);
  const ColorId c = builder.add_color(4);
  const Instance inst = builder.build();
  const MaterializedSource source(inst);
  const auto& groups = source.colors_by_delay();
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups.at(4), (std::vector<ColorId>{a, c}));
  EXPECT_EQ(groups.at(8), (std::vector<ColorId>{b}));
}

TEST(InstanceBuilder, MinHorizonExtends) {
  InstanceBuilder builder;
  const ColorId c = builder.add_color(2);
  builder.add_jobs(c, 0, 1);
  builder.min_horizon(100);
  EXPECT_EQ(builder.build().horizon(), 100);
}

TEST(InstanceBuilder, EmptyInstance) {
  InstanceBuilder builder;
  const Instance inst = builder.build();
  EXPECT_EQ(inst.num_colors(), 0);
  EXPECT_TRUE(inst.jobs().empty());
  EXPECT_EQ(inst.horizon(), 0);
  EXPECT_TRUE(inst.is_batched());
}

TEST(InstanceBuilder, ZeroCountAddIsNoop) {
  InstanceBuilder builder;
  const ColorId c = builder.add_color(2);
  builder.add_jobs(c, 0, 0);
  EXPECT_TRUE(builder.build().jobs().empty());
}

TEST(InstanceBuilder, InvalidInputsThrow) {
  InstanceBuilder builder;
  EXPECT_THROW(builder.delta(0), InputError);
  EXPECT_THROW(builder.add_color(0), InputError);
  const ColorId c = builder.add_color(2);
  EXPECT_THROW(builder.add_jobs(c + 1, 0, 1), InputError);
  EXPECT_THROW(builder.add_jobs(c, -1, 1), InputError);
  EXPECT_THROW(builder.add_jobs(c, 0, -1), InputError);
  EXPECT_THROW(builder.min_horizon(-1), InputError);
}

TEST(InstanceBuilder, DoubleBuildThrows) {
  InstanceBuilder builder;
  builder.add_color(2);
  (void)builder.build();
  EXPECT_THROW((void)builder.build(), InputError);
}

TEST(Instance, DelayBoundRangeChecked) {
  InstanceBuilder builder;
  builder.add_color(2);
  const Instance inst = builder.build();
  EXPECT_THROW((void)inst.delay_bound(-1), InputError);
  EXPECT_THROW((void)inst.delay_bound(1), InputError);
  EXPECT_THROW((void)inst.jobs_of_color(5), InputError);
}

TEST(Instance, SummaryMentionsShape) {
  InstanceBuilder builder;
  builder.delta(9);
  const ColorId c = builder.add_color(4);
  builder.add_jobs(c, 2, 1);  // unbatched
  const std::string s = builder.build().summary();
  EXPECT_NE(s.find("Delta=9"), std::string::npos);
  EXPECT_NE(s.find("unbatched"), std::string::npos);
}

TEST(Job, DeadlineArithmetic) {
  Job job;
  job.arrival = 10;
  job.delay_bound = 4;
  EXPECT_EQ(job.deadline(), 14);
}

TEST(CostBreakdown, TotalSumsComponents) {
  CostBreakdown cost;
  cost.reconfig_events = 3;
  cost.reconfig_cost = 12;
  cost.drops = 5;
  EXPECT_EQ(cost.total(), 17);
}

}  // namespace
}  // namespace rrs
