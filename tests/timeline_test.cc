// Tests for sim/timeline and the flash-crowd generator.
#include <gtest/gtest.h>

#include <sstream>

#include "core/validator.h"
#include "sim/metrics.h"
#include "sim/runner.h"
#include "sim/timeline.h"
#include "util/check.h"
#include "util/rng.h"
#include "workload/flash_crowd.h"

namespace rrs {
namespace {

TEST(Timeline, HandBuiltScheduleBuckets) {
  InstanceBuilder builder;
  builder.delta(1);
  const ColorId c = builder.add_color(4, 2);
  builder.add_jobs(c, 0, 2);
  builder.add_jobs(c, 4, 1);
  const Instance inst = builder.build();  // horizon 8

  Schedule schedule;
  schedule.num_resources = 1;
  schedule.reconfigs = {{0, 0, 0, c}};
  schedule.execs = {{0, 0, 0, 0}, {4, 0, 0, 2}};  // job 1 drops at round 4

  const auto timeline = compute_timeline(inst, schedule, 4);
  ASSERT_EQ(timeline.size(), 2u);
  EXPECT_EQ(timeline[0].start, 0);
  EXPECT_EQ(timeline[0].arrivals, 2);
  EXPECT_EQ(timeline[0].executions, 1);
  EXPECT_EQ(timeline[0].reconfigs, 1);
  EXPECT_EQ(timeline[0].distinct_colors, 1);
  EXPECT_EQ(timeline[1].start, 4);
  EXPECT_EQ(timeline[1].arrivals, 1);
  EXPECT_EQ(timeline[1].executions, 1);
  EXPECT_EQ(timeline[1].drops, 1);       // job 1's deadline is round 4
  EXPECT_EQ(timeline[1].drop_weight, 2);  // weighted color
}

TEST(Timeline, TotalsMatchSchedule) {
  FlashCrowdParams params;
  params.seed = 5;
  params.horizon = 1024;
  params.spike_start = 256;
  params.spike_end = 512;
  const FlashCrowdInstance fc = make_flash_crowd(params);
  Schedule schedule;
  const StreamRunRecord r =
      run_algorithm(fc.instance, "varbatch", 8, &schedule);

  const auto timeline = compute_timeline(fc.instance, schedule, 64);
  std::int64_t arrivals = 0, executions = 0, drops = 0, reconfigs = 0;
  for (const TimelineBucket& b : timeline) {
    arrivals += b.arrivals;
    executions += b.executions;
    drops += b.drops;
    reconfigs += b.reconfigs;
  }
  EXPECT_EQ(arrivals, static_cast<std::int64_t>(fc.instance.jobs().size()));
  EXPECT_EQ(executions, r.executed);
  EXPECT_EQ(executions + drops, arrivals);
  EXPECT_EQ(reconfigs, r.cost.reconfig_events);
}

TEST(Timeline, SpikeVisibleInArrivals) {
  FlashCrowdParams params;
  params.seed = 6;
  params.horizon = 2048;
  params.spike_start = 1024;
  params.spike_end = 1280;
  params.spike_factor = 25.0;
  const FlashCrowdInstance fc = make_flash_crowd(params);
  Schedule schedule;
  (void)run_algorithm(fc.instance, "varbatch", 8, &schedule);
  const auto timeline = compute_timeline(fc.instance, schedule, 256);

  // The spike bucket(s) must carry far more arrivals than steady buckets.
  const auto spike_bucket = timeline[1024 / 256];
  const auto steady_bucket = timeline[0];
  EXPECT_GT(spike_bucket.arrivals, 3 * steady_bucket.arrivals);
}

TEST(Timeline, PartlyExecutedJobIsADrop) {
  // A length-3, weight-7 job that gets 1 of its 3 units is dropped at its
  // deadline at full weight, exactly as Schedule::cost charges it.
  InstanceBuilder builder;
  const ColorId c = builder.add_color(4, /*drop_cost=*/7, /*length=*/3);
  builder.add_jobs(c, 0, 1);
  const Instance inst = builder.build();
  Schedule schedule;
  schedule.num_resources = 1;
  schedule.reconfigs = {{0, 0, 0, c}};
  schedule.execs = {{0, 0, 0, 0}};

  const auto timeline = compute_timeline(inst, schedule, 8);
  ASSERT_EQ(timeline.size(), 1u);
  EXPECT_EQ(timeline[0].executions, 1);
  EXPECT_EQ(timeline[0].drops, 1);
  EXPECT_EQ(timeline[0].drop_weight, 7);
  EXPECT_EQ(schedule.cost(inst).drops, 7);
}

TEST(Timeline, DropSumsMatchValidatorAndMetrics) {
  // Lengths 1-3 and weights 1-4: partial executions and weighted drops.
  constexpr ColorId kColors = 8;
  InstanceBuilder builder;
  builder.delta(3);
  for (ColorId c = 0; c < kColors; ++c) {
    builder.add_color(Round{4} << (c % 3), /*drop_cost=*/1 + c % 4,
                      /*length=*/1 + c % 3);
  }
  Rng rng(11);
  for (Round k = 0; k < 512; ++k) {
    for (ColorId c = 0; c < kColors; ++c) {
      if (k % (Round{4} << (c % 3)) == 0 && rng.bernoulli(0.6)) {
        builder.add_jobs(c, k, rng.uniform(1, 4));
      }
    }
  }
  const Instance inst = builder.build();
  Schedule schedule;
  (void)run_algorithm(inst, "dlru-edf", 8, &schedule);

  const ValidationResult check = validate(inst, schedule);
  ASSERT_TRUE(check.ok);
  ASSERT_GT(check.cost.drops, 0);
  std::int64_t drops = 0;
  Cost drop_weight = 0;
  for (const TimelineBucket& b : compute_timeline(inst, schedule, 32)) {
    drops += b.drops;
    drop_weight += b.drop_weight;
  }
  std::int64_t dropped = 0;
  for (const ColorMetrics& pc : compute_metrics(inst, schedule).per_color) {
    dropped += pc.dropped;
  }
  EXPECT_EQ(drop_weight, check.cost.drops);
  EXPECT_EQ(drops, dropped);
}

TEST(Timeline, CsvHasOneRowPerBucket) {
  InstanceBuilder builder;
  const ColorId c = builder.add_color(4);
  builder.add_jobs(c, 0, 1);
  const Instance inst = builder.build();
  Schedule schedule;
  schedule.num_resources = 1;
  const auto timeline = compute_timeline(inst, schedule, 2);
  ASSERT_EQ(timeline.size(), 2u);

  std::ostringstream out;
  timeline_csv(timeline).write(out);
  int lines = 0;
  for (const char ch : out.str()) {
    if (ch == '\n') ++lines;
  }
  EXPECT_EQ(lines, 3);  // header + 2 buckets
}

TEST(Timeline, InvalidWidthRejected) {
  InstanceBuilder builder;
  builder.add_color(4);
  const Instance inst = builder.build();
  Schedule schedule;
  EXPECT_THROW((void)compute_timeline(inst, schedule, 0), InputError);
}

TEST(FlashCrowd, ParameterValidation) {
  FlashCrowdParams params;
  params.spike_start = 100;
  params.spike_end = 50;
  EXPECT_THROW((void)make_flash_crowd(params), InputError);
  params.spike_end = 200;
  params.horizon = 150;
  EXPECT_THROW((void)make_flash_crowd(params), InputError);
}

TEST(FlashCrowd, DeterministicAndShaped) {
  FlashCrowdParams params;
  params.seed = 9;
  params.horizon = 1024;
  params.spike_start = 512;
  params.spike_end = 640;
  const FlashCrowdInstance a = make_flash_crowd(params);
  const FlashCrowdInstance b = make_flash_crowd(params);
  EXPECT_EQ(a.instance.jobs(), b.instance.jobs());
  // The spike color dominates despite being 1 of 7 colors.
  std::int64_t max_background = 0;
  for (ColorId c = 1; c < a.instance.num_colors(); ++c) {
    max_background = std::max(max_background, a.instance.jobs_of_color(c));
  }
  EXPECT_GT(a.instance.jobs_of_color(a.spike_color), max_background);
}

}  // namespace
}  // namespace rrs
