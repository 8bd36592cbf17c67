// Tests for sim/metrics: latency/utilization statistics from schedules.
#include <gtest/gtest.h>

#include "sim/metrics.h"
#include "sim/runner.h"
#include "util/check.h"
#include "workload/random_batched.h"

namespace rrs {
namespace {

TEST(Summarize, EmptyIsZero) {
  const DistributionSummary s = summarize({});
  EXPECT_EQ(s.count, 0);
  EXPECT_EQ(s.sum, 0);
  EXPECT_EQ(s.mean, 0.0);
  EXPECT_EQ(s.max, 0);
}

TEST(Summarize, SingleSample) {
  const DistributionSummary s = summarize({7});
  EXPECT_EQ(s.count, 1);
  EXPECT_EQ(s.sum, 7);
  EXPECT_EQ(s.mean, 7.0);
  EXPECT_EQ(s.min, 7);
  EXPECT_EQ(s.p50, 7);
  EXPECT_EQ(s.p99, 7);
  EXPECT_EQ(s.max, 7);
}

TEST(Summarize, TwoSamplesNearestRank) {
  // Nearest rank on {3, 9}: p50 = rank ceil(2 * 50 / 100) = 1 -> 3; p95
  // and p99 = rank 2 -> 9.  The pre-fix floor(q * (count - 1)) indexing
  // returned 3 (the MINIMUM) for all three.
  const DistributionSummary s = summarize({9, 3});
  EXPECT_EQ(s.count, 2);
  EXPECT_EQ(s.sum, 12);
  EXPECT_EQ(s.mean, 6.0);
  EXPECT_EQ(s.min, 3);
  EXPECT_EQ(s.p50, 3);
  EXPECT_EQ(s.p95, 9);
  EXPECT_EQ(s.p99, 9);
  EXPECT_EQ(s.max, 9);
}

TEST(Summarize, AllEqualSamples) {
  const DistributionSummary s = summarize({4, 4, 4, 4, 4});
  EXPECT_EQ(s.count, 5);
  EXPECT_EQ(s.sum, 20);
  EXPECT_EQ(s.mean, 4.0);
  EXPECT_EQ(s.min, 4);
  EXPECT_EQ(s.p50, 4);
  EXPECT_EQ(s.p95, 4);
  EXPECT_EQ(s.p99, 4);
  EXPECT_EQ(s.max, 4);
}

TEST(Summarize, TenSamplesExactRanks) {
  std::vector<Round> samples;
  for (Round v = 10; v >= 1; --v) samples.push_back(v);  // unsorted input
  const DistributionSummary s = summarize(samples);
  EXPECT_EQ(s.sum, 55);
  EXPECT_EQ(s.p50, 5);   // rank ceil(10 * 50 / 100) = 5
  EXPECT_EQ(s.p95, 10);  // rank ceil(9.5) = 10
  EXPECT_EQ(s.p99, 10);
}

TEST(Summarize, NoFloatingPointDriftAtRankBoundary) {
  // 21 samples, p95 rank = ceil(21 * 95 / 100) = ceil(19.95) = 20.  In
  // floating point 0.95 * 20 rounds to 18.999...97, so the old code
  // truncated to index 18 and returned 19 — one whole rank off.
  std::vector<Round> samples;
  for (Round v = 1; v <= 21; ++v) samples.push_back(v);
  const DistributionSummary s = summarize(samples);
  EXPECT_EQ(s.sum, 231);
  EXPECT_EQ(s.p95, 20);
  EXPECT_EQ(s.p99, 21);
}

TEST(Summarize, P99IsMaxBelowHundredSamples) {
  // rank ceil(99 n / 100) == n exactly when n < 100: with fewer than 100
  // samples the 99th percentile IS the maximum.
  std::vector<Round> samples;
  for (Round v = 0; v < 50; ++v) samples.push_back(v * 3);
  const DistributionSummary s = summarize(samples);
  EXPECT_EQ(s.p99, s.max);
  EXPECT_EQ(s.p99, 147);
}

TEST(Summarize, PercentilesOrdered) {
  std::vector<Round> samples;
  for (Round v = 100; v >= 1; --v) samples.push_back(v);  // unsorted input
  const DistributionSummary s = summarize(samples);
  EXPECT_EQ(s.count, 100);
  EXPECT_EQ(s.sum, 5050);
  EXPECT_EQ(s.min, 1);
  EXPECT_EQ(s.max, 100);
  EXPECT_NEAR(s.mean, 50.5, 1e-9);
  EXPECT_LE(s.p50, s.p95);
  EXPECT_LE(s.p95, s.p99);
  EXPECT_LE(s.p99, s.max);
  EXPECT_EQ(s.p50, 50);
  EXPECT_EQ(s.p95, 95);
  EXPECT_EQ(s.p99, 99);
}

TEST(ComputeMetrics, HandBuiltSchedule) {
  InstanceBuilder builder;
  builder.delta(1);
  const ColorId c = builder.add_color(8, 3);
  builder.add_jobs(c, 0, 3);
  const Instance inst = builder.build();

  Schedule schedule;
  schedule.num_resources = 1;
  schedule.reconfigs = {{0, 0, 0, c}};
  schedule.execs = {{0, 0, 0, 0}, {4, 0, 0, 1}};  // job 2 dropped
  const ScheduleMetrics m = compute_metrics(inst, schedule);

  EXPECT_EQ(m.wait.count, 2);
  EXPECT_EQ(m.wait.min, 0);
  EXPECT_EQ(m.wait.max, 4);
  EXPECT_NEAR(m.wait.mean, 2.0, 1e-9);
  EXPECT_EQ(m.slack.max, 7);  // executed at round 0, deadline 8
  EXPECT_EQ(m.slack.min, 3);  // executed at round 4
  EXPECT_NEAR(m.service_rate, 2.0 / 3.0, 1e-9);
  // Span rounds 0..4 on one uni-speed resource: 2 of 5 slots used.
  EXPECT_NEAR(m.utilization, 0.4, 1e-9);

  ASSERT_EQ(m.per_color.size(), 1u);
  EXPECT_EQ(m.per_color[0].executed, 2);
  EXPECT_EQ(m.per_color[0].dropped, 1);
  EXPECT_EQ(m.per_color[0].dropped_weight, 3);
  EXPECT_NEAR(m.per_color[0].mean_wait, 2.0, 1e-9);
}

TEST(ComputeMetrics, EmptySchedule) {
  InstanceBuilder builder;
  const ColorId c = builder.add_color(4);
  builder.add_jobs(c, 0, 2);
  const Instance inst = builder.build();
  Schedule schedule;
  schedule.num_resources = 2;
  const ScheduleMetrics m = compute_metrics(inst, schedule);
  EXPECT_EQ(m.wait.count, 0);
  EXPECT_EQ(m.service_rate, 0.0);
  EXPECT_EQ(m.utilization, 0.0);
  EXPECT_EQ(m.per_color[0].dropped, 2);
}

TEST(ComputeMetrics, RealRunIsConsistent) {
  RandomBatchedParams params;
  params.seed = 6;
  params.horizon = 256;
  const Instance inst = make_random_batched(params);
  Schedule schedule;
  const StreamRunRecord r = run_algorithm(inst, "dlru-edf", 8, &schedule);
  const ScheduleMetrics m = compute_metrics(inst, schedule);

  EXPECT_EQ(m.wait.count, r.executed);
  std::int64_t executed = 0, dropped = 0;
  for (const auto& pc : m.per_color) {
    executed += pc.executed;
    dropped += pc.dropped;
  }
  EXPECT_EQ(executed, r.executed);
  EXPECT_EQ(executed + dropped,
            static_cast<std::int64_t>(inst.jobs().size()));
  EXPECT_GT(m.utilization, 0.0);
  EXPECT_LE(m.utilization, 1.0);
  // Every wait respects the color's delay bound.
  EXPECT_GE(m.slack.min, 0);
}

TEST(ComputeMetrics, RejectsInvalidExecution) {
  InstanceBuilder builder;
  const ColorId c = builder.add_color(4);
  builder.add_jobs(c, 4, 1);
  const Instance inst = builder.build();
  Schedule schedule;
  schedule.num_resources = 1;
  schedule.execs = {{0, 0, 0, 0}};  // before arrival
  EXPECT_THROW((void)compute_metrics(inst, schedule), InvariantError);
}

}  // namespace
}  // namespace rrs
