// Whole-instance reference transforms of the two reductions.  The
// adapters (DistributeSource, VarBatchSource) must materialize to exactly
// these, job for job.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "algs/varbatch.h"
#include "core/instance.h"
#include "util/bits.h"

namespace rrs::testing {

/// Distribute on a batched, scalar-priced instance: job rank r of color l
/// in its batch goes to virtual color floor(r / D_l) * C + l, out of C * J
/// colors with J the most copies any batch needs.
[[nodiscard]] inline Instance reference_distribute(const Instance& inst) {
  const ColorId colors = inst.num_colors();
  std::map<std::pair<Round, ColorId>, std::int64_t> rank;
  std::int64_t copies = 1;
  for (const Job& job : inst.jobs()) {
    const std::int64_t r = rank[{job.arrival, job.color}]++;
    copies = std::max(copies, r / job.delay_bound + 1);
  }
  InstanceBuilder builder;
  builder.delta(inst.delta());
  for (std::int64_t v = 0; v < copies * colors; ++v) {
    const auto l = static_cast<ColorId>(v % colors);
    builder.add_color(inst.delay_bound(l), inst.drop_cost(l), inst.length(l));
  }
  rank.clear();
  for (const Job& job : inst.jobs()) {
    const std::int64_t r = rank[{job.arrival, job.color}]++;
    builder.add_jobs(
        static_cast<ColorId>(r / job.delay_bound * colors + job.color),
        job.arrival, 1);
  }
  builder.min_horizon(inst.horizon());
  return builder.build();
}

/// VarBatch on a scalar-priced instance: each job with D > 1 moves to the
/// start of its next half-block of e = varbatch_effective_delay(D) rounds,
/// stably by arrival; each color keeps its identity with delay bound e.
[[nodiscard]] inline Instance reference_varbatch(const Instance& inst) {
  InstanceBuilder builder;
  builder.delta(inst.delta());
  for (ColorId c = 0; c < inst.num_colors(); ++c) {
    builder.add_color(varbatch_effective_delay(inst.delay_bound(c)),
                      inst.drop_cost(c), inst.length(c));
  }
  std::vector<Job> delayed = inst.jobs();
  for (Job& job : delayed) {
    const Round e = varbatch_effective_delay(job.delay_bound);
    if (job.delay_bound > 1) job.arrival = floor_multiple(job.arrival, e) + e;
  }
  std::stable_sort(delayed.begin(), delayed.end(),
                   [](const Job& a, const Job& b) {
                     return a.arrival < b.arrival;
                   });
  for (const Job& job : delayed) builder.add_jobs(job.color, job.arrival, 1);
  builder.min_horizon(inst.horizon());
  return builder.build();
}

/// Two instances agree on colors (delay bounds, drop costs, lengths),
/// horizon and every job.
inline void expect_same_instance(const Instance& got, const Instance& want,
                                 const std::string& label) {
  ASSERT_EQ(got.num_colors(), want.num_colors()) << label;
  for (ColorId c = 0; c < want.num_colors(); ++c) {
    EXPECT_EQ(got.delay_bound(c), want.delay_bound(c)) << label;
    EXPECT_EQ(got.drop_cost(c), want.drop_cost(c)) << label;
    EXPECT_EQ(got.length(c), want.length(c)) << label;
  }
  EXPECT_EQ(got.horizon(), want.horizon()) << label;
  EXPECT_EQ(got.jobs(), want.jobs()) << label;
}

}  // namespace rrs::testing
