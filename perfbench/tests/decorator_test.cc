// The timing decorators must be invisible to the run they measure: every
// virtual forwards, a wrapped run is bit-identical to an unwrapped one with
// fast-forward on, and wrapping leaves the visited-round fraction unchanged
// (a wrapper that silently turned fast-forward off would still reproduce
// the totals, so the totals alone cannot catch it).
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>

#include "algs/registry.h"
#include "core/engine.h"
#include "driver/timing.h"
#include "driver/workloads.h"
#include "obs/observer.h"
#include "sim/runner.h"
#include "workload/flash_crowd.h"
#include "workload/random_batched.h"

namespace {

using perfbench::LogHistogram;
using perfbench::TimingPolicy;
using perfbench::TimingSource;
using rrs::Round;

constexpr Round kRounds = 200'000;
constexpr int kN = 8;

rrs::FlashCrowdParams sparse_params() {
  rrs::FlashCrowdParams p;
  p.base_rate = 0.0005;
  p.spike_factor = 4000.0;
  p.spike_start = kRounds / 2;
  p.spike_end = kRounds / 2 + 2048;
  p.background_colors = 3;
  p.background_rate = 0.0002;
  p.background_delay = 64;
  p.horizon = rrs::kInfiniteHorizon;
  p.seed = 5;
  return p;
}

rrs::EngineOptions options_for(rrs::Observer* observer, bool fast_forward) {
  rrs::EngineOptions options;
  options.num_resources = kN;
  options.record_schedule = false;
  options.max_rounds = kRounds;
  options.drain_pending = true;
  options.observer = observer;
  options.fast_forward = fast_forward;
  return options;
}

struct Outcome {
  rrs::EngineResult result;
  std::string mid_checkpoint;  ///< Engine::checkpoint bytes at mid-run
  std::int64_t arrival_laps = 0;  ///< rounds the engine visited (drain too)
  std::int64_t pulls = -1;        ///< wrapped runs only
};

/// One run of dLRU-EDF over the sparse flash crowd, optionally through
/// both decorators, checkpointing (into memory) halfway.
Outcome run(bool wrapped, bool fast_forward = true) {
  rrs::FlashCrowdSource inner_source(sparse_params());
  rrs::ObsConfig config;
  config.timers = true;
  rrs::Observer observer(config);
  rrs::EngineOptions options = options_for(&observer, fast_forward);
  const std::unique_ptr<rrs::Policy> inner_policy =
      rrs::make_stream_policy("dlru-edf", options);
  LogHistogram histogram;
  TimingSource timed_source(inner_source);
  TimingPolicy timed_policy(*inner_policy, histogram);
  rrs::ArrivalSource& source =
      wrapped ? static_cast<rrs::ArrivalSource&>(timed_source) : inner_source;
  rrs::Policy& policy =
      wrapped ? static_cast<rrs::Policy&>(timed_policy) : *inner_policy;

  Outcome out;
  rrs::Engine engine(source, policy, options);
  engine.run_rounds(source, kRounds / 2 + 1000);  // inside the spike
  std::ostringstream bytes;
  engine.checkpoint(bytes, &source);
  out.mid_checkpoint = bytes.str();
  engine.run_rounds(source, engine.arrival_end());
  out.result = engine.finish();
  out.arrival_laps = observer.timers.laps(rrs::EnginePhase::kArrival);
  if (wrapped) out.pulls = timed_source.counters().pulls;
  return out;
}

void expect_same_result(const rrs::EngineResult& a, const rrs::EngineResult& b) {
  EXPECT_EQ(a.cost, b.cost);
  EXPECT_EQ(a.executed, b.executed);
  EXPECT_EQ(a.work_units, b.work_units);
  EXPECT_EQ(a.arrived, b.arrived);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.peak_pending, b.peak_pending);
  EXPECT_EQ(a.degraded, b.degraded);
  EXPECT_EQ(a.policy_stats, b.policy_stats);
}

TEST(Decorators, WrappedRunIsBitIdenticalWithFastForward) {
  const Outcome plain = run(false);
  const Outcome wrapped = run(true);
  expect_same_result(plain.result, wrapped.result);
  EXPECT_GT(plain.result.arrived, 0);
  // The checkpoint carries the engine, policy and source state, so equal
  // bytes mean the forwarded checkpoint hooks saw identical state.
  EXPECT_EQ(plain.mid_checkpoint, wrapped.mid_checkpoint);
}

TEST(Decorators, WrappingKeepsVisitedRoundFraction) {
  const Outcome plain = run(false);
  const Outcome wrapped = run(true);
  // Timers lap once per visited round, drain rounds included; the wrapper
  // counts pulls, which drain rounds do not make.
  const std::int64_t drain_rounds = plain.result.rounds - kRounds;
  const std::int64_t plain_visited = plain.arrival_laps - drain_rounds;
  EXPECT_EQ(wrapped.arrival_laps, plain.arrival_laps);
  EXPECT_EQ(wrapped.pulls, plain_visited);
  // Fast-forward really fires on this workload...
  EXPECT_LT(2 * plain_visited, kRounds);
  // ...and turning it off is exactly what the fraction would expose.
  const Outcome no_skip = run(true, /*fast_forward=*/false);
  expect_same_result(plain.result, no_skip.result);
  EXPECT_EQ(no_skip.pulls, kRounds);
}

TEST(Decorators, SourceForwardsEveryVirtual) {
  perfbench::GeneralizedBatchedSource inner(rrs::kInfiniteHorizon, 3);
  TimingSource wrapped(inner);
  EXPECT_EQ(wrapped.delta(), inner.delta());
  EXPECT_EQ(wrapped.num_colors(), inner.num_colors());
  EXPECT_EQ(wrapped.horizon(), inner.horizon());
  EXPECT_EQ(&wrapped.cost_model(), &inner.cost_model());  // matrix tier
  EXPECT_EQ(&wrapped.colors_by_delay(), &inner.colors_by_delay());
  EXPECT_EQ(wrapped.summary(), inner.summary());
  EXPECT_EQ(wrapped.materialized(), nullptr);
  for (rrs::ColorId c = 0; c < inner.num_colors(); ++c) {
    EXPECT_EQ(wrapped.delay_bound(c), inner.delay_bound(c));
    EXPECT_EQ(wrapped.drop_cost(c), inner.drop_cost(c));
    EXPECT_EQ(wrapped.length(c), inner.length(c));
  }

  rrs::RandomBatchedParams params;
  params.horizon = 64;
  const rrs::Instance instance = rrs::make_random_batched(params);
  rrs::MaterializedSource materialized(instance);
  TimingSource wrapped_instance(materialized);
  EXPECT_EQ(wrapped_instance.materialized(), &instance);
  EXPECT_EQ(wrapped_instance.next_event_round(0, 64),
            materialized.next_event_round(0, 64));
}

TEST(Decorators, PolicyForwardsEveryVirtual) {
  rrs::RandomBatchedParams params;
  params.num_colors = 12;
  params.horizon = 512;
  const rrs::Instance instance = rrs::make_random_batched(params);
  rrs::EngineOptions options = options_for(nullptr, true);
  options.max_rounds = rrs::kInfiniteHorizon;
  const std::unique_ptr<rrs::Policy> inner =
      rrs::make_stream_policy("dlru-edf", options);
  LogHistogram histogram;
  TimingPolicy wrapped(*inner, histogram);
  EXPECT_EQ(wrapped.name(), inner->name());
  EXPECT_EQ(wrapped.resource_granularity(2), inner->resource_granularity(2));
  EXPECT_EQ(wrapped.supports_fast_forward(), inner->supports_fast_forward());

  rrs::MaterializedSource source(instance);
  rrs::Engine engine(source, wrapped, options);
  engine.run_rounds(source, 256);
  EXPECT_EQ(wrapped.next_policy_event(256), inner->next_policy_event(256));
  EXPECT_EQ(wrapped.stats(), inner->stats());
  EXPECT_GT(histogram.count(), 0);
  EXPECT_EQ(histogram.count(), wrapped.counters().calls);

  // Export through the wrapper, import through a second wrapper, and read
  // back: the migration hooks reach the wrapped policies.
  rrs::EngineOptions fresh_options = options;
  const std::unique_ptr<rrs::Policy> fresh_inner =
      rrs::make_stream_policy("dlru-edf", fresh_options);
  TimingPolicy fresh(*fresh_inner, histogram);
  fresh.begin(source, kN, 1);
  bool any_exported = false;
  for (rrs::ColorId c = 0; c < instance.num_colors(); ++c) {
    rrs::PolicyColorState via_wrapper;
    rrs::PolicyColorState direct;
    const bool exported = wrapped.export_color_state(c, via_wrapper);
    ASSERT_EQ(exported, inner->export_color_state(c, direct));
    if (!exported) continue;
    any_exported = true;
    EXPECT_EQ(via_wrapper.cnt, direct.cnt);
    EXPECT_EQ(via_wrapper.dd, direct.dd);
    EXPECT_EQ(via_wrapper.eligible, direct.eligible);
    fresh.import_color_state(c, via_wrapper);
    rrs::PolicyColorState round_trip;
    ASSERT_TRUE(fresh_inner->export_color_state(c, round_trip));
    EXPECT_EQ(round_trip.cnt, direct.cnt);
    EXPECT_EQ(round_trip.dd, direct.dd);
  }
  EXPECT_TRUE(any_exported);
}

TEST(Decorators, HistogramQuantilesAreWithinOneBucket) {
  LogHistogram h;
  for (int i = 1; i <= 1000; ++i) h.add(i * 10);
  EXPECT_EQ(h.count(), 1000);
  EXPECT_NEAR(h.quantile(0.5), 5000.0, 5000.0 * 0.07);
  EXPECT_NEAR(h.quantile(0.99), 9900.0, 9900.0 * 0.07);
}

}  // namespace
