// Streaming observability: obs primitives plus the exact
// streaming-vs-post-hoc equivalence matrix (the tentpole property).
//
// The layer's core claim is that StreamStats, fed O(1) hooks inside the
// engine phases, reproduces the post-hoc compute_metrics instruments
// bit-for-bit: every aggregate is an integer (or an integer-backed
// histogram), so streaming totals, per-color counters, and derived means
// must EQUAL — not approximate — the numbers computed from a recorded
// schedule.  The matrix checks that across 4 algorithms x 4 workload
// families x 3 seeds for plain streaming runs, for sharded runs merged
// through ShardPlan relabeling, and under a non-empty FaultPlan.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "core/fault_plan.h"
#include "obs/observer.h"
#include "sim/metrics.h"
#include "sim/runner.h"
#include "test_util.h"
#include "workload/datacenter.h"
#include "workload/flash_crowd.h"
#include "workload/poisson.h"
#include "workload/random_batched.h"
#include "workload/sharded_source.h"

namespace rrs {
namespace {

// The four main engine policies (seq-edf/ds-seq-edf are EDF re-runs at
// different speeds; the four below cover every distinct policy).
const char* const kObsAlgorithms[] = {"dlru", "edf", "dlru-edf", "adaptive"};

const char* const kFamilies[] = {
    "random-batched", "poisson", "flash-crowd", "datacenter",
};

/// Fresh streaming source for (family, seed); mirrors streaming_test.
std::unique_ptr<ArrivalSource> make_source(const std::string& family,
                                           std::uint64_t seed) {
  if (family == "random-batched") {
    RandomBatchedParams params;
    params.horizon = 256;
    params.seed = seed;
    return std::make_unique<RandomBatchedSource>(params);
  }
  if (family == "poisson") {
    PoissonParams params;
    params.horizon = 256;
    params.seed = seed;
    return std::make_unique<PoissonSource>(params);
  }
  if (family == "flash-crowd") {
    FlashCrowdParams params;
    params.spike_start = 128;
    params.spike_end = 192;
    params.horizon = 512;
    params.seed = seed;
    return std::make_unique<FlashCrowdSource>(params);
  }
  if (family == "datacenter") {
    DatacenterParams params;
    params.horizon = 1024;
    params.seed = seed;
    return std::make_unique<DatacenterSource>(params);
  }
  ADD_FAILURE() << "unknown family " << family;
  return nullptr;
}

/// Bit-for-bit agreement between a streaming histogram and the post-hoc
/// summary of the same samples.  Percentiles are not compared: the
/// histogram resolves them to bucket bounds by design.
void expect_matches(const Histogram& h, const DistributionSummary& s,
                    const char* label) {
  EXPECT_EQ(h.count(), s.count) << label;
  EXPECT_EQ(h.sum(), s.sum) << label;
  EXPECT_EQ(h.min(), s.min) << label;
  EXPECT_EQ(h.max(), s.max) << label;
  EXPECT_EQ(h.mean(), s.mean) << label << " (means must match exactly)";
}

/// Bit-for-bit agreement between streaming per-color counters and the
/// post-hoc ColorMetrics, with `obs_color` relabeled onto `m`.
void expect_matches(const ColorObs& obs, const ColorMetrics& m) {
  EXPECT_EQ(obs.arrived, m.jobs) << "color " << m.color;
  EXPECT_EQ(obs.executed, m.executed) << "color " << m.color;
  EXPECT_EQ(obs.dropped, m.dropped) << "color " << m.color;
  EXPECT_EQ(obs.dropped_weight, m.dropped_weight) << "color " << m.color;
  EXPECT_EQ(obs.mean_wait(), m.mean_wait) << "color " << m.color;
}

/// A brute-force per-job loop over a recorded run, independent of replay()
/// and every sink on it: each job's units from the recorded execs, its
/// wait and slack at its completing unit, and the weight of every job left
/// short.  Keeps the streaming-vs-post-hoc matrices from reducing to one
/// sink agreeing with itself.
struct PerJobReference {
  std::vector<ColorObs> per_color;
  DistributionSummary wait;
  DistributionSummary slack;
};

PerJobReference per_job_reference(const Instance& instance,
                                  const Schedule& schedule) {
  const std::vector<Job>& jobs = instance.jobs();
  std::vector<Round> units(jobs.size(), 0);
  std::vector<Round> completed_at(jobs.size(), -1);
  for (const ExecEvent& e : schedule.execs) {
    const auto j = static_cast<std::size_t>(e.job);
    if (++units[j] == jobs[j].length) completed_at[j] = e.round;
  }
  PerJobReference ref;
  ref.per_color.resize(static_cast<std::size_t>(instance.num_colors()));
  std::vector<Round> waits, slacks;
  for (const Job& job : jobs) {
    const auto j = static_cast<std::size_t>(job.id);
    ColorObs& obs = ref.per_color[static_cast<std::size_t>(job.color)];
    ++obs.arrived;
    obs.work_units += units[j];
    const Round at = completed_at[j];
    if (at < 0) {
      ++obs.dropped;
      obs.dropped_weight += job.drop_cost;
      continue;
    }
    ++obs.executed;
    obs.wait_sum += at - job.arrival;
    waits.push_back(at - job.arrival);
    slacks.push_back(job.deadline() - 1 - at);
  }
  ref.wait = summarize(std::move(waits));
  ref.slack = summarize(std::move(slacks));
  return ref;
}

/// Streaming stats equal the per-job reference, every per-color counter
/// included.
void expect_matches(const StreamStats& stats, const PerJobReference& ref,
                    const char* label) {
  expect_matches(stats.wait(), ref.wait, label);
  expect_matches(stats.slack(), ref.slack, label);
  ASSERT_EQ(stats.per_color().size(), ref.per_color.size()) << label;
  for (std::size_t c = 0; c < ref.per_color.size(); ++c) {
    EXPECT_EQ(stats.per_color()[c], ref.per_color[c])
        << label << " color " << c;
  }
}

// --- Histogram -------------------------------------------------------------

TEST(HistogramTest, BucketLayoutIsLog2) {
  EXPECT_EQ(Histogram::bucket_of(0), 0);
  EXPECT_EQ(Histogram::bucket_of(1), 1);
  EXPECT_EQ(Histogram::bucket_of(2), 2);
  EXPECT_EQ(Histogram::bucket_of(3), 2);
  EXPECT_EQ(Histogram::bucket_of(4), 3);
  EXPECT_EQ(Histogram::bucket_of(7), 3);
  EXPECT_EQ(Histogram::bucket_of(8), 4);
  EXPECT_EQ(Histogram::bucket_upper(0), 0);
  EXPECT_EQ(Histogram::bucket_upper(1), 1);
  EXPECT_EQ(Histogram::bucket_upper(2), 3);
  EXPECT_EQ(Histogram::bucket_upper(3), 7);
  for (int i = 0; i < Histogram::kNumBuckets - 1; ++i) {
    EXPECT_EQ(Histogram::bucket_of(Histogram::bucket_upper(i)), i);
  }
}

TEST(HistogramTest, RecordTracksExactAggregates) {
  Histogram h;
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
  EXPECT_EQ(h.mean(), 0.0);
  for (const Round v : {5, 0, 17, 5, 2}) h.record(v);
  EXPECT_EQ(h.count(), 5);
  EXPECT_EQ(h.sum(), 29);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 17);
  EXPECT_EQ(h.mean(), 29.0 / 5.0);
  EXPECT_EQ(h.bucket(0), 1);  // the zero
  EXPECT_EQ(h.bucket(2), 1);  // 2
  EXPECT_EQ(h.bucket(3), 2);  // both fives
  EXPECT_EQ(h.bucket(5), 1);  // 17
}

TEST(HistogramTest, MergeEqualsRecordingTheUnion) {
  Histogram a, b, all;
  for (const Round v : {1, 4, 9}) {
    a.record(v);
    all.record(v);
  }
  for (const Round v : {0, 4, 300}) {
    b.record(v);
    all.record(v);
  }
  Histogram ab = a, ba = b;
  ab.merge(b);
  ba.merge(a);
  EXPECT_EQ(ab, all);
  EXPECT_EQ(ba, all) << "merge must be commutative";
}

TEST(HistogramTest, PercentileResolvesToBucketBoundsExactAtMax) {
  Histogram h;
  EXPECT_EQ(h.percentile(50), 0);  // empty
  for (const Round v : {1, 2, 3, 100}) h.record(v);
  // rank ceil(4 * 50 / 100) = 2 lands in bucket 2 ([2, 3]) -> upper bound 3.
  EXPECT_EQ(h.percentile(50), 3);
  // The top rank lands in the bucket holding the exact max.
  EXPECT_EQ(h.percentile(100), 100);
  Histogram one;
  one.record(42);
  EXPECT_EQ(one.percentile(1), 42);
  EXPECT_EQ(one.percentile(99), 42);
}

TEST(HistogramTest, FromPartsRoundTrips) {
  Histogram h;
  for (const Round v : {0, 3, 3, 9, 1024}) h.record(v);
  std::vector<std::pair<int, std::int64_t>> buckets;
  for (int i = 0; i < Histogram::kNumBuckets; ++i) {
    if (h.bucket(i) > 0) buckets.emplace_back(i, h.bucket(i));
  }
  const Histogram back =
      Histogram::from_parts(h.count(), h.sum(), h.min(), h.max(), buckets);
  EXPECT_EQ(back, h);
  EXPECT_EQ(Histogram::from_parts(0, 0, 0, 0, {}), Histogram{});
}

TEST(HistogramTest, FromPartsRejectsInconsistency) {
  using Buckets = std::vector<std::pair<int, std::int64_t>>;
  const Buckets one = {{1, 1}};
  EXPECT_THROW((void)Histogram::from_parts(-1, 0, 0, 0, {}), InputError);
  EXPECT_THROW((void)Histogram::from_parts(0, 1, 0, 0, {}), InputError);
  EXPECT_THROW((void)Histogram::from_parts(1, 1, 0, 1, {}), InputError)
      << "count > 0 needs buckets";
  EXPECT_THROW((void)Histogram::from_parts(2, 2, 1, 1, one), InputError)
      << "bucket counts must sum to count";
  EXPECT_THROW((void)Histogram::from_parts(1, 1, 1, 0, one), InputError)
      << "min > max";
  EXPECT_THROW((void)Histogram::from_parts(1, 4, 4, 4, one), InputError)
      << "min not in its bucket";
  const Buckets two = {{1, 1}, {3, 1}};
  EXPECT_THROW((void)Histogram::from_parts(2, 100, 1, 5, two), InputError)
      << "mean outside [min, max]";
  const Buckets unordered = {{3, 1}, {1, 1}};
  EXPECT_THROW((void)Histogram::from_parts(2, 6, 1, 5, unordered), InputError);
}

// --- TraceRing -------------------------------------------------------------

TEST(TraceRingTest, KeepsNewestEventsUpToCapacity) {
  TraceRing ring(4);
  for (Round k = 0; k < 6; ++k) {
    ring.push({k, TraceKind::kReconfig, 0, k});
  }
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.capacity(), 4u);
  EXPECT_EQ(ring.total_pushed(), 6);
  const std::vector<TraceEvent> events = ring.events();
  ASSERT_EQ(events.size(), 4u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].round, static_cast<Round>(i + 2))
        << "oldest surviving event first";
  }
  ring.clear();
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.total_pushed(), 0);
}

TEST(TraceRingTest, DumpNamesEveryKind) {
  TraceRing ring(16);
  ring.push({1, TraceKind::kDropBurst, 2, 5});
  ring.push({2, TraceKind::kChurnFail, 0, kBlack});
  ring.push({3, TraceKind::kSnapshot, 0, 7});
  std::ostringstream os;
  ring.dump(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("drop-burst"), std::string::npos);
  EXPECT_NE(text.find("churn-fail"), std::string::npos);
  EXPECT_NE(text.find("snapshot"), std::string::npos);
  EXPECT_NE(text.find("3 of 3 events"), std::string::npos);
}

TEST(TraceRingTest, RejectsZeroCapacity) {
  EXPECT_THROW(TraceRing ring(0), InputError);
}

// --- PhaseTimers -----------------------------------------------------------

TEST(PhaseTimersTest, NotesChargeLapsAndMergeAdds) {
  PhaseTimers t;
  t.begin_segment();
  t.note(EnginePhase::kDrop);
  t.note(EnginePhase::kPolicy);
  t.note(EnginePhase::kPolicy);
  EXPECT_EQ(t.laps(EnginePhase::kDrop), 1);
  EXPECT_EQ(t.laps(EnginePhase::kPolicy), 2);
  EXPECT_EQ(t.laps(EnginePhase::kChurn), 0);
  EXPECT_GE(t.seconds(EnginePhase::kDrop), 0.0);
  EXPECT_GE(t.total_seconds(),
            t.seconds(EnginePhase::kDrop) + t.seconds(EnginePhase::kPolicy));

  PhaseTimers other;
  other.begin_segment();
  other.note(EnginePhase::kDrop);
  t.merge(other);
  EXPECT_EQ(t.laps(EnginePhase::kDrop), 2);
  t.reset();
  EXPECT_EQ(t.laps(EnginePhase::kPolicy), 0);
  EXPECT_EQ(t.total_seconds(), 0.0);
  EXPECT_STREQ(PhaseTimers::phase_name(EnginePhase::kExec), "exec");
}

// --- StreamStats -----------------------------------------------------------

/// The completing unit of a unit-length job: `color`, `weight`, run in
/// `round` within [arrival, deadline).
ExecUnit completion(ColorId color, Round round, Round arrival, Round deadline,
                    Cost weight) {
  ExecUnit unit;
  unit.round = round;
  unit.color = unit.configured = color;
  unit.arrival = arrival;
  unit.deadline = deadline;
  unit.weight = weight;
  return unit;
}

/// One arrival of `color` (StreamStats counts arrivals per job color).
Arrivals one_arrival(const Job& job) { return {job.arrival, {&job, 1}}; }

TEST(StreamStatsTest, ReconfigGapCollapsesMiniRounds) {
  StreamStats stats;
  stats.begin(1);
  stats.on_reconfigs(5);
  stats.on_reconfigs(5);  // second mini-round of round 5: same round
  EXPECT_TRUE(stats.reconfig_gap().empty());
  stats.on_reconfigs(9);
  EXPECT_EQ(stats.reconfig_gap().count(), 1);
  EXPECT_EQ(stats.reconfig_gap().sum(), 4);
}

TEST(StreamStatsTest, MergeMappedRelabelsLocalColors) {
  // Global space: 3 colors with delays {4, 8, 16} and drop costs
  // {1, 2, 3}.  Shard A owns {0, 2}, shard B owns {1}.
  Job job;
  StreamStats shard_a;
  shard_a.begin(2);
  job.color = 0;
  shard_a.on_arrivals(one_arrival(job));
  job.color = 1;
  shard_a.on_arrivals(one_arrival(job));
  shard_a.on_exec(completion(1, 10, 4, 20, 3));  // wait 6, slack 9
  shard_a.on_drop({0, 0, 2, 2});                 // weight 2

  StreamStats shard_b;
  shard_b.begin(1);
  job.color = 0;
  shard_b.on_arrivals(one_arrival(job));
  shard_b.on_exec(completion(0, 3, -1, 7, 2));  // wait 4, slack 3

  StreamStats merged;
  merged.begin(3);
  const std::vector<ColorId> a_map = {0, 2};
  const std::vector<ColorId> b_map = {1};
  merged.merge_mapped(shard_a, a_map);
  merged.merge_mapped(shard_b, b_map);

  EXPECT_EQ(merged.completed_weight(), 5);
  EXPECT_EQ(merged.wait().count(), 2);
  EXPECT_EQ(merged.drop_count(), 2);
  EXPECT_EQ(merged.wait().sum(), 10);
  EXPECT_EQ(merged.slack().sum(), 12);
  ASSERT_EQ(merged.per_color().size(), 3u);
  EXPECT_EQ(merged.per_color()[0].dropped, 2);
  EXPECT_EQ(merged.per_color()[0].dropped_weight, 2);
  EXPECT_EQ(merged.per_color()[1].executed, 1);
  EXPECT_EQ(merged.per_color()[1].wait_sum, 4);
  EXPECT_EQ(merged.per_color()[2].executed, 1);
  EXPECT_EQ(merged.per_color()[2].wait_sum, 6);

  StreamStats wrong;
  wrong.begin(3);
  const std::vector<ColorId> bad_map = {0, 7};
  EXPECT_THROW(wrong.merge_mapped(shard_a, bad_map), InputError);
}

// --- Snapshot --------------------------------------------------------------

/// A consistent hand-built snapshot (executed == wait.count == slack.count,
/// means derived) with `executed` samples.
Snapshot test_snapshot(Round round, std::int64_t scale) {
  // Colors {D = 4, drop cost 1} and {D = 8, drop cost 3}.
  StreamStats stats;
  stats.begin(2);
  for (std::int64_t i = 0; i < scale; ++i) {
    stats.on_exec(completion(0, round - 1 + i, round - 2 + i, round + 2 + i,
                             1));
    stats.on_drop({round, 1, 1, 3});
    stats.on_reconfigs(i * 3);
  }
  RunCounters counters;  // what the engine counts alongside
  counters.arrived = 2 * scale;
  counters.executed = counters.work_units = scale;
  counters.cost.drops = 3 * scale;
  counters.cost.reconfig_events = 2 * scale;
  counters.degraded.fault_events = 1;
  counters.degraded.repair_events = 1;
  counters.degraded.churn_evictions = 1;
  return make_snapshot(stats, counters, round, /*pending=*/scale);
}

TEST(SnapshotTest, JsonLineRoundTripsExactly) {
  const Snapshot s = test_snapshot(100, 7);
  const std::string line = to_json_line(s);
  const Snapshot back = parse_snapshot_line(line);
  EXPECT_EQ(back, s);
  EXPECT_EQ(to_json_line(back), line);
  // The all-zero snapshot round-trips too.
  EXPECT_EQ(parse_snapshot_line(to_json_line(Snapshot{})), Snapshot{});
}

TEST(SnapshotTest, MergeFromDefaultIsIdentityAndOrderIndependent) {
  const Snapshot a = test_snapshot(100, 5);
  const Snapshot b = test_snapshot(220, 11);
  Snapshot from_default;
  merge_into(from_default, a);
  EXPECT_EQ(from_default, a);

  Snapshot ab = a, ba = b;
  merge_into(ab, b);
  merge_into(ba, a);
  EXPECT_EQ(ab, ba) << "merge must be commutative";
  EXPECT_EQ(ab.round, 220);
  EXPECT_EQ(ab.executed, 16);
  EXPECT_EQ(ab.mean_wait, ab.wait.mean()) << "means recomputed on merge";
}

TEST(SnapshotTest, SeriesMergeCarriesShortShardsForward) {
  const Snapshot s1 = test_snapshot(64, 2);
  const Snapshot s2 = test_snapshot(128, 4);
  const Snapshot t1 = test_snapshot(64, 3);
  const std::vector<std::vector<Snapshot>> per_shard = {{s1, s2}, {t1}, {}};
  const std::vector<Snapshot> merged = merge_snapshot_series(per_shard);
  ASSERT_EQ(merged.size(), 2u);
  Snapshot want0 = s1, want1 = s2;
  merge_into(want0, t1);
  merge_into(want1, t1);  // the short shard's last snapshot carries forward
  EXPECT_EQ(merged[0], want0);
  EXPECT_EQ(merged[1], want1);
}

TEST(SnapshotTest, ReaderSkipsBlankLinesAndNumbersErrors) {
  const Snapshot a = test_snapshot(10, 2);
  const Snapshot b = test_snapshot(20, 3);
  std::ostringstream out;
  out << to_json_line(a) << "\n\n" << to_json_line(b) << '\n';
  std::istringstream in(out.str());
  const std::vector<Snapshot> back = read_snapshots(in);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0], a);
  EXPECT_EQ(back[1], b);

  std::istringstream corrupt(to_json_line(a) + "\n{\"round\":oops\n");
  try {
    (void)read_snapshots(corrupt);
    FAIL() << "corrupt line must throw";
  } catch (const InputError& e) {
    EXPECT_NE(std::string(e.what()).find("snapshot line 2"),
              std::string::npos)
        << e.what();
  }
}

TEST(SnapshotGolden, ObservedRunWritesPinnedBytes) {
  // The snapshot_out bytes of a run that moves every key (churn with
  // charged repairs, weights, lengths), pinned literally: the export
  // promises byte-identical reruns of a seed, and any change to the
  // format, a key or a counter's source shows up here.
  // After an intended format change, re-capture the literal from
  // golden_snapshot_stream() and review the diff key by key.
  const std::string expected =
      "{\"round\":31,\"arrived\":56,\"executed\":45,\"drop_count\":10"
      ",\"drop_weight\":15,\"completed_weight\":102,\"work_units\":63"
      ",\"reconfig_events\":31,\"churn_failures\":3,\"churn_repairs\":2"
      ",\"churn_evictions\":2,\"pending\":1,\"mean_wait\":1.9111111111111112"
      ",\"mean_slack\":2.9555555555555557,\"wait\":{\"count\":45,\"sum\":86"
      ",\"min\":0,\"max\":14,\"buckets\":[[0,16],[1,14],[2,10],[3,2],[4,3]]}"
      ",\"slack\":{\"count\":45,\"sum\":133,\"min\":0,\"max\":7"
      ",\"buckets\":[[0,1],[1,8],[2,25],[3,11]]},\"service\":{\"count\":45"
      ",\"sum\":63,\"min\":1,\"max\":3,\"buckets\":[[1,30],[2,15]]}"
      ",\"reconfig_gap\":{\"count\":13,\"sum\":29,\"min\":1,\"max\":6"
      ",\"buckets\":[[1,5],[2,5],[3,3]]}}\n"
      "{\"round\":63,\"arrived\":115,\"executed\":84,\"drop_count\":26"
      ",\"drop_weight\":35,\"completed_weight\":207,\"work_units\":127"
      ",\"reconfig_events\":59,\"churn_failures\":6,\"churn_repairs\":5"
      ",\"churn_evictions\":5,\"pending\":5,\"mean_wait\":2.6904761904761907"
      ",\"mean_slack\":2.7857142857142856,\"wait\":{\"count\":84,\"sum\":226"
      ",\"min\":0,\"max\":15,\"buckets\":[[0,25],[1,24],[2,16],[3,10],[4,9]]}"
      ",\"slack\":{\"count\":84,\"sum\":234,\"min\":0,\"max\":7"
      ",\"buckets\":[[0,4],[1,13],[2,49],[3,18]]},\"service\":{\"count\":84"
      ",\"sum\":127,\"min\":1,\"max\":3,\"buckets\":[[1,50],[2,34]]}"
      ",\"reconfig_gap\":{\"count\":27,\"sum\":61,\"min\":1,\"max\":7"
      ",\"buckets\":[[1,11],[2,11],[3,5]]}}\n"
      "{\"round\":95,\"arrived\":168,\"executed\":127,\"drop_count\":36"
      ",\"drop_weight\":49,\"completed_weight\":311,\"work_units\":185"
      ",\"reconfig_events\":89,\"churn_failures\":8,\"churn_repairs\":7"
      ",\"churn_evictions\":7,\"pending\":5,\"mean_wait\":2.4881889763779528"
      ",\"mean_slack\":2.622047244094488,\"wait\":{\"count\":127,\"sum\":316"
      ",\"min\":0,\"max\":15,\"buckets\":[[0,38],[1,35],[2,29],[3,14],[4,11]]}"
      ",\"slack\":{\"count\":127,\"sum\":333,\"min\":0,\"max\":7"
      ",\"buckets\":[[0,7],[1,23],[2,74],[3,23]]},\"service\":{\"count\":127"
      ",\"sum\":183,\"min\":1,\"max\":3,\"buckets\":[[1,82],[2,45]]}"
      ",\"reconfig_gap\":{\"count\":43,\"sum\":93,\"min\":1,\"max\":7"
      ",\"buckets\":[[1,17],[2,20],[3,6]]}}\n"
      "{\"round\":112,\"arrived\":196,\"executed\":147,\"drop_count\":49"
      ",\"drop_weight\":66,\"completed_weight\":365,\"work_units\":220"
      ",\"reconfig_events\":106,\"churn_failures\":10,\"churn_repairs\":8"
      ",\"churn_evictions\":9,\"pending\":0,\"mean_wait\":2.5578231292517009"
      ",\"mean_slack\":2.7823129251700682,\"wait\":{\"count\":147,\"sum\":376"
      ",\"min\":0,\"max\":15,\"buckets\":[[0,43],[1,40],[2,35],[3,16],[4,13]]}"
      ",\"slack\":{\"count\":147,\"sum\":409,\"min\":0,\"max\":13"
      ",\"buckets\":[[0,10],[1,25],[2,82],[3,27],[4,3]]}"
      ",\"service\":{\"count\":147,\"sum\":217,\"min\":1,\"max\":3"
      ",\"buckets\":[[1,93],[2,54]]},\"reconfig_gap\":{\"count\":52"
      ",\"sum\":110,\"min\":1,\"max\":7,\"buckets\":[[1,19],[2,27],[3,6]]}}\n";
  EXPECT_EQ(testing::golden_snapshot_stream(), expected);
}

// --- Observer at run level -------------------------------------------------

TEST(ObserverRun, DoesNotPerturbTheRun) {
  const auto plain_source = make_source("random-batched", 5);
  const StreamRunRecord plain = run_streaming(*plain_source, "dlru-edf", 8);

  Observer observer;
  const auto observed_source = make_source("random-batched", 5);
  const StreamRunRecord observed =
      run_streaming(*observed_source, "dlru-edf", 8, kInfiniteHorizon,
                    nullptr, false, &observer);

  EXPECT_EQ(RunCounters(observed), RunCounters(plain));
  EXPECT_EQ(observed.stats, plain.stats);
}

TEST(ObserverRun, PeriodicSnapshotsAreCumulativeAndWritten) {
  ObsConfig config;
  config.snapshot_every = 64;
  Observer observer(config);
  std::ostringstream sink;
  observer.snapshot_out = &sink;

  const auto source = make_source("poisson", 9);
  const StreamRunRecord record =
      run_streaming(*source, "dlru-edf", 8, kInfiniteHorizon, nullptr, false,
                    &observer);

  ASSERT_GE(observer.snapshots.size(), 2u) << "256-round run, every 64";
  for (std::size_t i = 1; i < observer.snapshots.size(); ++i) {
    const Snapshot& prev = observer.snapshots[i - 1];
    const Snapshot& cur = observer.snapshots[i];
    EXPECT_GT(cur.round, prev.round);
    EXPECT_GE(cur.arrived, prev.arrived) << "cumulative, not a delta";
    EXPECT_GE(cur.executed, prev.executed);
    EXPECT_GE(cur.drop_count, prev.drop_count);
  }
  // The final snapshot is the run's totals.
  EXPECT_EQ(observer.final_snapshot.arrived, record.arrived);
  EXPECT_EQ(observer.final_snapshot.executed, record.executed);
  EXPECT_EQ(observer.final_snapshot.drop_weight, record.cost.drops);
  EXPECT_EQ(observer.final_snapshot.reconfig_events,
            record.cost.reconfig_events);
  EXPECT_EQ(observer.final_snapshot.pending, 0) << "drained run";
  EXPECT_EQ(observer.final_snapshot.round, record.rounds);

  // The JSON-lines sink holds the periodic series plus the final snapshot,
  // and parses back bit-identically.
  std::istringstream in(sink.str());
  const std::vector<Snapshot> parsed = read_snapshots(in);
  ASSERT_EQ(parsed.size(), observer.snapshots.size() + 1);
  for (std::size_t i = 0; i < observer.snapshots.size(); ++i) {
    EXPECT_EQ(parsed[i], observer.snapshots[i]);
  }
  EXPECT_EQ(parsed.back(), observer.final_snapshot);
}

TEST(ObserverRun, PhaseTimersAttributeEveryActivePhase) {
  ObsConfig config;
  config.timers = true;
  Observer observer(config);

  MtbfParams mtbf;
  mtbf.num_resources = 8;
  mtbf.horizon = 128;
  mtbf.mean_up = 30;
  mtbf.mean_down = 10;
  mtbf.seed = 4;
  const FaultPlan plan = make_mtbf_plan(mtbf);

  const auto source = make_source("random-batched", 3);
  const StreamRunRecord record = run_streaming(
      *source, "dlru-edf", 8, kInfiniteHorizon, &plan, false, &observer);

  // Every visited round passes each phase boundary once, and at speed 1
  // it has one policy call and one execution mini-round.
  const PhaseTimers& timers = observer.timers;
  const std::int64_t rounds = timers.laps(EnginePhase::kArrival);
  EXPECT_GT(rounds, 0);
  EXPECT_EQ(timers.laps(EnginePhase::kChurn), rounds);
  EXPECT_EQ(timers.laps(EnginePhase::kDrop), rounds);
  EXPECT_EQ(timers.laps(EnginePhase::kPolicy), rounds);
  EXPECT_EQ(timers.laps(EnginePhase::kExec), rounds);
  // The phases are disjoint slices of the run.
  EXPECT_GE(timers.total_seconds(), 0.0);
  EXPECT_LE(timers.total_seconds(), record.seconds);
}

TEST(ObserverRun, TraceRecordsReconfigsAndChurn) {
  Observer observer;

  MtbfParams mtbf;
  mtbf.num_resources = 8;
  mtbf.horizon = 128;
  mtbf.mean_up = 30;
  mtbf.mean_down = 10;
  mtbf.seed = 4;
  const FaultPlan plan = make_mtbf_plan(mtbf);

  // Half of make_source's horizon, so that every event fits in the
  // observer's 256-entry ring; the run still spans the whole fault plan.
  RandomBatchedParams params;
  params.horizon = 128;
  params.seed = 3;
  RandomBatchedSource source(params);
  const StreamRunRecord record = run_streaming(
      source, "dlru-edf", 8, kInfiniteHorizon, &plan, false, &observer);

  std::int64_t reconfig_events = 0, fails = 0, repairs = 0;
  for (const TraceEvent& e : observer.trace.events()) {
    if (e.kind == TraceKind::kReconfig) reconfig_events += e.value;
    if (e.kind == TraceKind::kChurnFail) ++fails;
    if (e.kind == TraceKind::kChurnRepair) ++repairs;
  }
  // The ring is larger than the event volume here, so nothing was evicted
  // and the trace must account for every committed reconfiguration.
  ASSERT_EQ(observer.trace.total_pushed(),
            static_cast<std::int64_t>(observer.trace.size()));
  EXPECT_GT(record.degraded.fault_events, 0);
  EXPECT_EQ(reconfig_events, record.cost.reconfig_events);
  EXPECT_EQ(fails, record.degraded.fault_events);
  EXPECT_EQ(repairs, record.degraded.repair_events);
}

TEST(ObserverRun, DumpsTraceOnInvariantError) {
  // A policy that dies mid-run: the engine must dump the flight recorder
  // to the observer's sink before rethrowing.
  class BoomPolicy final : public Policy {
   public:
    [[nodiscard]] std::string_view name() const override { return "boom"; }
    void on_round(RoundContext& ctx) override {
      if (ctx.final_sweep()) return;
      if (!ctx.cache().contains(0) && !ctx.cache().full()) {
        ctx.cache().insert(0);
      }
      if (ctx.round() >= 8) throw InvariantError("boom at round 8");
    }
  };

  Observer observer;
  std::ostringstream dump;
  observer.trace_dump_out = &dump;

  const auto source = make_source("poisson", 2);
  BoomPolicy policy;
  EngineOptions options;
  options.num_resources = 4;
  options.replication = 1;
  options.record_schedule = false;
  options.observer = &observer;
  EXPECT_THROW((void)run_policy(*source, policy, options), InvariantError);
  EXPECT_NE(dump.str().find("trace-ring dump"), std::string::npos);
  EXPECT_NE(dump.str().find("reconfig"), std::string::npos)
      << "the insert at round 0 must be in the dump:\n"
      << dump.str();
}

// --- the streaming-vs-post-hoc equivalence matrix --------------------------

using Cell = std::tuple<std::string, std::string, std::uint64_t>;

std::vector<Cell> all_cells() {
  std::vector<Cell> cells;
  for (const char* const algorithm : kObsAlgorithms) {
    for (const char* const family : kFamilies) {
      for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
        cells.emplace_back(algorithm, family, seed);
      }
    }
  }
  return cells;
}

std::string cell_name(const ::testing::TestParamInfo<Cell>& info) {
  std::string name = std::get<0>(info.param) + "_" + std::get<1>(info.param) +
                     "_s" + std::to_string(std::get<2>(info.param));
  for (char& ch : name) {
    if (ch == '-') ch = '_';
  }
  return name;
}

class StreamingVsPostHoc : public ::testing::TestWithParam<Cell> {};

TEST_P(StreamingVsPostHoc, StreamStatsEqualComputeMetricsBitForBit) {
  const auto& [algorithm, family, seed] = GetParam();

  // Post-hoc reference: materialize, record the schedule, run the offline
  // instrument.
  const auto to_materialize = make_source(family, seed);
  const Instance instance = materialize(*to_materialize);
  Schedule schedule;
  const StreamRunRecord reference =
      run_algorithm(instance, algorithm, 8, &schedule);
  const ScheduleMetrics metrics = compute_metrics(instance, schedule);

  // Streaming: same workload pulled lazily, instrumented live.
  Observer observer;
  const auto source = make_source(family, seed);
  (void)run_streaming(*source, algorithm, 8, kInfiniteHorizon, nullptr, false,
                      &observer);
  const StreamStats& stats = observer.stats;
  const Snapshot& totals = observer.final_snapshot;

  expect_matches(stats.wait(), metrics.wait, "wait");
  expect_matches(stats.slack(), metrics.slack, "slack");
  EXPECT_EQ(totals.arrived,
            static_cast<std::int64_t>(instance.jobs().size()));
  EXPECT_EQ(totals.executed, reference.executed);
  EXPECT_EQ(totals.drop_weight, reference.cost.drops);
  EXPECT_EQ(totals.reconfig_events, reference.cost.reconfig_events);
  ASSERT_EQ(stats.per_color().size(), metrics.per_color.size());
  for (std::size_t c = 0; c < metrics.per_color.size(); ++c) {
    expect_matches(stats.per_color()[c], metrics.per_color[c]);
  }
  expect_matches(stats, per_job_reference(instance, schedule), "per-job");
}

INSTANTIATE_TEST_SUITE_P(Matrix, StreamingVsPostHoc,
                         ::testing::ValuesIn(all_cells()), cell_name);

class ShardedVsPostHoc : public ::testing::TestWithParam<Cell> {};

TEST_P(ShardedVsPostHoc, MergedStatsEqualRelabeledPostHocSums) {
  const auto& [algorithm, family, seed] = GetParam();
  constexpr int kShards = 2;
  constexpr int kResources = 16;

  // Sharded run with a merged observer.
  Observer merged;
  ShardedRunOptions options;
  options.observer = &merged;

  const auto source = make_source(family, seed);
  const Round arrival_end = source->horizon();
  const ShardedRunRecord record = run_streaming_sharded(
      *source, algorithm, kResources, kShards, kInfiniteHorizon, options);

  // Post-hoc reference: re-split a fresh identical source with the SAME
  // plan, materialize each shard's relabeled sub-workload, and run the
  // offline instrument on it.
  const auto resplit_source = make_source(family, seed);
  ShardedSourceOptions split_options;
  split_options.backpressure = false;  // shards materialized serially
  ShardedSource resplit(*resplit_source, record.plan, arrival_end,
                        split_options);

  DistributionSummary wait_sum, slack_sum;
  std::vector<ColorMetrics> global_colors(
      static_cast<std::size_t>(resplit_source->num_colors()));
  std::vector<ColorObs> global_reference(global_colors.size());
  for (int s = 0; s < kShards; ++s) {
    const Instance sub = materialize(resplit.stream(s));
    const int resources =
        record.plan.shard_resources[static_cast<std::size_t>(s)];
    Schedule schedule;
    (void)run_algorithm(sub, algorithm, resources, &schedule);
    const ScheduleMetrics m = compute_metrics(sub, schedule);

    // Per-shard: a solo streaming run of the shard's sub-instance vs its
    // own post-hoc instrument, bit for bit.
    Observer solo;
    MaterializedSource sub_source(sub);
    (void)run_streaming(sub_source, algorithm, resources, kInfiniteHorizon,
                        nullptr, false, &solo);
    const StreamStats& shard_stats = solo.stats;
    expect_matches(shard_stats.wait(), m.wait, "shard wait");
    expect_matches(shard_stats.slack(), m.slack, "shard slack");
    const PerJobReference ref = per_job_reference(sub, schedule);
    expect_matches(shard_stats, ref, "shard per-job");
    ASSERT_EQ(shard_stats.per_color().size(), m.per_color.size());
    for (std::size_t c = 0; c < m.per_color.size(); ++c) {
      expect_matches(shard_stats.per_color()[c], m.per_color[c]);
      // Relabel into the expected global table: each color lives in
      // exactly one shard, so this is a copy, not an accumulation.
      const auto global = static_cast<std::size_t>(
          record.plan.shard_colors[static_cast<std::size_t>(s)][c]);
      global_colors[global] = m.per_color[c];
      global_colors[global].color = static_cast<ColorId>(global);
      global_reference[global] = ref.per_color[c];
    }

    // Combine the post-hoc summaries the way an exact merge must.
    wait_sum.count += m.wait.count;
    wait_sum.sum += m.wait.sum;
    slack_sum.count += m.slack.count;
    slack_sum.sum += m.slack.sum;
    if (m.wait.count > 0) {
      wait_sum.min = wait_sum.count == m.wait.count
                         ? m.wait.min
                         : std::min(wait_sum.min, m.wait.min);
      wait_sum.max = std::max(wait_sum.max, m.wait.max);
    }
    if (m.slack.count > 0) {
      slack_sum.min = slack_sum.count == m.slack.count
                          ? m.slack.min
                          : std::min(slack_sum.min, m.slack.min);
      slack_sum.max = std::max(slack_sum.max, m.slack.max);
    }
  }
  wait_sum.mean = wait_sum.count == 0
                      ? 0.0
                      : static_cast<double>(wait_sum.sum) /
                            static_cast<double>(wait_sum.count);
  slack_sum.mean = slack_sum.count == 0
                       ? 0.0
                       : static_cast<double>(slack_sum.sum) /
                             static_cast<double>(slack_sum.count);

  // Merged observer == the relabeled post-hoc combination, bit for bit.
  expect_matches(merged.stats.wait(), wait_sum, "merged wait");
  expect_matches(merged.stats.slack(), slack_sum, "merged slack");
  ASSERT_EQ(merged.stats.per_color().size(), global_colors.size());
  for (std::size_t c = 0; c < global_colors.size(); ++c) {
    expect_matches(merged.stats.per_color()[c], global_colors[c]);
    EXPECT_EQ(merged.stats.per_color()[c], global_reference[c])
        << "merged per-job color " << c;
  }
}

INSTANTIATE_TEST_SUITE_P(Matrix, ShardedVsPostHoc,
                         ::testing::ValuesIn(all_cells()), cell_name);

// --- equivalence under capacity churn --------------------------------------

class FaultedVsPostHoc : public ::testing::TestWithParam<std::string> {};

TEST_P(FaultedVsPostHoc, StreamStatsMatchRecordedScheduleUnderChurn) {
  const std::string algorithm = GetParam();

  MtbfParams mtbf;
  mtbf.num_resources = 8;
  mtbf.horizon = 256;
  mtbf.mean_up = 40;
  mtbf.mean_down = 12;
  mtbf.seed = 6;
  const FaultPlan plan = make_mtbf_plan(mtbf);

  // Post-hoc reference: the engine with the same churn, recording the
  // schedule for the offline instrument.
  const auto to_materialize = make_source("random-batched", 6);
  const Instance instance = materialize(*to_materialize);
  EngineOptions engine_options;
  const auto policy = make_stream_policy(algorithm, engine_options);
  engine_options.num_resources = 8;
  engine_options.record_schedule = true;
  engine_options.fault_plan = &plan;
  const EngineResult reference =
      run_policy(instance, *policy, engine_options);
  const ScheduleMetrics metrics = compute_metrics(instance,
                                                  reference.schedule);

  // Streaming with the same plan, instrumented live.
  Observer observer;
  const auto source = make_source("random-batched", 6);
  const StreamRunRecord streamed = run_streaming(
      *source, algorithm, 8, kInfiniteHorizon, &plan, false, &observer);
  const StreamStats& stats = observer.stats;
  const Snapshot& totals = observer.final_snapshot;

  ASSERT_GT(streamed.degraded.fault_events, 0) << "plan must inject churn";
  expect_matches(stats.wait(), metrics.wait, "wait");
  expect_matches(stats.slack(), metrics.slack, "slack");
  EXPECT_EQ(totals.executed, reference.executed);
  EXPECT_EQ(totals.drop_weight, reference.cost.drops);
  ASSERT_EQ(stats.per_color().size(), metrics.per_color.size());
  for (std::size_t c = 0; c < metrics.per_color.size(); ++c) {
    expect_matches(stats.per_color()[c], metrics.per_color[c]);
  }
  expect_matches(stats, per_job_reference(instance, reference.schedule),
                 "per-job");
  // Churn totals match the recorded run's.
  EXPECT_EQ(totals.churn_failures, reference.degraded.fault_events);
  EXPECT_EQ(totals.churn_repairs, reference.degraded.repair_events);
  EXPECT_EQ(totals.churn_evictions, reference.degraded.churn_evictions);
}

std::string algorithm_name(
    const ::testing::TestParamInfo<std::string>& param_info) {
  std::string name = param_info.param;
  for (char& ch : name) {
    if (ch == '-') ch = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(Algorithms, FaultedVsPostHoc,
                         ::testing::ValuesIn(std::vector<std::string>{
                             "dlru", "edf", "dlru-edf", "adaptive"}),
                         algorithm_name);

}  // namespace
}  // namespace rrs
