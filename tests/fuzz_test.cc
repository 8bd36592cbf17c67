// Fuzz-style tests: random policies and random workloads exercise the
// engine / cache / validator stack far off the happy path.
//
// A RandomPolicy performs arbitrary (but API-legal) cache mutations every
// round — random inserts of random colors, random evictions, sometimes
// nothing.  Whatever it does, the engine must produce a schedule the
// validator accepts with exactly the engine's cost.  This pins down the
// engine's contract: ANY policy yields a legal schedule.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "algs/adaptive.h"
#include "core/checkpoint.h"
#include "core/color_state.h"
#include "core/engine.h"
#include "core/pending.h"
#include "core/validator.h"
#include "obs/observer.h"
#include "sim/metrics.h"
#include "sim/runner.h"
#include "sim/timeline.h"
#include "test_util.h"
#include "util/bits.h"
#include "util/rng.h"
#include "workload/poisson.h"
#include "workload/random_batched.h"
#include "workload/trace_io.h"

namespace rrs {
namespace {

/// A policy that mutates the cache randomly but legally.
class RandomPolicy : public Policy {
 public:
  explicit RandomPolicy(std::uint64_t seed) : rng_(seed) {}

  [[nodiscard]] std::string_view name() const override { return "random"; }

  void begin(const ArrivalSource& source, int, int) override {
    num_colors_ = source.num_colors();
  }

  void on_round(RoundContext& ctx) override {
    if (ctx.final_sweep()) return;
    CacheAssignment& cache = ctx.cache();
    if (num_colors_ == 0) return;
    const std::int64_t actions = rng_.uniform(0, 3);
    for (std::int64_t a = 0; a < actions; ++a) {
      const bool evict = rng_.bernoulli(0.4);
      if (evict && cache.num_cached() > 0) {
        const auto& cached = cache.cached_colors();
        cache.erase(cached[static_cast<std::size_t>(rng_.uniform(
            0, static_cast<std::int64_t>(cached.size()) - 1))]);
      } else if (!cache.full()) {
        const auto color =
            static_cast<ColorId>(rng_.uniform(0, num_colors_ - 1));
        if (!cache.contains(color)) cache.insert(color);
      }
    }
  }

 private:
  Rng rng_;
  ColorId num_colors_ = 0;
};

class EngineFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EngineFuzz, RandomPolicyYieldsValidSchedule) {
  RandomBatchedParams params;
  params.seed = GetParam();
  params.horizon = 128;
  params.num_colors = 6;
  params.min_drop_cost = 1;
  params.max_drop_cost = 4;
  const Instance inst = make_random_batched(params);

  for (const int replication : {1, 2}) {
    for (const int speed : {1, 2}) {
      RandomPolicy policy(GetParam() * 31 +
                          static_cast<std::uint64_t>(replication * 2 + speed));
      EngineOptions options;
      options.num_resources = 4;
      options.replication = replication;
      options.speed = speed;
      options.record_schedule = true;
      const EngineResult r = run_policy(inst, policy, options);
      const ValidationResult check = validate(inst, r.schedule);
      ASSERT_TRUE(check.ok)
          << "repl " << replication << " speed " << speed << ": "
          << (check.errors.empty() ? "?" : check.errors[0]);
      EXPECT_EQ(check.cost, r.cost);
    }
  }
}

TEST_P(EngineFuzz, RandomPolicyOnUnbatchedInput) {
  PoissonParams params;
  params.seed = GetParam();
  params.horizon = 128;
  params.num_colors = 5;
  params.arbitrary_delays = true;
  params.min_delay = 2;
  params.max_delay = 40;
  const Instance inst = make_poisson(params);

  RandomPolicy policy(GetParam() + 99);
  EngineOptions options;
  options.num_resources = 3;
  options.replication = 1;
  options.record_schedule = true;
  const EngineResult r = run_policy(inst, policy, options);
  EXPECT_EQ(validate_or_throw(inst, r.schedule), r.cost);
}

TEST_P(EngineFuzz, ChurnPolicyNetsOutInCache) {
  // A policy that evicts and reinserts the same color each round must not
  // accumulate reconfiguration cost: CacheAssignment's phase diffing
  // collapses no-op churn.
  class ChurnPolicy : public Policy {
   public:
    [[nodiscard]] std::string_view name() const override { return "churn"; }
    void on_round(RoundContext& ctx) override {
      if (ctx.final_sweep()) return;
      CacheAssignment& cache = ctx.cache();
      if (cache.contains(0)) {
        cache.erase(0);
        cache.insert(0);  // reclaims the same still-colored locations
      } else {
        cache.insert(0);
      }
    }
  };

  RandomBatchedParams params;
  params.seed = GetParam();
  params.horizon = 64;
  params.num_colors = 2;
  const Instance inst = make_random_batched(params);
  ChurnPolicy policy;
  EngineOptions options;
  options.num_resources = 2;
  options.replication = 1;
  const EngineResult r = run_policy(inst, policy, options);
  EXPECT_EQ(r.cost.reconfig_events, 1) << "only the initial insert costs";
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineFuzz,
                         ::testing::Range(std::uint64_t{1},
                                          std::uint64_t{17}));

// --- trace-reader corpus fuzzing -------------------------------------------

/// read_trace's contract off the happy path: any input either parses or
/// throws a structured InputError — never an InvariantError, never a
/// crash, never a silently garbage instance.
void expect_parses_or_rejects(const std::string& text, const char* label) {
  std::istringstream in(text);
  try {
    const Instance inst = read_trace(in);
    EXPECT_GE(inst.num_colors(), 0) << label;  // parsed: must be coherent
  } catch (const InputError&) {
    // structured rejection: the expected outcome for malformed input
  }
  // anything else escapes and fails the test
}

/// A v1 (scalar-uniform) trace and a v2 trace carrying every generalized
/// record kind (length/weight color fields, dcold, dwarm) — the corpus
/// seeds for the trace-reader fuzzing below.
std::vector<std::string> valid_trace_corpus(std::uint64_t seed) {
  std::vector<std::string> corpus;
  RandomBatchedParams params;
  params.seed = seed;
  params.horizon = 64;
  std::ostringstream v1;
  write_trace(v1, make_random_batched(params));
  corpus.push_back(v1.str());

  InstanceBuilder builder;
  builder.delta(4);
  const ColorId a = builder.add_color(4, /*drop_cost=*/3, /*length=*/2);
  const ColorId b = builder.add_color(8, /*drop_cost=*/1, /*length=*/1);
  const ColorId c = builder.add_color(16, /*drop_cost=*/5, /*length=*/3);
  builder.reconfig_cost(b, 7);
  builder.transition_cost(a, b, 1);
  builder.transition_cost(c, a, 0);
  for (Round t = 0; t < 32; t += 4) {
    builder.add_jobs(a, t, 2);
    builder.add_jobs(b, t, 1);
    if (t % 8 == 0) builder.add_jobs(c, t, 3);
  }
  std::ostringstream v2;
  write_trace(v2, builder.build());
  corpus.push_back(v2.str());
  return corpus;
}

TEST(TraceFuzz, TruncationCorpusParsesOrRejects) {
  for (const std::string& valid : valid_trace_corpus(11)) {
    // Every truncation point (stepped, plus all boundaries near the end).
    for (std::size_t len = 0; len < valid.size(); len += 7) {
      expect_parses_or_rejects(valid.substr(0, len), "truncation");
    }
    for (std::size_t back = 1; back <= 16 && back <= valid.size(); ++back) {
      expect_parses_or_rejects(valid.substr(0, valid.size() - back),
                               "tail truncation");
    }
  }
}

TEST(TraceFuzz, ByteCorruptionCorpusParsesOrRejects) {
  for (const std::string& valid : valid_trace_corpus(12)) {
    const char kReplacements[] = {'x', '\n', ',', '-', '9', '\0', ' '};
    for (std::size_t pos = 0; pos < valid.size(); pos += 11) {
      for (const char replacement : kReplacements) {
        std::string mutated = valid;
        mutated[pos] = replacement;
        expect_parses_or_rejects(mutated, "byte corruption");
      }
    }
  }
}

TEST(TraceFuzz, StructuralCorruptionCorpusParsesOrRejects) {
  // Splice whole malformed lines into every line boundary of both the v1
  // and the v2 seed trace (v2-only records under the v1 header are part of
  // the corpus deliberately).
  const char* const kJunkLines[] = {
      "job,0,0,999999999999\n", "job,-1,-1,-1\n",      "color,0,4\n",
      "delta,7\n",              "# end\n",             "job\n",
      "color,99999,1\n",        ",,,,\n",              "\xff\xfe\n",
      "dcold,0,2\n",            "dcold,0,0\n",         "dwarm,0,0,-1\n",
      "dwarm,0,99,1\n",         "color,0,4,1,2\n",
  };
  for (const std::string& valid : valid_trace_corpus(13)) {
    std::vector<std::size_t> boundaries = {0};
    for (std::size_t i = 0; i < valid.size(); ++i) {
      if (valid[i] == '\n') boundaries.push_back(i + 1);
    }
    for (const std::size_t at : boundaries) {
      for (const char* const junk : kJunkLines) {
        std::string mutated = valid;
        mutated.insert(at, junk);
        expect_parses_or_rejects(mutated, "junk line");
      }
    }
    // Line deletions: drop each line in turn.
    for (std::size_t i = 0; i + 1 < boundaries.size(); ++i) {
      std::string mutated = valid;
      mutated.erase(boundaries[i], boundaries[i + 1] - boundaries[i]);
      expect_parses_or_rejects(mutated, "line deletion");
    }
  }
}

// --- snapshot-reader corpus fuzzing ----------------------------------------

/// read_snapshots' contract off the happy path mirrors read_trace's: any
/// input either parses into internally consistent snapshots or throws a
/// structured InputError — never an InvariantError, never a crash, never
/// silently absorbed garbage.
void expect_snapshot_parses_or_rejects(const std::string& text,
                                       const char* label) {
  std::istringstream in(text);
  try {
    const std::vector<Snapshot> parsed = read_snapshots(in);
    for (const Snapshot& s : parsed) {
      // Parsed snapshots re-serialize byte-identically: the parser only
      // accepts what the writer emits.
      EXPECT_EQ(parse_snapshot_line(to_json_line(s)), s) << label;
    }
  } catch (const InputError&) {
    // structured rejection: the expected outcome for malformed input
  }
  // anything else escapes and fails the test
}

TEST(SnapshotFuzz, RoundTripIsExact) {
  const std::string valid = testing::golden_snapshot_stream();
  std::istringstream in(valid);
  const std::vector<Snapshot> parsed = read_snapshots(in);
  ASSERT_GE(parsed.size(), 3u);
  std::ostringstream rewritten;
  write_snapshots(rewritten, parsed);
  EXPECT_EQ(rewritten.str(), valid);
}

TEST(SnapshotFuzz, TruncationCorpusParsesOrRejects) {
  const std::string valid = testing::golden_snapshot_stream();
  for (std::size_t len = 0; len < valid.size(); len += 7) {
    expect_snapshot_parses_or_rejects(valid.substr(0, len), "truncation");
  }
  for (std::size_t back = 1; back <= 16 && back <= valid.size(); ++back) {
    expect_snapshot_parses_or_rejects(valid.substr(0, valid.size() - back),
                                      "tail truncation");
  }
}

TEST(SnapshotFuzz, ByteCorruptionCorpusParsesOrRejects) {
  const std::string valid = testing::golden_snapshot_stream();
  const char kReplacements[] = {'x', '\n', ',', '-', '9', '\0', ' ', '"'};
  for (std::size_t pos = 0; pos < valid.size(); pos += 5) {
    for (const char replacement : kReplacements) {
      std::string mutated = valid;
      mutated[pos] = replacement;
      expect_snapshot_parses_or_rejects(mutated, "byte corruption");
    }
  }
}

TEST(SnapshotFuzz, JunkLineCorpusParsesOrRejects) {
  const std::string valid = testing::golden_snapshot_stream();
  const char* const kJunkLines[] = {
      "{\"round\":0}\n",
      "{}\n",
      "null\n",
      "{\"round\":-5,\"arrived\":0,\"executed\":0}\n",
      "[1,2,3]\n",
      "\xff\xfe\n",
      "{\"round\":99999999999999999999999999}\n",
  };
  std::vector<std::size_t> boundaries = {0};
  for (std::size_t i = 0; i < valid.size(); ++i) {
    if (valid[i] == '\n') boundaries.push_back(i + 1);
  }
  for (const std::size_t at : boundaries) {
    for (const char* const junk : kJunkLines) {
      std::string mutated = valid;
      mutated.insert(at, junk);
      expect_snapshot_parses_or_rejects(mutated, "junk line");
    }
  }
}

TEST(SnapshotFuzz, RejectsNonFiniteNumbers) {
  const std::string valid = testing::golden_snapshot_stream();
  const std::string first_line = valid.substr(0, valid.find('\n'));
  const std::size_t at = first_line.find("\"mean_wait\":");
  ASSERT_NE(at, std::string::npos);
  const std::size_t value_at = at + std::string("\"mean_wait\":").size();
  const std::size_t value_end = first_line.find(',', value_at);
  for (const char* const bad : {"nan", "NaN", "inf", "Infinity", "-inf",
                                "1e999", "-1e999"}) {
    std::string mutated = first_line;
    mutated.replace(value_at, value_end - value_at, bad);
    EXPECT_THROW((void)parse_snapshot_line(mutated), InputError) << bad;
  }
}

TEST(SnapshotFuzz, RejectsInternallyInconsistentSnapshots) {
  // Syntactically perfect lines whose cross-field invariants are broken:
  // the reader must reject them rather than hand garbage to a merge.
  Snapshot s = [] {
    StreamStats stats;
    stats.begin(1);
    for (Round i = 0; i < 3; ++i) {
      // A unit job of color 0 (D = 4, drop cost 2) completing on arrival.
      ExecUnit unit;
      unit.round = unit.arrival = i;
      unit.deadline = i + 4;
      unit.weight = 2;
      stats.on_exec(unit);
    }
    stats.on_drop({0, 0, 2, 4});
    RunCounters counters;
    counters.arrived = 6;
    counters.executed = counters.work_units = 3;
    counters.cost.drops = 4;
    return make_snapshot(stats, counters, 40, 1);
  }();
  EXPECT_EQ(parse_snapshot_line(to_json_line(s)), s) << "baseline is valid";

  Snapshot more_executed = s;
  more_executed.executed += 1;  // disagrees with wait/slack counts
  EXPECT_THROW((void)parse_snapshot_line(to_json_line(more_executed)),
               InputError);

  Snapshot negative = s;
  negative.drop_count = -2;
  EXPECT_THROW((void)parse_snapshot_line(to_json_line(negative)),
               InputError);

  Snapshot overdropped = s;
  overdropped.drop_count = 100;  // exceeds arrived - executed
  EXPECT_THROW((void)parse_snapshot_line(to_json_line(overdropped)),
               InputError);

  Snapshot skewed_mean = s;
  skewed_mean.mean_wait += 0.5;  // disagrees with the wait histogram
  EXPECT_THROW((void)parse_snapshot_line(to_json_line(skewed_mean)),
               InputError);

  Snapshot starved_units = s;
  starved_units.work_units = 1;  // fewer units than completed service needs
  EXPECT_THROW((void)parse_snapshot_line(to_json_line(starved_units)),
               InputError);

  Snapshot phantom_weight = s;
  phantom_weight.completed_weight = 1;  // below one unit weight per job
  EXPECT_THROW((void)parse_snapshot_line(to_json_line(phantom_weight)),
               InputError);

  Snapshot phantom_evictions = s;
  phantom_evictions.churn_evictions = 3;  // more than churn_failures
  EXPECT_THROW((void)parse_snapshot_line(to_json_line(phantom_evictions)),
               InputError);
}

// --- malformed schedules ---------------------------------------------------

/// The corpus seed: a recorded dLRU-EDF run with lengths, weights and
/// churn with charged repairs, so every event list is non-empty.
struct RecordedRun {
  Instance instance;
  Schedule schedule;
};

RecordedRun faulted_recorded_run() {
  constexpr ColorId kColors = 6;
  constexpr Round kHorizon = 64;
  InstanceBuilder builder;
  builder.delta(3);
  for (ColorId c = 0; c < kColors; ++c) {
    builder.add_color(Round{4} << (c % 3), /*drop_cost=*/1 + c % 4,
                      /*length=*/1 + c % 3);
  }
  for (Round k = 0; k < kHorizon; ++k) {
    for (ColorId c = 0; c < kColors; ++c) {
      if (k % (Round{4} << (c % 3)) == 0 && (k + c) % 3 != 0) {
        builder.add_jobs(c, k, 1 + (k + c) % 4);
      }
    }
  }
  RecordedRun run{builder.build(), {}};
  MtbfParams mtbf;
  mtbf.num_resources = 4;
  mtbf.horizon = kHorizon;
  mtbf.mean_up = 16;
  mtbf.mean_down = 6;
  mtbf.seed = 3;
  const FaultPlan plan = make_mtbf_plan(mtbf);
  EngineOptions options;
  const auto policy = make_stream_policy("dlru-edf", options);
  options.num_resources = 4;
  options.fault_plan = &plan;
  options.charge_repair = true;
  run.schedule = run_policy(run.instance, *policy, options).schedule;
  return run;
}

/// Every post-hoc consumer on a mutated schedule: validate() reports
/// errors or accepts it at the cost Schedule::cost replays; cost, metrics
/// and timeline return or throw a typed error.  Anything else — another
/// exception, or a read out of range under the sanitizers — fails.
/// Returns true when validate() rejected the mutation.
bool consumers_reject_or_accept(const Instance& inst, const Schedule& s,
                                const std::string& what) {
  const ValidationResult check = validate(inst, s);
  if (check.ok) {
    EXPECT_EQ(s.cost(inst), check.cost) << what;
  }
  const auto typed = [&what](const auto& call) {
    try {
      call();
    } catch (const InputError&) {
    } catch (const InvariantError&) {
    } catch (const std::exception& e) {
      ADD_FAILURE() << what << ": untyped error " << e.what();
    }
  };
  typed([&] { (void)s.cost(inst); });
  typed([&] { (void)compute_metrics(inst, s); });
  typed([&] { (void)compute_timeline(inst, s, 8); });
  return !check.ok;
}

/// Replacement values for one integer field: just outside each bound, at
/// each bound, a neighbor, and far outside.
std::vector<std::int64_t> field_values(std::int64_t value,
                                       std::int64_t bound) {
  return {-1, bound, bound - 1, value + 1, value - 1,
          std::int64_t{1} << 40};
}

TEST(ScheduleFuzz, SingleFieldMutationsRejectOrReplay) {
  const RecordedRun run = faulted_recorded_run();
  const Instance& inst = run.instance;
  const Schedule& base = run.schedule;
  ASSERT_TRUE(validate(inst, base).ok);
  ASSERT_FALSE(base.churn.empty());
  ASSERT_FALSE(base.reconfigs.empty());
  const auto jobs = static_cast<std::int64_t>(inst.jobs().size());
  int mutations = 0, rejected = 0;
  const auto attempt = [&](const Schedule& s, const std::string& what) {
    ++mutations;
    if (consumers_reject_or_accept(inst, s, what)) ++rejected;
  };
  for (std::size_t i = 0; i < base.reconfigs.size(); ++i) {
    const ReconfigEvent& e = base.reconfigs[i];
    for (const std::int64_t v : field_values(e.round, inst.horizon())) {
      Schedule s = base;
      s.reconfigs[i].round = v;
      attempt(s, "reconfig " + std::to_string(i) + " round");
    }
    for (const std::int64_t v : field_values(e.resource, base.num_resources)) {
      Schedule s = base;
      s.reconfigs[i].resource = static_cast<std::int32_t>(v);
      attempt(s, "reconfig " + std::to_string(i) + " resource");
    }
    for (const std::int64_t v : field_values(e.mini, base.speed)) {
      Schedule s = base;
      s.reconfigs[i].mini = static_cast<std::int32_t>(v);
      attempt(s, "reconfig " + std::to_string(i) + " mini");
    }
    for (const std::int64_t v : field_values(e.color, inst.num_colors())) {
      Schedule s = base;
      s.reconfigs[i].color = static_cast<ColorId>(v);
      attempt(s, "reconfig " + std::to_string(i) + " color");
    }
  }
  for (std::size_t i = 0; i < base.execs.size(); i += 3) {
    const ExecEvent& e = base.execs[i];
    for (const std::int64_t v : field_values(e.job, jobs)) {
      Schedule s = base;
      s.execs[i].job = v;
      attempt(s, "exec " + std::to_string(i) + " job");
    }
    for (const std::int64_t v : field_values(e.round, inst.horizon())) {
      Schedule s = base;
      s.execs[i].round = v;
      attempt(s, "exec " + std::to_string(i) + " round");
    }
    for (const std::int64_t v : field_values(e.resource, base.num_resources)) {
      Schedule s = base;
      s.execs[i].resource = static_cast<std::int32_t>(v);
      attempt(s, "exec " + std::to_string(i) + " resource");
    }
    for (const std::int64_t v : field_values(e.mini, base.speed)) {
      Schedule s = base;
      s.execs[i].mini = static_cast<std::int32_t>(v);
      attempt(s, "exec " + std::to_string(i) + " mini");
    }
  }
  for (std::size_t i = 0; i < base.churn.size(); ++i) {
    for (const std::int64_t v :
         field_values(base.churn[i].resource, base.num_resources)) {
      Schedule s = base;
      s.churn[i].resource = static_cast<std::int32_t>(v);
      attempt(s, "churn " + std::to_string(i) + " location");
    }
  }
  // Most single-field changes must be caught; a few (a neighbor color no
  // one executes, a job swapped for a twin) are legitimately valid.
  EXPECT_GT(rejected, mutations * 3 / 4)
      << rejected << " of " << mutations << " mutations rejected";
}

TEST(ScheduleFuzz, SwappedEventsRejectOrReplay) {
  const RecordedRun run = faulted_recorded_run();
  const Instance& inst = run.instance;
  const Schedule& base = run.schedule;
  int rejected = 0;
  const auto swaps = [&](auto member, const char* kind) {
    const std::size_t size = (base.*member).size();
    for (std::size_t i = 0; i + 1 < size; ++i) {
      for (const std::size_t j : {i + 1, size - 1}) {
        if (j == i) continue;
        Schedule s = base;
        std::swap((s.*member)[i], (s.*member)[j]);
        if (consumers_reject_or_accept(
                inst, s,
                std::string(kind) + " swap " + std::to_string(i) + "/" +
                    std::to_string(j))) {
          ++rejected;
        }
      }
    }
  };
  swaps(&Schedule::reconfigs, "reconfig");
  swaps(&Schedule::execs, "exec");
  swaps(&Schedule::churn, "churn");
  EXPECT_GT(rejected, 0);
}

// --- checkpoint corpus fuzzing ---------------------------------------------

/// Engine::restore's contract off the happy path: any byte stream either
/// restores (bit-identically, by construction of the writer) or throws a
/// structured InputError — never an InvariantError, never a crash, never
/// a half-applied engine.  The corpus seed is a real mid-run checkpoint
/// with the source cursor embedded.
std::string valid_checkpoint_bytes() {
  PoissonParams params;
  params.horizon = 64;
  params.seed = 9;
  PoissonSource source(params);
  EngineOptions options;
  const auto policy = make_stream_policy("dlru-edf", options);
  options.num_resources = 8;
  options.record_schedule = false;
  options.drain_pending = true;
  Engine engine(source, *policy, options);
  engine.run_rounds(source, 32);
  std::ostringstream out;
  engine.checkpoint(out, &source);
  return out.str();
}

/// Attempts to restore `bytes` onto a fresh engine.  Returns true when the
/// restore was accepted; throws anything other than InputError through to
/// the test.
bool restore_attempt(const std::string& bytes) {
  PoissonParams params;
  params.horizon = 64;
  params.seed = 9;
  PoissonSource source(params);
  EngineOptions options;
  const auto policy = make_stream_policy("dlru-edf", options);
  options.num_resources = 8;
  options.record_schedule = false;
  options.drain_pending = true;
  Engine engine(source, *policy, options);
  std::istringstream in(bytes);
  try {
    engine.restore(in, &source);
  } catch (const InputError&) {
    return false;
  }
  EXPECT_EQ(engine.round(), 32) << "accepted stream must be the real one";
  return true;
}

TEST(CheckpointFuzz, EveryTruncationRejects) {
  const std::string valid = valid_checkpoint_bytes();
  ASSERT_TRUE(restore_attempt(valid)) << "corpus seed must restore";
  // Stepped prefixes plus every boundary near the end: the length prefix,
  // CRC, and trailer check make every strict prefix detectable.
  for (std::size_t len = 0; len < valid.size(); len += 7) {
    EXPECT_FALSE(restore_attempt(valid.substr(0, len))) << "len " << len;
  }
  for (std::size_t back = 1; back <= 64 && back <= valid.size(); ++back) {
    EXPECT_FALSE(restore_attempt(valid.substr(0, valid.size() - back)))
        << "tail truncation " << back;
  }
}

TEST(CheckpointFuzz, ByteFlipsRejectOrRestoreExactly) {
  const std::string valid = valid_checkpoint_bytes();
  const unsigned char kMasks[] = {0x01, 0x5a, 0x80, 0xff};
  for (std::size_t pos = 0; pos < valid.size(); pos += 3) {
    for (const unsigned char mask : kMasks) {
      std::string mutated = valid;
      mutated[pos] = static_cast<char>(
          static_cast<unsigned char>(mutated[pos]) ^ mask);
      if (pos >= 12 && pos < 16) {
        // Minor-version bytes: readers accept any minor (additive
        // compatibility), so either outcome is legal — but an accepted
        // stream still restores the exact engine (checked inside).
        (void)restore_attempt(mutated);
      } else {
        // Everything else is covered by the magic, major, length, CRC, or
        // trailer checks and must be rejected.
        EXPECT_FALSE(restore_attempt(mutated))
            << "pos " << pos << " mask " << static_cast<int>(mask);
      }
    }
  }
}

TEST(CheckpointFuzz, MajorVersionMismatchRejects) {
  const std::string valid = valid_checkpoint_bytes();
  for (const std::uint32_t major : {kCheckpointMajor - 1,
                                    kCheckpointMajor + 1}) {
    std::string mutated = valid;
    for (int i = 0; i < 4; ++i) {
      mutated[8 + static_cast<std::size_t>(i)] =
          static_cast<char>((major >> (8 * i)) & 0xff);
    }
    EXPECT_FALSE(restore_attempt(mutated)) << "major " << major;
  }
}

TEST(CheckpointFuzz, NewerMinorVersionIsAccepted) {
  // Additive version policy: a stream stamped with a newer minor (as a
  // future writer that appended tail fields would emit) restores on
  // today's reader.
  std::string mutated = valid_checkpoint_bytes();
  const std::uint32_t minor = kCheckpointMinor + 7;
  for (int i = 0; i < 4; ++i) {
    mutated[12 + static_cast<std::size_t>(i)] =
        static_cast<char>((minor >> (8 * i)) & 0xff);
  }
  EXPECT_TRUE(restore_attempt(mutated));
}

TEST(CheckpointFuzz, CrcAndTrailerCorruptionRejects) {
  const std::string valid = valid_checkpoint_bytes();
  ASSERT_GT(valid.size(), 36u);
  for (const std::size_t pos :
       {std::size_t{24}, std::size_t{25}, std::size_t{26}, std::size_t{27},
        valid.size() - 8, valid.size() - 1}) {
    std::string mutated = valid;
    mutated[pos] = static_cast<char>(
        static_cast<unsigned char>(mutated[pos]) ^ 0xff);
    EXPECT_FALSE(restore_attempt(mutated)) << "pos " << pos;
  }
}

TEST(CheckpointFuzz, AdaptiveSplitOutsideItsRangeRejects) {
  // The CRC rejects flipped bytes before any section is parsed, so a
  // well-framed section with a bad LRU split is built by hand: a begun
  // dLRU-EDF's shared fields, the split, then the four window fields.
  PoissonParams params;
  params.horizon = 64;
  params.seed = 9;
  const PoissonSource source(params);
  const auto restore = [&source](double split) {
    DLruEdfPolicy shared;
    shared.begin(source, 8, 1);
    CheckpointWriter w;
    w.begin_section(1);
    shared.checkpoint_state(w);
    w.f64(split);
    for (int i = 0; i < 4; ++i) w.i64(0);
    w.end_section();
    std::stringstream bytes;
    w.finish(bytes);
    CheckpointReader r(bytes);
    r.open_section(1);
    AdaptiveSplitPolicy adaptive;
    adaptive.begin(source, 8, 1);
    adaptive.restore_state(r);
  };
  EXPECT_NO_THROW(restore(0.5));
  for (const double bad : {std::nan(""), -1.0, 7.5, 0.95,
                           std::numeric_limits<double>::infinity()}) {
    EXPECT_THROW(restore(bad), InputError) << "split " << bad;
  }
}

TEST(CheckpointFuzz, GeneratorCursorsAndPeekedJobsMustKeepThePullContract) {
  // A well-framed generator section built by hand from a fresh source's
  // fields: the cursors, the peeked round's jobs, then the per-color RNG
  // streams.  One good peek restores and serves its jobs; seven states no
  // run of the pull contract reaches must be rejected on restore.
  RandomBatchedParams params;
  params.num_colors = 4;
  const RandomBatchedSource fresh(params);
  struct Cursors {
    Round next_round = 5, served = 2, peek = 4;
    JobId next_id = 10;
  };
  const auto restore = [&](const Cursors& c, const std::vector<Job>& jobs) {
    CheckpointWriter w;
    w.begin_section(1);
    w.str("generator");
    const auto colors = static_cast<std::uint64_t>(fresh.num_colors());
    for (const std::int64_t v : {fresh.delta(), fresh.horizon(),
                                 static_cast<std::int64_t>(colors)}) {
      w.i64(v);
    }
    w.boolean(false);  // not a restricted view
    w.u64(0);
    for (const std::int64_t v : {c.next_round, c.served, c.peek, c.next_id}) {
      w.i64(v);
    }
    w.u64(jobs.size());
    for (const Job& j : jobs) {
      for (const std::int64_t v : {j.id, std::int64_t{j.color}, j.arrival,
                                   j.delay_bound, j.drop_cost, j.length}) {
        w.i64(v);
      }
    }
    w.u64(colors);  // one RNG stream of four words per color
    for (std::uint64_t word = 1; word <= 4 * colors; ++word) w.u64(word);
    w.end_section();
    std::stringstream bytes;
    w.finish(bytes);
    CheckpointReader r(bytes);
    r.open_section(1);
    auto source = std::make_unique<RandomBatchedSource>(params);
    source->restore(r);
    return source;
  };
  std::vector<Job> peeked(2, Job{8, 1, 4, fresh.delay_bound(1),
                                 fresh.drop_cost(1), fresh.length(1)});
  peeked[1].id = 9;
  const auto restored = restore(Cursors{}, peeked);
  EXPECT_TRUE(restored->arrivals_in_round(3).empty());
  EXPECT_EQ(restored->arrivals_in_round(4).size(), 2u);

  using Jobs = std::vector<Job>;
  const auto rejects = [&](const char* label, auto edit) {
    Cursors c;
    Jobs jobs = peeked;
    edit(c, jobs);
    EXPECT_THROW((void)restore(c, jobs), InputError) << label;
  };
  rejects("zero length", [](Cursors&, Jobs& j) { j[1].length = 0; });
  rejects("delay bound", [](Cursors&, Jobs& j) { j[0].delay_bound *= 2; });
  rejects("arrival", [](Cursors&, Jobs& j) { j[0].arrival = 3; });
  rejects("drop cost", [](Cursors&, Jobs& j) { j[1].drop_cost = -1; });
  rejects("peek past cursor", [](Cursors& c, Jobs&) { c.peek = 5; });
  rejects("negative cursor", [](Cursors& c, Jobs&) { c.served = -7; });
  rejects("served >= next_round", [](Cursors& c, Jobs& j) {
    c = {5, 5, -1, 10};
    j.clear();
  });
}

TEST(CheckpointFuzz, TrackerDeadlinesMustEndTheCheckpointRoundsBlock) {
  // A well-framed tracker section built by hand: the phase round, then
  // each color's state.  A checkpoint is written
  // between rounds, after every block boundary up to the phase round, so
  // each color deadline ends the block holding that round.  Restore must
  // reject any other deadline: a stale one would stop the first EDF query
  // with an InvariantError, which recovery cannot skip.
  InstanceBuilder builder;
  builder.delta(1);
  builder.add_color(4);  // eligible: its block [4, 8) ends at 8
  builder.add_color(2);  // ineligible: its block [4, 6) ends at 6
  builder.add_jobs(0, 4, 1);
  const Instance instance = builder.build();
  const MaterializedSource source(instance);
  const auto restore = [&source](Round now, Round dd0, Round dd1) {
    CheckpointWriter w;
    w.begin_section(1);
    w.i64(now);
    w.i64(2);  // colors
    const struct {
      Round dd, last_wrap;
      bool eligible;
    } colors[] = {{dd0, 4, true}, {dd1, -1, false}};
    for (const auto& c : colors) {
      for (const std::int64_t v : {Round{0}, c.dd, c.last_wrap, Round{0}}) {
        w.i64(v);  // cnt, dd, last_wrap, timestamp
      }
      w.boolean(c.eligible);
    }
    w.end_section();
    std::stringstream bytes;
    w.finish(bytes);
    CheckpointReader r(bytes);
    r.open_section(1);
    auto tracker = std::make_unique<EligibilityTracker>();
    tracker->begin(source);
    tracker->restore_checkpoint(r);
    return tracker;
  };
  PendingJobs pending;
  pending.reset(2);
  const auto none = [](ColorId) { return false; };
  for (const Round now : {4, 5, 7}) {
    const auto restored = restore(now, 8, floor_multiple(now, 2) + 2);
    EXPECT_TRUE(restored->eligible(0));
    EXPECT_NO_THROW((void)restored->edf_top(2, pending, none)) << now;
  }
  // Before any phase every deadline still holds its start-of-time value.
  EXPECT_NO_THROW((void)restore(-1, 0, 0));
  EXPECT_THROW((void)restore(5, 5, 6), InputError) << "stale eligible";
  EXPECT_THROW((void)restore(5, 12, 6), InputError) << "a block too far";
  EXPECT_THROW((void)restore(5, 8, 4), InputError) << "stale ineligible";
  EXPECT_THROW((void)restore(8, 8, 10), InputError) << "boundary not applied";
}

/// Restores a hand-built cache section onto a 4-location, replication-2
/// cache sized for three colors: the geometry, each location's physical
/// color, the down flags, the free stack, then one cached slot.  `cached`
/// holds locations 0 and 1; free location 2 still holds `stale`.
std::unique_ptr<CacheAssignment> restore_cache(ColorId cached, ColorId stale) {
  CheckpointWriter w;
  w.begin_section(1);
  w.i64(4);  // locations
  w.i64(2);  // replication
  for (const ColorId c : {cached, cached, stale, kBlack}) w.i64(c);
  for (int loc = 0; loc < 4; ++loc) w.boolean(false);  // none down
  w.u64(2);  // free stack
  w.i64(3);
  w.i64(2);
  w.u64(1);  // cached slots
  w.i64(cached);
  w.i64(0);
  w.i64(1);
  w.end_section();
  std::stringstream bytes;
  w.finish(bytes);
  CheckpointReader r(bytes);
  r.open_section(1);
  auto cache = std::make_unique<CacheAssignment>(4, 2);
  cache->ensure_colors(3);
  cache->restore_checkpoint(r);
  return cache;
}

// A color at or above the cache's color count would let the next round
// read per-color tables past their end.
TEST(CheckpointFuzz, CachedColorOutsideTheColorSpaceRejects) {
  EXPECT_TRUE(restore_cache(2, 1)->contains(2));
  EXPECT_THROW((void)restore_cache(5, 1), InputError);
}

TEST(CheckpointFuzz, PhysicalColorOutsideTheColorSpaceRejects) {
  EXPECT_EQ(restore_cache(0, 2)->color_at(2), 2);
  EXPECT_THROW((void)restore_cache(0, 4), InputError);
}

/// Restores a hand-built pending section: the sweep cursor, the color
/// count, then each color's jobs — one job of color 0 (D = 4, unit
/// length) due at `deadline` with `remaining` units left, none of color 1
/// (D = 8).
std::unique_ptr<PendingJobs> restore_pending(Round cursor, Round deadline,
                                             Round remaining = 1) {
  const std::vector<Round> delays = {4, 8};
  const std::vector<Round> lengths = {1, 1};
  CheckpointWriter w;
  w.begin_section(1);
  w.i64(cursor);
  w.i64(2);  // colors
  w.u64(1);
  for (const std::int64_t v : {JobId{0}, deadline, remaining}) {
    w.i64(v);  // id, deadline, remaining units
  }
  w.u64(0);
  w.end_section();
  std::stringstream bytes;
  w.finish(bytes);
  CheckpointReader r(bytes);
  r.open_section(1);
  auto pending = std::make_unique<PendingJobs>();
  pending->reset(2);
  pending->restore_checkpoint(r, delays, lengths);
  return pending;
}

// Checkpoints follow a round's drop phase: a pending job arrived at or
// before the cursor and is due after it, so within the cursor + D_c.
TEST(CheckpointFuzz, PendingDeadlinePastCursorPlusDelayRejects) {
  EXPECT_EQ(restore_pending(99, 103)->earliest_deadline(0), 103);
  EXPECT_THROW((void)restore_pending(99, 104), InputError);
}

TEST(CheckpointFuzz, PendingDeadlineAtTheCursorRejects) {
  EXPECT_EQ(restore_pending(99, 100)->count(0), 1);
  EXPECT_THROW((void)restore_pending(99, 99), InputError);
}

// A job never has more units left than its color's length: a unit-length
// color cannot hold a job with 3 units to go.
TEST(CheckpointFuzz, PendingJobLongerThanItsColorRejects) {
  EXPECT_EQ(restore_pending(99, 101, 1)->earliest_remaining(0), 1);
  try {
    (void)restore_pending(99, 101, 3);
    ADD_FAILURE() << "a 3-unit job of a unit-length color restored";
  } catch (const InputError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("job 0 of color 0"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace rrs
