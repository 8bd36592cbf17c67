// E9 — engineering: simulator throughput (google-benchmark).
//
// Not a paper claim; measures the substrate so users can size experiments:
// engine rounds/second and jobs/second for dLRU-EDF across color counts
// and resource counts, generator and validator throughput, and the exact
// offline DP's cost on a tiny instance (to document its scaling wall).
//
// After the google-benchmark section, a streaming configuration sweeps
// dLRU-EDF over 10M-round lazy sources (no materialization; override the
// round count with RRS_STREAMING_ROUNDS), then sweeps the sharded runner
// over shard counts 1/2/4/#workers, and emits a BENCH_streaming.json
// baseline with per-configuration rounds/sec and peak RSS.  Compare two
// such files with scripts/bench_diff.py.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <utility>
#include <vector>
#include <sys/resource.h>

#include "bench_common.h"

#include "algs/registry.h"
#include "core/cache.h"
#include "core/color_state.h"
#include "core/cost_model.h"
#include "core/pending.h"
#include "core/validator.h"
#include "obs/observer.h"
#include "offline/optimal.h"
#include "sim/runner.h"
#include "sim/sweep.h"
#include "util/check.h"
#include "util/env.h"
#include "util/thread_pool.h"
#include "workload/flash_crowd.h"
#include "workload/poisson.h"
#include "workload/random_batched.h"

namespace {

using namespace rrs;

Instance bench_instance(int colors, Round horizon,
                        std::uint64_t seed = 99) {
  RandomBatchedParams params;
  params.seed = seed;
  params.delta = 8;
  params.num_colors = colors;
  params.min_scale = 2;
  params.max_scale = 6;
  params.horizon = horizon;
  return make_random_batched(params);
}

void BM_DLruEdfEngine(benchmark::State& state) {
  const int colors = static_cast<int>(state.range(0));
  const int n = static_cast<int>(state.range(1));
  const Instance inst = bench_instance(colors, 4096);
  for (auto _ : state) {
    EngineOptions options;
    const auto policy = make_stream_policy("dlru-edf", options);
    options.num_resources = n;
    options.record_schedule = false;
    benchmark::DoNotOptimize(run_policy(inst, *policy, options));
  }
  state.counters["rounds/s"] = benchmark::Counter(
      static_cast<double>(inst.horizon()), benchmark::Counter::kIsRate);
  state.counters["jobs/s"] = benchmark::Counter(
      static_cast<double>(inst.jobs().size()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_DLruEdfEngine)
    ->Args({8, 8})
    ->Args({32, 8})
    ->Args({128, 8})
    ->Args({32, 4})
    ->Args({32, 16})
    ->Args({32, 64});

void BM_VarBatchPipeline(benchmark::State& state) {
  const Instance inst = bench_instance(static_cast<int>(state.range(0)),
                                       2048);
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_algorithm(inst, "varbatch", 8));
  }
  state.counters["jobs/s"] = benchmark::Counter(
      static_cast<double>(inst.jobs().size()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_VarBatchPipeline)->Arg(8)->Arg(32);

void BM_Generator(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        bench_instance(32, static_cast<Round>(state.range(0))));
  }
}
BENCHMARK(BM_Generator)->Arg(1024)->Arg(8192);

void BM_Validator(benchmark::State& state) {
  const Instance inst = bench_instance(32, 2048);
  Schedule schedule;
  (void)run_algorithm(inst, "dlru-edf", 8, &schedule);
  for (auto _ : state) {
    benchmark::DoNotOptimize(validate(inst, schedule));
  }
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(schedule.execs.size() + schedule.reconfigs.size()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Validator);

void BM_ExactOfflineDp(benchmark::State& state) {
  RandomBatchedParams params;
  params.seed = 1;
  params.delta = 2;
  params.num_colors = static_cast<int>(state.range(0));
  params.min_scale = 1;
  params.max_scale = 3;
  params.horizon = 16;
  const Instance inst = make_random_batched(params);
  for (auto _ : state) {
    benchmark::DoNotOptimize(optimal_offline_cost(inst, 1));
  }
}
BENCHMARK(BM_ExactOfflineDp)->Arg(2)->Arg(3)->Arg(4);

// ---------------------------------------------------------------------------
// ns/op cells: one hot-path operation each, on inputs shaped like
// perfbench's dense-serial workload (32 colors, D in {4..64}, activity 0.7,
// Delta 8, n = 8), so a speed change can be credited to one layer.  Each
// cell reports "time/op" (printed as e.g. 12.3ns) for the operation its
// comment names.
// ---------------------------------------------------------------------------

RandomBatchedParams dense_serial_params() {
  RandomBatchedParams params;
  params.seed = 99;
  params.delta = 8;
  params.num_colors = 32;
  params.min_scale = 2;
  params.max_scale = 6;
  params.activity = 0.7;
  params.horizon = kInfiniteHorizon;
  return params;
}

void report_time_per_op(benchmark::State& state, double ops_per_iteration) {
  state.counters["time/op"] = benchmark::Counter(
      ops_per_iteration, benchmark::Counter::kIsIterationInvariantRate |
                             benchmark::Counter::kInvert);
}

/// Op: synthesizing one round of the dense-serial source.
void BM_OpSynthesizeRound(benchmark::State& state) {
  RandomBatchedSource source(dense_serial_params());
  Round k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(source.arrivals_in_round(k++).data());
  }
  report_time_per_op(state, 1);
}
BENCHMARK(BM_OpSynthesizeRound);

constexpr Round kOpRounds = 1024;

/// The dense-serial source's first kOpRounds rounds, replayed block after
/// block into one pending store.  Each block's arrivals are shifted past
/// the previous block's deadlines, so the store, its calendar ring and its
/// bucket buffers are reused as in a long run.
class PendingReplay {
 public:
  PendingReplay() {
    RandomBatchedSource source(dense_serial_params());
    for (Round k = 0; k < kOpRounds; ++k) {
      const std::span<const Job> jobs = source.arrivals_in_round(k);
      rounds_.emplace_back(jobs.begin(), jobs.end());
      jobs_ += static_cast<std::int64_t>(jobs.size());
    }
    pending_.reset(32);
  }

  /// Empties the store and moves the recorded arrivals to the next block.
  void next_block() {
    pending_.drop_expired(last_deadline(), dropped_);
    for (std::vector<Job>& jobs : rounds_) {
      for (Job& job : jobs) job.arrival += kStride;
    }
    first_round_ += kStride;
  }
  void add_block() {
    for (const std::vector<Job>& jobs : rounds_) pending_.add(jobs);
  }
  void sweep_block() {
    for (Round k = first_round_; k <= last_deadline(); ++k) {
      pending_.drop_expired(k, dropped_);
    }
  }
  [[nodiscard]] Round sweeps() const { return kStride; }
  [[nodiscard]] std::int64_t jobs() const { return jobs_; }
  [[nodiscard]] PendingJobs& pending() { return pending_; }

 private:
  static constexpr Round kStride = kOpRounds + 64;  // past every deadline
  [[nodiscard]] Round last_deadline() const {
    return first_round_ + kStride - 1;
  }

  std::vector<std::vector<Job>> rounds_;
  std::int64_t jobs_ = 0;
  Round first_round_ = 0;
  PendingJobs pending_;
  PendingJobs::DropResult dropped_;
};

/// Op: adding one round's arrivals to the pending store (one call).
void BM_OpPendingAddBatch(benchmark::State& state) {
  PendingReplay replay;
  for (auto _ : state) {
    state.PauseTiming();
    replay.next_block();
    state.ResumeTiming();
    replay.add_block();
  }
  report_time_per_op(state, static_cast<double>(kOpRounds));
}
BENCHMARK(BM_OpPendingAddBatch);

/// Op: one round's expiry sweep, every recorded job expiring.
void BM_OpPendingDropExpired(benchmark::State& state) {
  PendingReplay replay;
  for (auto _ : state) {
    state.PauseTiming();
    replay.next_block();
    replay.add_block();
    state.ResumeTiming();
    replay.sweep_block();
  }
  report_time_per_op(state, static_cast<double>(replay.sweeps()));
}
BENCHMARK(BM_OpPendingDropExpired);

/// Op: one execution unit, applied until every recorded job completes.
void BM_OpPendingExecuteEarliest(benchmark::State& state) {
  PendingReplay replay;
  PendingJobs& pending = replay.pending();
  for (auto _ : state) {
    state.PauseTiming();
    replay.next_block();
    replay.add_block();
    state.ResumeTiming();
    for (ColorId c = 0; c < 32; ++c) {
      while (!pending.idle(c)) {
        benchmark::DoNotOptimize(pending.execute_earliest(c));
      }
    }
  }
  report_time_per_op(state, static_cast<double>(replay.jobs()));
}
BENCHMARK(BM_OpPendingExecuteEarliest);

/// One round's tracker inputs: the drop sweep, the cache the drop phase
/// consults and the round's arrivals.
struct TrackerRound {
  PendingJobs::DropResult dropped;
  CacheAssignment cache;
  std::vector<Job> arrivals;
};

/// A tracker, pending store and cache driven through `rounds` rounds of
/// the dense-serial source, caching the top n/2 colors by recency each
/// round and executing one unit per location: the state a ranked policy
/// queries.  `record`, when given, receives every round's tracker inputs.
struct DenseRankState {
  explicit DenseRankState(Round rounds,
                          std::vector<TrackerRound>* record = nullptr)
      : source(dense_serial_params()), cache(8, 2) {
    cache.ensure_colors(source.num_colors());
    pending.reset(source.num_colors());
    tracker.begin(source);
    PendingJobs::DropResult dropped;
    for (Round k = 0; k < rounds; ++k) {
      pending.drop_expired(k, dropped);
      tracker.drop_phase(k, dropped, cache);
      const std::span<const Job> arrivals = source.arrivals_in_round(k);
      pending.add(arrivals);
      tracker.arrival_phase(k, arrivals);
      if (record != nullptr) {
        record->push_back({dropped, cache, {arrivals.begin(), arrivals.end()}});
      }
      const std::vector<ColorId>& target =
          tracker.lru_order(static_cast<std::size_t>(cache.max_distinct()));
      cache.begin_phase();
      const std::vector<ColorId> cached = cache.cached_colors();
      for (const ColorId c : cached) {
        if (std::find(target.begin(), target.end(), c) == target.end()) {
          cache.erase(c);
        }
      }
      for (const ColorId c : target) {
        if (!cache.contains(c)) cache.insert(c);
      }
      (void)cache.finish_phase();
      for (int r = 0; r < cache.num_resources(); ++r) {
        const ColorId c = cache.color_at(r);
        if (c != kBlack && !pending.idle(c)) {
          (void)pending.execute_earliest(c);
        }
      }
    }
  }

  RandomBatchedSource source;
  CacheAssignment cache;
  PendingJobs pending;
  EligibilityTracker tracker;
};

/// Op: one round's tracker phases (drop_phase + arrival_phase) at 32
/// colors, replaying kOpRounds recorded dense-serial rounds into a freshly
/// begun tracker.
void BM_OpTrackerRound(benchmark::State& state) {
  std::vector<TrackerRound> rounds;
  const DenseRankState s(kOpRounds, &rounds);
  EligibilityTracker tracker;
  for (auto _ : state) {
    state.PauseTiming();
    tracker.begin(s.source);
    state.ResumeTiming();
    for (Round k = 0; k < kOpRounds; ++k) {
      const TrackerRound& round = rounds[static_cast<std::size_t>(k)];
      tracker.drop_phase(k, round.dropped, round.cache);
      tracker.arrival_phase(k, round.arrivals);
    }
    benchmark::DoNotOptimize(tracker.num_epochs());
  }
  report_time_per_op(state, static_cast<double>(kOpRounds));
}
BENCHMARK(BM_OpTrackerRound);

/// Op: the top-k EDF walk at 32 colors, skipping the top two colors by
/// recency (dLRU-EDF's query at n = 8 for k = 2).
void BM_OpEdfTop(benchmark::State& state) {
  DenseRankState s(4096);
  const auto k = static_cast<std::size_t>(state.range(0));
  const std::vector<ColorId> lru = s.tracker.lru_order(2);
  const auto is_lru = [&lru](ColorId c) {
    return std::find(lru.begin(), lru.end(), c) != lru.end();
  };
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.tracker.edf_top(k, s.pending, is_lru).data());
  }
  report_time_per_op(state, 1);
}
BENCHMARK(BM_OpEdfTop)->Arg(2)->Arg(32);

/// Op: reading the first `max` colors of the recency list at 32 colors.
void BM_OpLruOrder(benchmark::State& state) {
  DenseRankState s(4096);
  const auto max = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.tracker.lru_order(max).data());
  }
  report_time_per_op(state, 1);
}
BENCHMARK(BM_OpLruOrder)->Arg(2)->Arg(32);

/// Op: one phase that evicts a cached color and inserts an uncached one
/// (n = 8, replication 2, 32 colors).
void BM_OpCacheInsertErase(benchmark::State& state) {
  CacheAssignment cache(8, 2);
  cache.ensure_colors(32);
  cache.begin_phase();
  for (ColorId c = 0; c < 4; ++c) cache.insert(c);
  (void)cache.finish_phase();
  ColorId next = 4;
  for (auto _ : state) {
    cache.begin_phase();
    cache.erase(cache.cached_colors()[static_cast<std::size_t>(next % 4)]);
    cache.insert(next);
    benchmark::DoNotOptimize(cache.finish_phase().data());
    next = (next + 1) % 32;
    while (cache.contains(next)) next = (next + 1) % 32;
  }
  report_time_per_op(state, 1);
}
BENCHMARK(BM_OpCacheInsertErase);

/// Op: one CostModel::reconfig_cost lookup in the scalar (0), vector (1)
/// or matrix (2) tier, over 32 colors.
void BM_OpReconfigCost(benchmark::State& state) {
  constexpr ColorId kColors = 32;
  CostModel model = CostModel::scalar(8, kColors);
  if (state.range(0) >= 1) {
    for (ColorId c = 0; c < kColors; ++c) model.set_cold_cost(c, 8 + c % 4);
  }
  if (state.range(0) >= 2) {
    for (ColorId c = 0; c < kColors; ++c) {
      model.set_transition_cost(c, (c + 1) % kColors, 2);
    }
  }
  Rng rng(7);
  std::vector<std::pair<ColorId, ColorId>> pairs;
  for (int i = 0; i < 1024; ++i) {
    pairs.emplace_back(static_cast<ColorId>(rng.uniform(-1, kColors - 1)),
                       static_cast<ColorId>(rng.uniform(0, kColors - 1)));
  }
  for (auto _ : state) {
    Cost total = 0;
    for (const auto& [from, to] : pairs) total += model.reconfig_cost(from, to);
    benchmark::DoNotOptimize(total);
  }
  report_time_per_op(state, static_cast<double>(pairs.size()));
}
BENCHMARK(BM_OpReconfigCost)->Arg(0)->Arg(1)->Arg(2);

// ---------------------------------------------------------------------------
// Streaming baseline: 10M rounds through the lazy-source engine path.
// ---------------------------------------------------------------------------

/// Peak resident set size of this process, in bytes (Linux: ru_maxrss is
/// reported in kilobytes).
std::int64_t peak_rss_bytes() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<std::int64_t>(usage.ru_maxrss) * 1024;
}

/// Round count for the streaming section: 10M by default, overridable via
/// RRS_STREAMING_ROUNDS so smoke runs stay fast.  A malformed value throws
/// InputError (see parse_positive_env).
Round streaming_rounds() {
  const std::int64_t rounds = parse_positive_env(
      "RRS_STREAMING_ROUNDS", std::getenv("RRS_STREAMING_ROUNDS"));
  return rounds > 0 ? rounds : 10'000'000;
}

/// The generalized-model smoke cell: random-batched arrival shapes with
/// per-color job lengths 1..3, drop weights 1..4, and a matrix Delta
/// (per-color cold prices plus a warm-discount ring) — every charging
/// path the scalar cells bypass (remaining-length lane, weighted drops,
/// Delta(from,to) lookups) runs hot here, so a fast-path-only
/// optimization that regresses the general model trips the same 30%
/// gate as the scalar families.
class GeneralizedBatchedSource final : public GeneratorSource {
 public:
  GeneralizedBatchedSource(Round horizon, std::uint64_t seed)
      : GeneratorSource(/*delta=*/8, horizon) {
    constexpr ColorId kColors = 32;
    for (ColorId c = 0; c < kColors; ++c) {
      add_color(/*delay=*/Round{4} << (c % 4), /*drop_cost=*/1 + (c % 4),
                /*length=*/1 + (c % 3));
      streams_.push_back(derive_rng(seed, static_cast<std::uint64_t>(c)));
    }
    model_.set_delta(8);
    model_.resize(kColors);
    for (ColorId c = 0; c < kColors; ++c) {
      model_.set_drop_cost(c, drop_cost(c));
      model_.set_length(c, length(c));
      model_.set_cold_cost(c, 8 + (c % 4));
      model_.set_transition_cost(c, (c + 1) % kColors, 2);
    }
  }

  [[nodiscard]] const CostModel& cost_model() const override {
    return model_;
  }

 private:
  void synthesize(Round k) override {
    for (ColorId c = 0; c < num_colors(); ++c) {
      const Round delay = delay_bound(c);
      if (k % delay != 0) continue;
      Rng& stream = streams_[static_cast<std::size_t>(c)];
      if (!stream.bernoulli(0.7)) continue;
      emit(c, k, stream.uniform(1, delay));
    }
  }

  std::vector<Rng> streams_;
  CostModel model_;
};

struct StreamingCell {
  std::string family;
  StreamRunRecord record;
  /// Arrival rounds this cell was asked to stream (its `record.rounds` may
  /// exceed this while draining).
  Round arrival_rounds = 0;
  /// Shard count for run_streaming_sharded rows; 0 for plain streaming.
  int shards = 0;
  /// Per-phase wall-clock attribution (name, seconds) for observer-on
  /// cells; empty otherwise.  Lets a regression be pinned to one phase.
  std::vector<std::pair<std::string, double>> phase_seconds;
};

void append_json_record(std::string& json, const StreamingCell& cell) {
  const double rounds_per_sec =
      cell.record.seconds > 0
          ? static_cast<double>(cell.record.rounds) / cell.record.seconds
          : 0.0;
  const double jobs_per_sec =
      cell.record.seconds > 0
          ? static_cast<double>(cell.record.arrived) / cell.record.seconds
          : 0.0;
  json += "    {\n";
  json += "      \"family\": \"" + cell.family + "\",\n";
  json += "      \"algorithm\": \"" + cell.record.algorithm + "\",\n";
  json += "      \"n\": " + std::to_string(cell.record.n) + ",\n";
  if (cell.shards > 0) {
    json += "      \"shards\": " + std::to_string(cell.shards) + ",\n";
  }
  json += "      \"arrival_rounds\": " + std::to_string(cell.arrival_rounds) +
          ",\n";
  json += "      \"rounds\": " + std::to_string(cell.record.rounds) + ",\n";
  json += "      \"arrived\": " + std::to_string(cell.record.arrived) + ",\n";
  json += "      \"executed\": " + std::to_string(cell.record.executed) + ",\n";
  json += "      \"drops\": " + std::to_string(cell.record.cost.drops) + ",\n";
  json += "      \"reconfig_events\": " +
          std::to_string(cell.record.cost.reconfig_events) + ",\n";
  json += "      \"total_cost\": " + std::to_string(cell.record.cost.total()) +
          ",\n";
  json += "      \"peak_pending\": " +
          std::to_string(cell.record.peak_pending) + ",\n";
  if (!cell.phase_seconds.empty()) {
    json += "      \"phase_seconds\": {";
    for (std::size_t i = 0; i < cell.phase_seconds.size(); ++i) {
      if (i > 0) json += ", ";
      json += "\"" + cell.phase_seconds[i].first +
              "\": " + std::to_string(cell.phase_seconds[i].second);
    }
    json += "},\n";
  }
  json += "      \"seconds\": " + std::to_string(cell.record.seconds) + ",\n";
  json += "      \"rounds_per_sec\": " + std::to_string(rounds_per_sec) +
          ",\n";
  json += "      \"jobs_per_sec\": " + std::to_string(jobs_per_sec) + "\n";
  json += "    }";
}

/// Sweeps dLRU-EDF over infinite-horizon lazy sources for `rounds` rounds
/// each, prints throughput + peak RSS, and writes BENCH_streaming.json.
/// Returns false if any cell fell short of the requested rounds or the
/// JSON file could not be written.
bool run_streaming_section(Round rounds) {
  bench::banner("E9-streaming",
                "lazy sources sustain " + std::to_string(rounds) +
                    "-round runs in O(pending + colors) memory");

  std::vector<std::function<StreamRunRecord()>> cells;
  cells.emplace_back([rounds] {
    RandomBatchedParams params;
    params.seed = 99;
    params.num_colors = 32;
    params.horizon = kInfiniteHorizon;
    RandomBatchedSource source(params);
    return run_streaming(source, "dlru-edf", 8, rounds);
  });
  cells.emplace_back([rounds] {
    PoissonParams params;
    params.seed = 99;
    params.num_colors = 32;
    params.horizon = kInfiniteHorizon;
    PoissonSource source(params);
    return run_streaming(source, "dlru-edf", 8, rounds);
  });
  cells.emplace_back([rounds] {
    GeneralizedBatchedSource source(kInfiniteHorizon, 99);
    return run_streaming(source, "dlru-edf", 8, rounds);
  });
  const std::vector<StreamRunRecord> records = run_streaming_sweep(cells);
  std::vector<StreamingCell> named;
  named.push_back({"random-batched", records[0], rounds, 0, {}});
  named.push_back({"poisson", records[1], rounds, 0, {}});
  named.push_back({"generalized-lengths-matrix", records[2], rounds, 0, {}});

  // Observer-on cell: the same random-batched config with phase timers and
  // periodic snapshots attached.  Its per-phase seconds land in the JSON so
  // an observer-path regression is attributable to one engine phase, and
  // comparing its rounds/sec against plain "random-batched" above bounds
  // the observability overhead directly.
  {
    RandomBatchedParams params;
    params.seed = 99;
    params.num_colors = 32;
    params.horizon = kInfiniteHorizon;
    RandomBatchedSource source(params);
    ObsConfig obs_config;
    obs_config.timers = true;
    obs_config.snapshot_every = std::max<Round>(1, rounds / 8);
    Observer observer(obs_config);
    StreamingCell cell;
    cell.family = "random-batched-obs";
    cell.record = run_streaming(source, "dlru-edf", 8, rounds, nullptr,
                                false, &observer);
    cell.arrival_rounds = rounds;
    for (int p = 0; p < PhaseTimers::kNumPhases; ++p) {
      const auto phase = static_cast<EnginePhase>(p);
      cell.phase_seconds.emplace_back(PhaseTimers::phase_name(phase),
                                      observer.timers.seconds(phase));
    }
    named.push_back(std::move(cell));
  }

  // Shard-count scaling sweep: the same random-batched dLRU-EDF config at
  // n = 16 (granularity 4 => four shardable blocks) through the sharded
  // runner for K in {1, 2, 4, #workers}.
  const int workers = static_cast<int>(global_pool().size());
  std::vector<int> shard_counts = {1, 2, 4, std::clamp(workers, 1, 4)};
  std::sort(shard_counts.begin(), shard_counts.end());
  shard_counts.erase(std::unique(shard_counts.begin(), shard_counts.end()),
                     shard_counts.end());
  std::cout << "  shard sweep: " << workers << " pool worker(s), "
            << rounds << " rounds per K\n";
  const std::size_t first_shard_cell = named.size();
  for (const int k : shard_counts) {
    RandomBatchedParams params;
    params.seed = 99;
    params.num_colors = 32;
    params.horizon = kInfiniteHorizon;
    RandomBatchedSource source(params);
    ShardedRunRecord sharded =
        run_streaming_sharded(source, "dlru-edf", 16, k, rounds);
    StreamingCell cell;
    cell.family = "random-batched-shards" + std::to_string(k);
    cell.record = std::move(sharded.merged);
    cell.arrival_rounds = rounds;
    cell.shards = k;
    named.push_back(std::move(cell));
  }

  // K = 8 needs eight granularity-4 blocks, so it runs at its own budget
  // n = 32: the wide-fleet scaling cell.  Same source config and round
  // count, so its arrived count joins the agreement check below.
  {
    RandomBatchedParams params;
    params.seed = 99;
    params.num_colors = 32;
    params.horizon = kInfiniteHorizon;
    RandomBatchedSource source(params);
    ShardedRunRecord sharded =
        run_streaming_sharded(source, "dlru-edf", 32, 8, rounds);
    StreamingCell cell;
    cell.family = "random-batched-shards8";
    cell.record = std::move(sharded.merged);
    cell.arrival_rounds = rounds;
    cell.shards = 8;
    named.push_back(std::move(cell));
  }

  // Sparse cells: the fast-forward gate.  Both streams are almost always
  // empty — a trickle Poisson (about one arrival per 250 rounds across
  // all colors, delay bounds 64/128 so deadline-block boundaries are far
  // apart) and a flash crowd whose floor is a trickle with one dense
  // mid-run spike.  Each config runs twice, engine fast-forward on
  // (default) and off: identical streams, so the totals must agree bit
  // for bit, and the off/on wall-clock ratio measures the sparse-round
  // optimization directly (>= 1.5x once the sequential run is long
  // enough to time reliably).  The -noff rows join the JSON and the
  // baseline gate, pinning the sequential path too.
  const std::size_t first_sparse_cell = named.size();
  bool ok = true;
  {
    struct SparseConfig {
      std::string family;
      std::function<StreamRunRecord(bool)> run;
    };
    const SparseConfig sparse_configs[] = {
        {"poisson-sparse",
         [rounds](bool fast_forward) {
           PoissonParams params;
           params.seed = 99;
           params.num_colors = 8;
           params.min_delay = 64;
           params.max_delay = 128;
           params.mean_rate = 0.0005;
           params.horizon = kInfiniteHorizon;
           PoissonSource source(params);
           return run_streaming(source, "dlru-edf", 8, rounds, nullptr,
                                false, nullptr, fast_forward);
         }},
        {"flash-gap",
         [rounds](bool fast_forward) {
           FlashCrowdParams params;
           params.seed = 99;
           params.base_rate = 0.0005;
           params.spike_factor = 4000.0;
           params.spike_start = rounds / 2;
           params.spike_end = rounds / 2 + std::min<Round>(1024, rounds / 8);
           params.background_colors = 3;
           params.background_rate = 0.0002;
           params.background_delay = 64;
           params.horizon = kInfiniteHorizon;
           FlashCrowdSource source(params);
           return run_streaming(source, "dlru-edf", 8, rounds, nullptr,
                                false, nullptr, fast_forward);
         }},
    };
    for (const SparseConfig& config : sparse_configs) {
      StreamingCell on;
      on.family = config.family;
      on.record = config.run(true);
      on.arrival_rounds = rounds;
      StreamingCell off;
      off.family = config.family + "-noff";
      off.record = config.run(false);
      off.arrival_rounds = rounds;
      const double speedup = on.record.seconds > 0
                                 ? off.record.seconds / on.record.seconds
                                 : 0.0;
      std::cout << "  " << config.family << ": fast-forward " << speedup
                << "x vs sequential (" << off.record.seconds << " s -> "
                << on.record.seconds << " s, " << on.record.arrived
                << " jobs)\n";
      ok = ok && on.record.cost.total() == off.record.cost.total() &&
           on.record.arrived == off.record.arrived &&
           on.record.executed == off.record.executed &&
           on.record.rounds == off.record.rounds;
      if (off.record.seconds >= 0.2 && speedup < 1.5) {
        std::cout << "    fast-forward speedup below the 1.5x floor\n";
        ok = false;
      }
      named.push_back(std::move(on));
      named.push_back(std::move(off));
    }
  }

  const std::int64_t rss = peak_rss_bytes();
  const double rss_mb = static_cast<double>(rss) / (1024.0 * 1024.0);

  for (const StreamingCell& cell : named) {
    const double rps =
        cell.record.seconds > 0
            ? static_cast<double>(cell.record.rounds) / cell.record.seconds
            : 0.0;
    std::cout << "  " << cell.family << ": " << cell.record.rounds
              << " rounds in " << cell.record.seconds << " s  ("
              << static_cast<std::int64_t>(rps) << " rounds/s, "
              << cell.record.arrived << " jobs, peak_pending "
              << cell.record.peak_pending << ")\n";
    if (!cell.phase_seconds.empty()) {
      std::cout << "    phases:";
      for (const auto& [phase, secs] : cell.phase_seconds) {
        std::cout << " " << phase << "=" << secs << "s";
      }
      std::cout << "\n";
    }
    ok = ok && cell.record.rounds >= cell.arrival_rounds;
    // Bounded memory: the engine never holds more than the live pending
    // set, which the drop phase caps at ~(max delay * arrival rate).
    ok = ok && cell.record.peak_pending < cell.record.arrived;
  }
  std::cout << "  peak RSS: " << rss_mb << " MiB\n";

  // Scaling summary: every K sees the identical arrival stream, so the
  // arrived counts must agree and speedups are directly comparable.
  const StreamingCell& one_shard = named[first_shard_cell];
  for (std::size_t i = first_shard_cell; i < first_sparse_cell; ++i) {
    const StreamingCell& cell = named[i];
    ok = ok && cell.record.arrived == one_shard.record.arrived;
    const double speedup = cell.record.seconds > 0
                               ? one_shard.record.seconds / cell.record.seconds
                               : 0.0;
    std::cout << "  shards=" << cell.shards << ": " << speedup
              << "x vs shards=1\n";
  }

  std::string json = "{\n";
  json += "  \"bench\": \"E9-streaming\",\n";
  json += "  \"algorithm\": \"dlru-edf\",\n";
  json += "  \"pool_workers\": " + std::to_string(workers) + ",\n";
  json += "  \"peak_rss_bytes\": " + std::to_string(rss) + ",\n";
  json += "  \"runs\": [\n";
  for (std::size_t i = 0; i < named.size(); ++i) {
    append_json_record(json, named[i]);
    json += i + 1 < named.size() ? ",\n" : "\n";
  }
  json += "  ]\n}\n";

  const char* dir = std::getenv("RRS_BENCH_CSV_DIR");
  const std::string path =
      (dir != nullptr && *dir != '\0' ? std::string(dir) + "/" : std::string())
          + "BENCH_streaming.json";
  std::ofstream out(path);
  out << json;
  out.close();
  if (!out) {
    std::cerr << "error: could not write " << path << "\n";
    return false;
  }
  std::cout << "(json: " << path << ")\n";

  return bench::verdict(ok, "streaming engine sustained " +
                                std::to_string(rounds) +
                                " rounds per source with bounded pending");
}

}  // namespace

int main(int argc, char** argv) {
  Round rounds = 0;
  try {
    rounds = streaming_rounds();  // before the cells: fail fast on a typo
  } catch (const InputError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return run_streaming_section(rounds) ? 0 : 1;
}
