// E9 — engineering: simulator throughput (google-benchmark).
//
// Not a paper claim; measures the substrate so users can size experiments:
// engine rounds/second and jobs/second for dLRU-EDF across color counts
// and resource counts, generator and validator throughput, the exact
// offline DP's cost on a tiny instance (to document its scaling wall), and
// ns/op cells for the hot-path layers.  End-to-end throughput is measured
// by the repository benchmark in perfbench/.
//
// After the google-benchmark cells, three A/B ratio gates run inside the
// process: fast-forward on vs off on two sparse streams, observer on vs
// off, and K = 4 vs K = 1 shard-native engines.  The binary exits 1 when a
// gate is breached.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <iomanip>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"

#include "algs/registry.h"
#include "core/cache.h"
#include "core/color_state.h"
#include "core/cost_model.h"
#include "core/engine.h"
#include "core/pending.h"
#include "core/validator.h"
#include "obs/observer.h"
#include "offline/optimal.h"
#include "sim/runner.h"
#include "util/stopwatch.h"
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

/// One round's tracker inputs: the cache the drop phase consults and the
/// round's arrivals.
struct TrackerRound {
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
      tracker.drop_phase(k, cache);
      const std::span<const Job> arrivals = source.arrivals_in_round(k);
      pending.add(arrivals);
      tracker.arrival_phase(k, arrivals);
      if (record != nullptr) {
        record->push_back({cache, {arrivals.begin(), arrivals.end()}});
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
      tracker.drop_phase(k, round.cache);
      tracker.arrival_phase(k, round.arrivals);
    }
    benchmark::DoNotOptimize(tracker.eligible(0));
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
// Ratio gates.  Each gate is an A/B comparison inside this process: both
// sides run in every pair, pairs alternate which side runs first, and the
// gate checks the median of the per-pair time ratios against a threshold
// set from measured medians (EXPERIMENTS.md E9).  Within a pair a side
// repeats its run until it has taken at least kMinSideSeconds, and the
// ratio compares seconds per run, so a side that got fast still times
// about 0.1 s or more.  A breach, or a pair whose sides disagree on what
// they must share, fails the binary.
// ---------------------------------------------------------------------------

constexpr int kGatePairs = 7;
constexpr double kMinSideSeconds = 0.1;

/// Runs `side` until its runs took kMinSideSeconds; returns the last run
/// with `seconds` set to the mean per run.
StreamRunRecord repeat_side(const std::function<StreamRunRecord()>& side) {
  double total = 0.0;
  int repeats = 0;
  StreamRunRecord record;
  while (total < kMinSideSeconds) {
    record = side();
    total += record.seconds;
    ++repeats;
  }
  record.seconds = total / repeats;
  return record;
}

/// Runs every side once per pair, in order on even pairs and in reverse on
/// odd ones; returns runs[pair][side].
std::vector<std::vector<StreamRunRecord>> run_pairs(
    const std::vector<std::function<StreamRunRecord()>>& sides) {
  std::vector<std::vector<StreamRunRecord>> runs(
      kGatePairs, std::vector<StreamRunRecord>(sides.size()));
  for (std::size_t pair = 0; pair < runs.size(); ++pair) {
    for (std::size_t i = 0; i < sides.size(); ++i) {
      const std::size_t side = pair % 2 == 0 ? i : sides.size() - 1 - i;
      runs[pair][side] = repeat_side(sides[side]);
    }
  }
  return runs;
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

/// Per-pair ratios seconds(slow side) / seconds(fast side), with a printable
/// summary: their median and range, and each side's median time per run.
struct PairRatio {
  double median = 0.0;
  std::string summary;
};

std::string fixed(double value, const char* unit) {
  std::ostringstream out;
  out << std::fixed << std::setprecision(2) << value << unit;
  return out.str();
}

PairRatio time_ratio(const std::vector<std::vector<StreamRunRecord>>& runs,
                     std::size_t slow, std::size_t fast) {
  std::vector<double> ratios;
  std::vector<double> slow_seconds;
  std::vector<double> fast_seconds;
  for (const std::vector<StreamRunRecord>& pair : runs) {
    ratios.push_back(pair[slow].seconds / pair[fast].seconds);
    slow_seconds.push_back(pair[slow].seconds);
    fast_seconds.push_back(pair[fast].seconds);
  }
  const auto [lo, hi] = std::minmax_element(ratios.begin(), ratios.end());
  std::string summary = fixed(median(ratios), "x") + " (pairs " +
                        fixed(*lo, "x") + "-" + fixed(*hi, "x") + "; " +
                        fixed(1e3 * median(slow_seconds), " ms") + " vs " +
                        fixed(1e3 * median(fast_seconds), " ms") +
                        " per run)";
  return {median(ratios), std::move(summary)};
}

/// True when both sides of every pair produced the same totals and stats.
bool same_results(const std::vector<std::vector<StreamRunRecord>>& runs) {
  return std::all_of(runs.begin(), runs.end(), [](const auto& pair) {
    return static_cast<const RunCounters&>(pair[0]) == pair[1] &&
           pair[0].stats == pair[1].stats;
  });
}

// Gate 1: fast-forward on vs off on two trickle streams that are almost
// always empty.  poisson-sparse: about one arrival per 250 rounds across
// 8 colors, delay bounds 64-128 so block starts are far apart.  flash-gap:
// a trickle floor with one dense spike mid-run.  Each gate also prints the
// share of rounds the fast-forward run visits (a round the engine runs
// rather than skips), counted in one more run.
constexpr Round kFastForwardRounds = 1'000'000;
constexpr double kPoissonSparseFloor = 3.8;
constexpr double kFlashGapFloor = 20.1;

std::unique_ptr<ArrivalSource> poisson_sparse() {
  PoissonParams params;
  params.seed = 99;
  params.num_colors = 8;
  params.min_delay = 64;
  params.max_delay = 128;
  params.mean_rate = 0.0005;
  params.horizon = kInfiniteHorizon;
  return std::make_unique<PoissonSource>(params);
}

std::unique_ptr<ArrivalSource> flash_gap() {
  FlashCrowdParams params;
  params.seed = 99;
  params.base_rate = 0.0005;
  params.spike_factor = 4000.0;
  params.spike_start = kFastForwardRounds / 2;
  params.spike_end = kFastForwardRounds / 2 + 1024;
  params.background_colors = 3;
  params.background_rate = 0.0002;
  params.background_delay = 64;
  params.horizon = kInfiniteHorizon;
  return std::make_unique<FlashCrowdSource>(params);
}

/// Op: one round of next_event_round()'s scan over a trickle source, with
/// no engine.  Each iteration scans at most 4096 rounds ahead and pulls the
/// round the scan reports, as the engine's fast-forward does; the cell
/// reports time per round scanned.
void BM_OpTrickleScan(benchmark::State& state,
                      std::unique_ptr<ArrivalSource> (*make)()) {
  constexpr Round kWindow = 4096;
  const std::unique_ptr<ArrivalSource> source = make();
  Round k = 0;
  for (auto _ : state) {
    const Round next = source->next_event_round(k, k + kWindow);
    if (next < k + kWindow) {
      benchmark::DoNotOptimize(source->arrivals_in_round(next).data());
      k = next + 1;
    } else {
      k = next;
    }
  }
  const double rounds_per_iteration =
      static_cast<double>(k) / static_cast<double>(state.iterations());
  report_time_per_op(state, rounds_per_iteration);
}
BENCHMARK_CAPTURE(BM_OpTrickleScan, poisson_sparse, poisson_sparse);
BENCHMARK_CAPTURE(BM_OpTrickleScan, flash_gap, flash_gap);

/// Rounds the engine ran, counted at their ends.
struct VisitCounter final : RunSink {
  std::int64_t visited = 0;
  void on_round_end(const RoundEnd&) override { ++visited; }
};

/// The share of rounds a fast-forward run of dLRU-EDF visits, on the
/// engine options run_streaming uses.
double visited_fraction(std::unique_ptr<ArrivalSource> (*make)()) {
  const std::unique_ptr<ArrivalSource> source = make();
  EngineOptions options;
  options.num_resources = 8;
  options.record_schedule = false;
  options.max_rounds = kFastForwardRounds;
  options.drain_pending = true;
  const std::unique_ptr<Policy> policy =
      make_stream_policy("dlru-edf", options);
  Engine engine(*source, *policy, options);
  VisitCounter counter;
  engine.attach(counter);
  engine.run_rounds(*source, engine.arrival_end());
  const EngineResult result = engine.finish();
  return static_cast<double>(counter.visited) /
         static_cast<double>(result.rounds);
}

bool fast_forward_gate(const std::string& family,
                       std::unique_ptr<ArrivalSource> (*make)(),
                       double floor) {
  const auto run = [make](bool fast_forward) {
    const std::unique_ptr<ArrivalSource> source = make();
    return run_streaming(*source, "dlru-edf", 8, kFastForwardRounds, nullptr,
                         false, nullptr, fast_forward);
  };
  const auto runs = run_pairs({[run] { return run(false); },
                               [run] { return run(true); }});
  const PairRatio speedup = time_ratio(runs, 0, 1);
  std::cout << "  " << family << ": fast-forward off/on "
            << speedup.summary << "; visits "
            << fixed(100.0 * visited_fraction(make), "%") << " of rounds\n";
  return bench::verdict(
      same_results(runs) && speedup.median >= floor,
      family + ": equal totals, fast-forward speedup >= " + fixed(floor, "x"));
}

// Gate 2: observer on (phase timers, eight periodic snapshots) vs off on
// the dense-serial source at n = 8.
constexpr Round kObserverRounds = 250'000;
constexpr double kObserverCeiling = 2.1;

StreamRunRecord dense_serial(Observer* observer) {
  RandomBatchedSource source(dense_serial_params());
  return run_streaming(source, "dlru-edf", 8, kObserverRounds, nullptr,
                       false, observer);
}

StreamRunRecord observed_dense_serial() {
  ObsConfig config;
  config.timers = true;
  config.snapshot_every = kObserverRounds / 8;
  Observer observer(config);
  return dense_serial(&observer);
}

bool observer_gate() {
  const auto runs = run_pairs(
      {observed_dense_serial, [] { return dense_serial(nullptr); }});
  const PairRatio slowdown = time_ratio(runs, 0, 1);
  std::cout << "  dense-serial n=8: observer on/off " << slowdown.summary
            << "\n";
  return bench::verdict(
      same_results(runs) && slowdown.median <= kObserverCeiling,
      "observer: equal totals, slowdown <= " + fixed(kObserverCeiling, "x"));
}

// Gate 3: K = 4 vs K = 1 shard-native engines on the dense-serial source
// at n = 16 (granularity 4, so four shardable blocks).  K = 2 is measured
// alongside and not gated.
constexpr Round kShardRounds = 400'000;
constexpr double kShardFloor = 1.6;

StreamRunRecord sharded(int shards) {
  RandomBatchedSource source(dense_serial_params());
  return run_streaming_sharded(source, "dlru-edf", 16, shards, kShardRounds)
      .merged;
}

bool shard_gate() {
  const std::size_t workers = global_pool().size();
  if (workers < 4) {
    std::cout << "  [SKIP] K = 4 vs K = 1 shard gate: " << workers
              << " pool worker(s), needs 4\n";
    return true;
  }
  const auto runs = run_pairs(
      {[] { return sharded(1); }, [] { return sharded(2); },
       [] { return sharded(4); }});
  const bool same_arrivals =
      std::all_of(runs.begin(), runs.end(), [](const auto& pair) {
        return pair[0].arrived == pair[1].arrived &&
               pair[0].arrived == pair[2].arrived;
      });
  const PairRatio k2 = time_ratio(runs, 0, 1);
  const PairRatio k4 = time_ratio(runs, 0, 2);
  std::cout << "  dense-serial n=16: K=2 vs K=1 " << k2.summary
            << " (not gated)\n"
            << "  dense-serial n=16: K=4 vs K=1 " << k4.summary << "\n";
  return bench::verdict(
      same_arrivals && k4.median >= kShardFloor,
      "shards: equal arrivals, K=4 speedup >= " + fixed(kShardFloor, "x"));
}

bool run_ratio_gates() {
  bench::banner("E9-gates", "A/B ratio gates, median of " +
                                std::to_string(kGatePairs) +
                                " alternating pairs each");
  Stopwatch watch;
  bool ok = fast_forward_gate("poisson-sparse", poisson_sparse,
                              kPoissonSparseFloor);
  ok = fast_forward_gate("flash-gap", flash_gap, kFlashGapFloor) && ok;
  ok = observer_gate() && ok;
  ok = shard_gate() && ok;
  std::cout << "  gates took " << watch.seconds() << " s\n";
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return run_ratio_gates() ? 0 : 1;
}
