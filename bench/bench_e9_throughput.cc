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
#include "core/validator.h"
#include "obs/observer.h"
#include "offline/optimal.h"
#include "sim/runner.h"
#include "sim/sweep.h"
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
/// RRS_STREAMING_ROUNDS so smoke runs stay fast.
Round streaming_rounds() {
  const char* env = std::getenv("RRS_STREAMING_ROUNDS");
  if (env != nullptr && *env != '\0') {
    const long long parsed = std::atoll(env);
    if (parsed > 0) return static_cast<Round>(parsed);
  }
  return 10'000'000;
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
/// Returns false if any cell fell short of the requested rounds.
bool run_streaming_section() {
  const Round rounds = streaming_rounds();
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
  std::cout << "(json: " << path << ")\n";

  return bench::verdict(ok, "streaming engine sustained " +
                                std::to_string(rounds) +
                                " rounds per source with bounded pending");
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return run_streaming_section() ? 0 : 1;
}
