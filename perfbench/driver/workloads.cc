#include "driver/workloads.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <sys/resource.h>

#include "core/fault_plan.h"
#include "core/shard_plan.h"
#include "core/validator.h"
#include "driver/timing.h"
#include "obs/observer.h"
#include "sim/service.h"
#include "util/check.h"
#include "util/thread_pool.h"
#include "workload/flash_crowd.h"
#include "workload/random_batched.h"
#include "workload/sharded_source.h"

namespace perfbench {

using rrs::Round;

namespace {

constexpr const char* kPolicy = "dlru-edf";  // the paper's algorithm

double cpu_seconds_now() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

/// Engine options exactly as run_streaming / run_service build them.
rrs::EngineOptions stream_options(int n, Round max_rounds) {
  rrs::EngineOptions options;
  options.num_resources = n;
  options.record_schedule = false;
  options.max_rounds = max_rounds;
  options.drain_pending = true;
  return options;
}

Sample sample_of(std::string kind, const rrs::StreamRunRecord& record,
                 double cpu_seconds) {
  Sample s;
  s.kind = std::move(kind);
  s.totals = totals_of(record);
  s.seconds = record.seconds;
  s.cpu_seconds = cpu_seconds;
  return s;
}

/// Runs `fn` (returning a StreamRunRecord) and samples it with its CPU time.
template <class Fn>
Sample measure(std::string kind, Fn&& fn) {
  const double cpu0 = cpu_seconds_now();
  const rrs::StreamRunRecord record = fn();
  return sample_of(std::move(kind), record, cpu_seconds_now() - cpu0);
}

void add_trace_fields(Sample& s, const TimingSource& source,
                      const TimingPolicy& policy, double wall_seconds) {
  const SourceCounters& src = source.counters();
  s.fields.emplace_back("wall_ns", wall_seconds * 1e9);
  s.fields.emplace_back("pulls", static_cast<double>(src.pulls));
  s.fields.emplace_back("pull_ns", static_cast<double>(src.pull_ns));
  s.fields.emplace_back("jobs", static_cast<double>(src.jobs));
  s.fields.emplace_back("scan_ns", static_cast<double>(src.scan_ns));
  s.fields.emplace_back("scanned_rounds",
                        static_cast<double>(src.scanned_rounds));
  s.fields.emplace_back("policy_calls",
                        static_cast<double>(policy.counters().calls));
  s.fields.emplace_back("policy_ns", static_cast<double>(policy.counters().ns));
}

/// One engine over wrapped `source` and a fresh wrapped policy, exactly as
/// run_policy drives it; the sample carries the trace fields.
Sample run_traced_engine(std::string kind, rrs::ArrivalSource& source,
                         rrs::EngineOptions options, LogHistogram& policy_ns) {
  const std::unique_ptr<rrs::Policy> inner =
      rrs::make_stream_policy(kPolicy, options);
  TimingSource timed_source(source);
  TimingPolicy timed_policy(*inner, policy_ns);
  const double cpu0 = cpu_seconds_now();
  const auto t0 = Clock::now();
  rrs::Engine engine(timed_source, timed_policy, options);
  engine.run_rounds(timed_source, engine.arrival_end());
  const rrs::EngineResult result = engine.finish();
  const double wall = static_cast<double>(ns_between(t0, Clock::now())) * 1e-9;
  Sample s;
  s.kind = std::move(kind);
  s.totals = totals_of(result);
  s.seconds = wall;
  s.cpu_seconds = cpu_seconds_now() - cpu0;
  add_trace_fields(s, timed_source, timed_policy, wall);
  s.fields.emplace_back("churn_events",
                        static_cast<double>(result.degraded.fault_events +
                                            result.degraded.repair_events));
  return s;
}

/// Independent check: materializes the first `rounds` rounds of `source`,
/// runs them with the schedule recorded, and replays the schedule through
/// validate(), which must accept it and re-derive the engine's cost.
Check validate_prefix(rrs::ArrivalSource& source, Round rounds, int n) {
  const rrs::Instance instance = rrs::materialize(source, rounds);
  rrs::EngineOptions options;
  options.num_resources = n;
  options.record_schedule = true;
  const std::unique_ptr<rrs::Policy> policy =
      rrs::make_stream_policy(kPolicy, options);
  const rrs::EngineResult result = rrs::run_policy(instance, *policy, options);
  const rrs::ValidationResult v = rrs::validate(instance, result.schedule);
  Check check{"prefix_validate", v.ok && v.cost == result.cost, ""};
  if (!check.ok) {
    std::ostringstream detail;
    for (const std::string& e : v.errors) detail << e << "; ";
    detail << "validator cost " << v.cost.total() << " vs engine "
           << result.cost.total();
    check.detail = detail.str();
  }
  return check;
}

template <class T>
std::vector<T> ordered(int cycle, std::vector<T> cells) {
  if (cycle % 2 != 0) std::reverse(cells.begin(), cells.end());
  return cells;
}

// ---------------------------------------------------------------------------
// dense-serial: E9's random-batched cell through run_streaming.
// ---------------------------------------------------------------------------

class DenseSerial final : public Workload {
 public:
  static constexpr Round kRounds = 1'000'000;
  static constexpr int kN = 8;
  static constexpr Round kPrefix = 50'000;

  static rrs::RandomBatchedParams params(std::uint64_t seed) {
    rrs::RandomBatchedParams p;
    p.delta = 8;
    p.num_colors = 32;
    p.min_scale = 2;  // D in {4 .. 64}
    p.max_scale = 6;
    p.activity = 0.7;
    p.horizon = rrs::kInfiniteHorizon;
    p.seed = seed;
    return p;
  }

  std::int64_t setup_once(std::uint64_t seed) override {
    const auto t0 = Clock::now();
    rrs::RandomBatchedSource source(params(seed));
    rrs::EngineOptions options = stream_options(kN, kRounds);
    const auto policy = rrs::make_stream_policy(kPolicy, options);
    const rrs::Engine engine(source, *policy, options);
    return ns_between(t0, Clock::now());
  }

  Sample run(std::uint64_t seed) override {
    rrs::RandomBatchedSource source(params(seed));
    return measure("run", [&] {
      return rrs::run_streaming(source, kPolicy, kN, kRounds);
    });
  }

  std::vector<Sample> trace_cycle(std::uint64_t seed, int cycle,
                                  LogHistogram& policy_ns) override {
    std::vector<Sample> out;
    for (const int cell : ordered(cycle, std::vector<int>{0, 1})) {
      if (cell == 0) {
        out.push_back(run(seed));
      } else {
        rrs::RandomBatchedSource source(params(seed));
        out.push_back(run_traced_engine("traced", source,
                                        stream_options(kN, kRounds),
                                        policy_ns));
      }
    }
    return out;
  }

  std::vector<Check> checks(std::uint64_t seed) override {
    rrs::RandomBatchedSource source(params(seed));
    return {validate_prefix(source, kPrefix, kN)};
  }
};

// ---------------------------------------------------------------------------
// matrix-sharded: the generalized source through run_streaming_sharded
// (demux fabric) under an MTBF fault plan with charged repairs.
// ---------------------------------------------------------------------------

class MatrixSharded final : public Workload {
 public:
  static constexpr Round kRounds = 1'000'000;
  static constexpr int kN = 16;
  static constexpr int kShards = 2;
  static constexpr Round kPrefix = 50'000;

  /// Two shard engines on the pool plus the demux thread.
  [[nodiscard]] bool single_threaded() const override { return false; }

  static rrs::FaultPlan faults(std::uint64_t seed) {
    rrs::MtbfParams p;
    p.num_resources = kN;
    p.horizon = kRounds;
    p.mean_up = 20'000;
    p.mean_down = 500;
    p.seed = seed ^ 0xfa017ULL;
    return rrs::make_mtbf_plan(p);
  }

  /// What run_streaming_sharded builds for the fabric path: the shard plan,
  /// the per-shard fault slices, the demux fabric (rings plus its running
  /// demux thread) and one policy and engine per shard stream.
  std::int64_t setup_once(std::uint64_t seed) override {
    const auto t0 = Clock::now();
    GeneralizedBatchedSource source(rrs::kInfiniteHorizon, seed);
    const rrs::FaultPlan plan = faults(seed);
    rrs::EngineOptions proto;
    const rrs::ShardPlan shards = rrs::make_shard_plan(
        source.num_colors(), kShards, kN,
        rrs::make_stream_policy(kPolicy, proto)
            ->resource_granularity(proto.replication));
    rrs::validate_fault_plan(plan, kN);
    const std::vector<rrs::FaultPlan> split =
        rrs::split_fault_plan(plan, shards.shard_resources);
    const rrs::ShardedRunOptions run_options;
    rrs::ShardedSourceOptions split_options;
    split_options.chunk_rounds = run_options.chunk_rounds;
    split_options.max_buffered_chunks = run_options.max_buffered_chunks;
    split_options.backpressure =
        rrs::global_pool().size() >= static_cast<std::size_t>(kShards);
    rrs::ShardedSource fabric(source, shards, kRounds, split_options);
    std::vector<std::unique_ptr<rrs::Policy>> policies;
    std::vector<std::unique_ptr<rrs::Engine>> engines;
    for (int s = 0; s < kShards; ++s) {
      rrs::EngineOptions options = stream_options(
          shards.shard_resources[static_cast<std::size_t>(s)], kRounds);
      options.fault_plan = &split[static_cast<std::size_t>(s)];
      options.charge_repair = true;
      policies.push_back(rrs::make_stream_policy(kPolicy, options));
      engines.push_back(std::make_unique<rrs::Engine>(
          fabric.stream(s), *policies.back(), options));
    }
    return ns_between(t0, Clock::now());
  }

  Sample run(std::uint64_t seed) override {
    GeneralizedBatchedSource source(rrs::kInfiniteHorizon, seed);
    return sharded("run", source, seed);
  }

  std::vector<Sample> trace_cycle(std::uint64_t seed, int cycle,
                                  LogHistogram& policy_ns) override {
    std::vector<Sample> out;
    for (const int cell : ordered(cycle, std::vector<int>{0, 1, 2})) {
      GeneralizedBatchedSource source(rrs::kInfiniteHorizon, seed);
      if (cell == 0) {
        out.push_back(sharded("run", source, seed));
      } else if (cell == 1) {
        // The demux thread is the only caller of the parent source, so the
        // wrapper times exactly the fabric's synthesis.
        TimingSource timed(source);
        Sample s = sharded("traced", timed, seed);
        s.fields.emplace_back("demux_pulls",
                              static_cast<double>(timed.counters().pulls));
        s.fields.emplace_back("demux_pull_ns",
                              static_cast<double>(timed.counters().pull_ns));
        out.push_back(std::move(s));
      } else {
        // The sharded runner builds its policies internally, so core and
        // algs are traced on the K = 1 twin of the same run.
        const rrs::FaultPlan plan = faults(seed);
        rrs::EngineOptions options = stream_options(kN, kRounds);
        options.fault_plan = &plan;
        options.charge_repair = true;
        out.push_back(
            run_traced_engine("serial_traced", source, options, policy_ns));
      }
    }
    if (cycle == 0) {
      GeneralizedBatchedSource source(rrs::kInfiniteHorizon, seed);
      const rrs::FaultPlan plan = faults(seed);
      out.push_back(measure("serial_run", [&] {
        return rrs::run_streaming(source, kPolicy, kN, kRounds, &plan,
                                  /*charge_repair=*/true);
      }));
    }
    return out;
  }

  std::vector<Check> checks(std::uint64_t seed) override {
    // The validator prices only policy-driven recolorings and cannot see
    // capacity churn, so the prefix runs fault-free.
    GeneralizedBatchedSource source(rrs::kInfiniteHorizon, seed);
    return {validate_prefix(source, kPrefix, kN)};
  }

 private:
  static Sample sharded(std::string kind, rrs::ArrivalSource& source,
                        std::uint64_t seed) {
    const rrs::FaultPlan plan = faults(seed);
    rrs::ShardedRunOptions options;
    options.fault_plan = &plan;
    options.charge_repair = true;
    const double cpu0 = cpu_seconds_now();
    const rrs::ShardedRunRecord record = rrs::run_streaming_sharded(
        source, kPolicy, kN, kShards, kRounds, options);
    Sample s = sample_of(std::move(kind), record.merged,
                         cpu_seconds_now() - cpu0);
    double max_shard = 0.0;
    double sum_shard = 0.0;
    for (const rrs::StreamRunRecord& shard : record.shards) {
      max_shard = std::max(max_shard, shard.seconds);
      sum_shard += shard.seconds;
    }
    const double mean_shard = sum_shard / static_cast<double>(kShards);
    s.fields.emplace_back("shard_imbalance",
                          mean_shard > 0 ? max_shard / mean_shard : 0.0);
    s.fields.emplace_back("fabric_chunks",
                          static_cast<double>(record.splitter_chunks_produced));
    std::int64_t peak = 0;
    for (const std::int64_t p : record.splitter_peak_chunks) {
      peak = std::max(peak, p);
    }
    s.fields.emplace_back("fabric_peak_chunks", static_cast<double>(peak));
    s.fields.emplace_back(
        "churn_events",
        static_cast<double>(record.merged.degraded.fault_events +
                            record.merged.degraded.repair_events));
    s.checks.push_back({"demux_fabric_path", !record.native_sources,
                        record.native_sources ? "ran shard-native" : ""});
    return s;
  }
};

// ---------------------------------------------------------------------------
// sparse-service: a trickle flash crowd through run_service with an
// observer (timers on) and snapshots and checkpoints at one cadence.
// ---------------------------------------------------------------------------

class SparseService final : public Workload {
 public:
  static constexpr Round kRounds = 8'000'000;
  static constexpr int kN = 8;
  static constexpr Round kCadence = kRounds / 64;
  static constexpr Round kSpikeStart = kRounds / 2;
  static constexpr Round kSpikeEnd = kSpikeStart + 4096;
  static constexpr int kKeep = 3;

  explicit SparseService(const std::filesystem::path& scratch)
      : service_dir_(scratch / "service-ckpt"),
        traced_dir_(scratch / "traced-ckpt") {}

  static rrs::FlashCrowdParams params(std::uint64_t seed) {
    rrs::FlashCrowdParams p;
    p.base_rate = 0.0005;
    p.spike_factor = 4000.0;
    p.spike_start = kSpikeStart;
    p.spike_end = kSpikeEnd;
    p.spike_delay = 8;
    p.background_colors = 3;
    p.background_rate = 0.0002;
    p.background_delay = 64;
    p.horizon = rrs::kInfiniteHorizon;
    p.seed = seed;
    return p;
  }

  static rrs::ObsConfig obs_config() {
    rrs::ObsConfig c;
    c.timers = true;
    c.snapshot_every = kCadence;
    return c;
  }

  std::int64_t setup_once(std::uint64_t seed) override {
    const auto t0 = Clock::now();
    rrs::FlashCrowdSource source(params(seed));
    rrs::Observer observer(obs_config());
    rrs::EngineOptions options = stream_options(kN, kRounds);
    options.observer = &observer;
    const auto policy = rrs::make_stream_policy(kPolicy, options);
    const rrs::Engine engine(source, *policy, options);
    std::filesystem::create_directories(service_dir_);
    return ns_between(t0, Clock::now());
  }

  Sample run(std::uint64_t seed) override {
    std::filesystem::remove_all(service_dir_);
    rrs::FlashCrowdSource source(params(seed));
    rrs::Observer observer(obs_config());
    rrs::ServiceOptions options;
    options.max_rounds = kRounds;
    options.checkpoint_every = kCadence;
    options.checkpoint_dir = service_dir_.string();
    options.checkpoint_keep = kKeep;
    options.observer = &observer;
    const double cpu0 = cpu_seconds_now();
    const rrs::ServiceResult result =
        rrs::run_service(source, kPolicy, kN, options);
    Sample s = sample_of("run", result.record, cpu_seconds_now() - cpu0);
    s.checks.push_back({"service_finished", result.finished, ""});
    double attributed = 0.0;
    for (int p = 0; p < rrs::PhaseTimers::kNumPhases; ++p) {
      const auto phase = static_cast<rrs::EnginePhase>(p);
      s.fields.emplace_back(
          std::string("phase_s.") + rrs::PhaseTimers::phase_name(phase),
          observer.timers.seconds(phase));
      attributed += observer.timers.seconds(phase);
    }
    s.fields.emplace_back("attributed_s", attributed);
    s.fields.emplace_back("snapshots",
                          static_cast<double>(observer.snapshots.size()));
    s.fields.emplace_back("checkpoints",
                          static_cast<double>(result.checkpoints_written));
    return s;
  }

  std::vector<Sample> trace_cycle(std::uint64_t seed, int cycle,
                                  LogHistogram& policy_ns) override {
    std::vector<Sample> out;
    for (const int cell : ordered(cycle, std::vector<int>{0, 1, 2, 3})) {
      switch (cell) {
        case 0:
          out.push_back(run(seed));
          break;
        case 1:
          out.push_back(traced(seed, policy_ns));
          break;
        default: {
          const bool on = cell == 3;
          rrs::FlashCrowdSource source(params(seed));
          rrs::Observer observer(obs_config());
          out.push_back(measure(on ? "obs_on" : "obs_off", [&] {
            return rrs::run_streaming(source, kPolicy, kN, kRounds, nullptr,
                                      false, on ? &observer : nullptr);
          }));
        }
      }
    }
    return out;
  }

  std::vector<Check> checks(std::uint64_t seed) override {
    // The prefix reaches past the spike, so it covers both regimes.
    rrs::FlashCrowdSource source(params(seed));
    return {validate_prefix(source, kSpikeEnd + 4096, kN)};
  }

 private:
  /// run_service's segment loop driven directly over wrapped source and
  /// policy, with Engine::checkpoint timed at the service cadence; then
  /// the last checkpoint is restored into a fresh engine and source, timed,
  /// and resumed to the end, which must reproduce the run's totals.
  Sample traced(std::uint64_t seed, LogHistogram& policy_ns) {
    std::filesystem::remove_all(traced_dir_);
    std::filesystem::create_directories(traced_dir_);
    rrs::FlashCrowdSource source(params(seed));
    rrs::Observer observer(obs_config());
    rrs::EngineOptions options = stream_options(kN, kRounds);
    options.observer = &observer;
    const std::unique_ptr<rrs::Policy> inner =
        rrs::make_stream_policy(kPolicy, options);
    TimingSource timed_source(source);
    TimingPolicy timed_policy(*inner, policy_ns);

    std::vector<double> ckpt_ms;
    std::vector<std::filesystem::path> kept;
    std::int64_t ckpt_ns = 0;
    const double cpu0 = cpu_seconds_now();
    const auto t0 = Clock::now();
    rrs::Engine engine(timed_source, timed_policy, options);
    const Round end = engine.arrival_end();
    while (engine.round() < end) {
      engine.run_rounds(timed_source,
                        std::min(end, (engine.round() / kCadence + 1) * kCadence));
      if (engine.round() >= end) break;
      const std::filesystem::path file =
          traced_dir_ / ("ckpt-" + std::to_string(engine.round()));
      const std::filesystem::path tmp = file.string() + ".tmp";
      const auto c0 = Clock::now();
      {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        RRS_REQUIRE(out.good(), "cannot write " << tmp.string());
        engine.checkpoint(out, &timed_source);
      }
      const std::int64_t ns = ns_between(c0, Clock::now());
      ckpt_ns += ns;
      ckpt_ms.push_back(static_cast<double>(ns) * 1e-6);
      std::filesystem::rename(tmp, file);
      kept.push_back(file);
      if (kept.size() > static_cast<std::size_t>(kKeep)) {
        std::filesystem::remove(kept.front());
        kept.erase(kept.begin());
      }
    }
    const rrs::EngineResult result = engine.finish();
    const double wall = static_cast<double>(ns_between(t0, Clock::now())) * 1e-9;

    Sample s;
    s.kind = "traced";
    s.totals = totals_of(result);
    s.seconds = wall;
    s.cpu_seconds = cpu_seconds_now() - cpu0;
    add_trace_fields(s, timed_source, timed_policy, wall);
    s.fields.emplace_back("ckpt_ns", static_cast<double>(ckpt_ns));
    s.fields.emplace_back("checkpoints", static_cast<double>(ckpt_ms.size()));
    std::vector<double> sorted = ckpt_ms;
    std::sort(sorted.begin(), sorted.end());
    s.fields.emplace_back("ckpt_ms_p50",
                          sorted.empty() ? 0.0 : sorted[sorted.size() / 2]);
    s.fields.emplace_back("ckpt_ms_max", sorted.empty() ? 0.0 : sorted.back());
    RRS_REQUIRE(!kept.empty(), "traced service run wrote no checkpoint");
    s.fields.emplace_back(
        "ckpt_kb",
        static_cast<double>(std::filesystem::file_size(kept.back())) / 1024.0);

    // Restore the newest checkpoint into a fresh engine and source.
    rrs::FlashCrowdSource fresh(params(seed));
    rrs::Observer fresh_observer(obs_config());
    rrs::EngineOptions fresh_options = stream_options(kN, kRounds);
    fresh_options.observer = &fresh_observer;
    const std::unique_ptr<rrs::Policy> fresh_policy =
        rrs::make_stream_policy(kPolicy, fresh_options);
    rrs::Engine resumed(fresh, *fresh_policy, fresh_options);
    std::ifstream in(kept.back(), std::ios::binary);
    const auto r0 = Clock::now();
    resumed.restore(in, &fresh);
    s.fields.emplace_back(
        "restore_ms", static_cast<double>(ns_between(r0, Clock::now())) * 1e-6);
    resumed.run_rounds(fresh, resumed.arrival_end());
    const Totals resumed_totals = totals_of(resumed.finish());
    s.checks.push_back({"resume_matches", resumed_totals == s.totals,
                        resumed_totals == s.totals
                            ? ""
                            : "restored run diverged from the traced run"});
    return s;
  }

  std::filesystem::path service_dir_;
  std::filesystem::path traced_dir_;
};

}  // namespace

Totals totals_of(const rrs::StreamRunRecord& record) {
  return {record.cost, record.arrived, record.executed, record.rounds,
          record.peak_pending};
}

Totals totals_of(const rrs::EngineResult& result) {
  return {result.cost, result.arrived, result.executed, result.rounds,
          result.peak_pending};
}

GeneralizedBatchedSource::GeneralizedBatchedSource(Round horizon,
                                                   std::uint64_t seed)
    : GeneratorSource(/*delta=*/8, horizon) {
  constexpr rrs::ColorId kColors = 32;
  for (rrs::ColorId c = 0; c < kColors; ++c) {
    add_color(/*delay=*/Round{4} << (c % 4), /*drop_cost=*/1 + (c % 4),
              /*length=*/1 + (c % 3));
    streams_.push_back(rrs::derive_rng(seed, static_cast<std::uint64_t>(c)));
  }
  model_.set_delta(8);
  model_.resize(kColors);
  for (rrs::ColorId c = 0; c < kColors; ++c) {
    model_.set_drop_cost(c, drop_cost(c));
    model_.set_length(c, length(c));
    model_.set_cold_cost(c, 8 + (c % 4));
    model_.set_transition_cost(c, (c + 1) % kColors, 2);
  }
}

void GeneralizedBatchedSource::synthesize(Round k) {
  for (rrs::ColorId c = 0; c < num_colors(); ++c) {
    const Round delay = delay_bound(c);
    if (k % delay != 0) continue;
    rrs::Rng& stream = streams_[static_cast<std::size_t>(c)];
    if (!stream.bernoulli(0.7)) continue;
    emit(c, k, stream.uniform(1, delay));
  }
}

std::unique_ptr<Workload> make_workload(std::string_view name,
                                        const std::filesystem::path& scratch) {
  if (name == "dense-serial") return std::make_unique<DenseSerial>();
  if (name == "matrix-sharded") return std::make_unique<MatrixSharded>();
  if (name == "sparse-service") return std::make_unique<SparseService>(scratch);
  RRS_REQUIRE(false, "unknown workload '" << name
                         << "' (dense-serial, matrix-sharded, sparse-service)");
  return nullptr;
}

}  // namespace perfbench
