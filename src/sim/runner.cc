#include "sim/runner.h"

#include <algorithm>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <typeinfo>
#include <utility>

#include "algs/edf.h"
#include "core/checkpoint.h"
#include "sim/service.h"
#include "util/check.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"
#include "workload/generator_source.h"
#include "workload/sharded_source.h"

namespace rrs {

std::unique_ptr<Policy> make_stream_policy(const std::string& name,
                                           EngineOptions& options) {
  if (name == "seq-edf" || name == "ds-seq-edf") {
    options.replication = 1;
    options.speed = name == "ds-seq-edf" ? 2 : 1;
    return std::make_unique<EdfPolicy>();
  }
  options.replication = 2;
  options.speed = 1;
  return make_policy(name);  // throws InputError on unknown names
}

namespace {

/// Manifest section tag for sharded checkpoint sets.
constexpr std::uint32_t kTagManifest = 1;

/// Segment length between stop-flag checks when no cadence bounds it.
constexpr Round kStopCheckRounds = 1024;

using PolicyStats = std::vector<std::pair<std::string, std::int64_t>>;

/// Folds `part` (one engine generation's result, or one shard's record)
/// into `into`: counters sum, rounds and peak_pending take the max, policy
/// stats sum per key.
template <typename Part>
void fold(StreamRunRecord& into, const Part& part, const PolicyStats& stats) {
  into.cost += part.cost;
  into.degraded += part.degraded;
  into.executed += part.executed;
  into.work_units += part.work_units;
  into.arrived += part.arrived;
  into.admission_rejected += part.admission_rejected;
  into.rounds = std::max(into.rounds, part.rounds);
  into.peak_pending = std::max(into.peak_pending, part.peak_pending);
  for (const auto& [key, value] : stats) {
    auto it = std::find_if(into.stats.begin(), into.stats.end(),
                           [&key](const auto& kv) { return kv.first == key; });
    if (it == into.stats.end()) {
      into.stats.emplace_back(key, value);
    } else {
      it->second += value;
    }
  }
}

/// Writes `path` through a temp file renamed into place, so readers only
/// ever see complete files.
template <typename Write>
void write_atomically(const std::filesystem::path& path, const Write& write) {
  const std::filesystem::path tmp = path.string() + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    RRS_REQUIRE(out.good(), "cannot write checkpoint file " << tmp.string());
    write(out);
  }
  std::filesystem::rename(tmp, path);
}

std::ifstream open_checkpoint(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  RRS_REQUIRE(in.good(), "cannot open checkpoint file " << path.string());
  return in;
}

/// One engine generation's observers: resharding rebuilds engines (and
/// their observers) per era, each with its own local -> global color maps.
struct EraObservers {
  std::vector<Observer*> obs;                  // one per slot (may be empty)
  std::vector<std::unique_ptr<Observer>> owned;  // runner-created lifetime
  std::vector<std::vector<ColorId>> color_maps;  // slot -> local -> global
};

/// Rebuilds `merged` as the exact additive merge of every era's per-shard
/// observers: stats relabeled through each era's local -> global color
/// maps, timers summed, snapshot series merged point-wise with
/// carry-forward (resharded runs have no series — snapshot_every must be
/// 0 there), final snapshots merged, fabric gauges and kReshard trace
/// events stamped from the run record.
void merge_shard_observers(Observer& merged,
                           const std::vector<EraObservers>& eras,
                           const ArrivalSource& source,
                           const ShardedRunRecord& record) {
  std::vector<Round> delay_bounds(
      static_cast<std::size_t>(source.num_colors()));
  std::vector<Cost> drop_costs(delay_bounds.size());
  std::vector<Round> lengths(delay_bounds.size());
  for (ColorId c = 0; c < source.num_colors(); ++c) {
    delay_bounds[static_cast<std::size_t>(c)] = source.delay_bound(c);
    drop_costs[static_cast<std::size_t>(c)] = source.drop_cost(c);
    lengths[static_cast<std::size_t>(c)] = source.length(c);
  }
  merged.begin_run(delay_bounds, drop_costs, lengths);

  std::vector<std::vector<Snapshot>> series;
  merged.final_snapshot = Snapshot{};
  for (const EraObservers& era : eras) {
    for (std::size_t s = 0; s < era.obs.size(); ++s) {
      merged.stats.merge_mapped(era.obs[s]->stats, era.color_maps[s]);
      merged.timers.merge(era.obs[s]->timers);
      series.push_back(era.obs[s]->snapshots);
      merge_into(merged.final_snapshot, era.obs[s]->final_snapshot);
    }
  }
  merged.snapshots = merge_snapshot_series(series);
  merged.final_snapshot.fabric_chunks_produced =
      record.splitter_chunks_produced;
  for (const std::int64_t peak : record.splitter_peak_chunks) {
    merged.final_snapshot.fabric_peak_chunks =
        std::max(merged.final_snapshot.fabric_peak_chunks, peak);
  }
  merged.final_snapshot.fabric_ring_occupancy = record.fabric_ring_occupancy;
  // Reshard events go in AFTER begin_run (which clears the ring).
  if (merged.config.trace) {
    for (std::size_t i = 0; i < record.reshard_rounds.size(); ++i) {
      merged.trace.push({record.reshard_rounds[i], TraceKind::kReshard,
                         record.reshard_moved_colors[i],
                         static_cast<std::int64_t>(i + 1)});
    }
  }
  if (merged.snapshot_out != nullptr) {
    write_snapshots(*merged.snapshot_out, merged.snapshots);
    *merged.snapshot_out << to_json_line(merged.final_snapshot) << '\n';
  }
}

/// The segment loop behind every run driver.  K engines (one per shard)
/// run to the next boundary; there the loop checkpoints, re-shards or
/// stops.  One engine runs on the calling thread over the caller's source
/// and observer; K engines run on the pool over shard-native generator
/// views or, for any other source, the demux fabric.
class SegmentLoop {
 public:
  SegmentLoop(ArrivalSource& source, const std::string& name, int n,
              int num_shards, Round max_rounds,
              const ShardedRunOptions& options)
      : source_(source),
        name_(name),
        n_(n),
        shards_(static_cast<std::size_t>(std::max(num_shards, 1))),
        options_(options) {
    RRS_REQUIRE(num_shards >= 1,
                "num_shards must be >= 1, got " << num_shards);
    RRS_REQUIRE(options.reshard_every >= 0,
                "reshard_every must be >= 0, got " << options.reshard_every);
    RRS_REQUIRE(options.checkpoint_every >= 0,
                "checkpoint_every must be >= 0, got "
                    << options.checkpoint_every);
    RRS_REQUIRE(options.checkpoint_keep >= 1,
                "checkpoint_keep must be >= 1, got "
                    << options.checkpoint_keep);
    const bool checkpoints = options.checkpoint_every > 0 ||
                             options.resume || options.stop_flag != nullptr;
    RRS_REQUIRE(!checkpoints || !options.checkpoint_dir.empty(),
                "checkpoint_every, resume and stop_flag need checkpoint_dir");
    if (options.reshard_every > 0) {
      RRS_REQUIRE(
          options.fault_plan == nullptr || options.fault_plan->empty(),
          "adaptive re-sharding cannot run under a fault plan: migration "
          "would have to move per-location churn state");
      RRS_REQUIRE(options.shard_observers.empty(),
                  "caller shard_observers assume one engine generation per "
                  "shard; use the merged observer with re-sharding");
      RRS_REQUIRE(options.observer == nullptr ||
                      options.observer->config.snapshot_every == 0,
                  "periodic snapshot series cannot span engine generations; "
                  "set ObsConfig::snapshot_every = 0 with re-sharding");
      RRS_REQUIRE(!checkpoints,
                  "adaptive re-sharding cannot checkpoint or stop: a "
                  "checkpoint assumes one engine generation per shard");
    }
    RRS_REQUIRE(options.shard_observers.empty() ||
                    options.shard_observers.size() == shards_,
                "shard_observers must have one entry per shard: got "
                    << options.shard_observers.size() << " for "
                    << num_shards << " shards");

    // Resolve the arrival horizon up front (the engine's own resolution,
    // hoisted): every engine and the fabric must agree on it.
    arrival_end_ = max_rounds;
    if (arrival_end_ == kInfiniteHorizon) {
      arrival_end_ = source.horizon();
      RRS_REQUIRE(arrival_end_ != kInfiniteHorizon,
                  "running an infinite source needs max_rounds; got "
                      << source.summary());
    } else if (source.finite()) {
      arrival_end_ = std::min(arrival_end_, source.horizon());
    }
    RRS_REQUIRE(arrival_end_ >= 0,
                "max_rounds must be >= 0, resolved to " << arrival_end_);

    // The policy's resource granularity (e.g. 4 for dLRU-EDF's two
    // replicated halves) fixes the units the plan may split n into.
    EngineOptions proto;
    granularity_ = make_stream_policy(name, proto)->resource_granularity(
        proto.replication);
    if (shards_ == 1) {
      // One engine needs no partition: the identity plan, which admits
      // whatever the engine admits (a colorless source, say).
      ShardPlan& plan = record_.plan;
      plan.resource_unit = granularity_;
      plan.shard_of_color.assign(
          static_cast<std::size_t>(source.num_colors()), 0);
      plan.shard_colors.assign(
          1, std::vector<ColorId>(plan.shard_of_color.size()));
      std::iota(plan.shard_colors[0].begin(), plan.shard_colors[0].end(), 0);
      plan.shard_resources = {n};
    } else {
      record_.plan = make_shard_plan(source.num_colors(), num_shards, n,
                                     granularity_, options.color_weights);
      // Shard-native views when the source is a generator whose clone()
      // is its own: the typeid guard rejects subclasses that inherit a
      // base clone(), which would synthesize the base arrival process.
      gen_ = dynamic_cast<GeneratorSource*>(&source);
      if (gen_ != nullptr) {
        const std::unique_ptr<GeneratorSource> probe = gen_->clone();
        if (probe == nullptr || typeid(*probe) != typeid(*gen_)) {
          gen_ = nullptr;
        }
      }
      RRS_REQUIRE(gen_ != nullptr || !checkpoints,
                  "checkpoints and the stop flag with "
                      << num_shards
                      << " shards need a source with a shard-native "
                         "clone(): the demux fabric's run-ahead is not "
                         "repositionable");
      // Map the global fault plan onto the shards' contiguous resource
      // blocks (validated against the global pool first, so errors name
      // global indices).  Hottest-resource events reach every shard.
      if (options.fault_plan != nullptr && !options.fault_plan->empty()) {
        validate_fault_plan(*options.fault_plan, n);
        shard_faults_ = split_fault_plan(*options.fault_plan,
                                         record_.plan.shard_resources);
      }
      if (options.reshard_every > 0) {
        cadences_.push_back(options.reshard_every);
      }
    }
    if (options.checkpoint_every > 0) {
      cadences_.push_back(options.checkpoint_every);
    } else if (options.stop_flag != nullptr) {
      cadences_.push_back(kStopCheckRounds);
    }
    direct_observer_ = shards_ == 1 && options.shard_observers.empty();
    record_.native_sources = shards_ == 1 || gen_ != nullptr;
    record_.splitter_peak_chunks.assign(shards_, 0);
    record_.shards.resize(shards_);
    policies_.resize(shards_);
    engines_.resize(shards_);

    // Backpressure only helps when every shard consumer actually runs
    // concurrently; with fewer workers than shards (or when already
    // inside a pool worker) the engines run serially and waiting on a
    // consumer that has not started would only burn the timeout per chunk.
    fabric_options_.chunk_rounds = options.chunk_rounds;
    fabric_options_.max_buffered_chunks = options.max_buffered_chunks;
    fabric_options_.backpressure =
        !ThreadPool::in_worker() && global_pool().size() >= shards_;
  }

  ShardedRunRecord run() {
    Stopwatch watch;
    if (options_.resume) {
      recover();
    } else if (gen_ != nullptr) {
      make_views();
    }
    Round round = std::max<Round>(record_.recovered_from, 0);
    bool stopped = false;
    do {
      const Round until = next_boundary(round);
      // The fabric is rebuilt per segment so a plan change never has to
      // rewind the sequential parent source: each fabric pulls exactly
      // its segment and is joined before the next one starts.
      if (shards_ > 1 && gen_ == nullptr) {
        fabric_.emplace(source_, record_.plan, until, fabric_options_,
                        round, arrival_end_);
      }
      if (rebuild_) build_era(round);
      if (round < arrival_end_ && options_.stop_flag != nullptr &&
          *options_.stop_flag != 0) {
        stopped = true;
        break;
      }
      run_segment(until);
      round = until;
      if (round < arrival_end_ && options_.checkpoint_every > 0 &&
          round % options_.checkpoint_every == 0) {
        write_checkpoint(round);
      }
      if (round < arrival_end_ && shards_ > 1 &&
          options_.reshard_every > 0 && round % options_.reshard_every == 0) {
        reshard(round);
      }
      if (fabric_) close_fabric();
    } while (round < arrival_end_);

    // Stop-and-checkpoint commits the exact stop point, then surrenders
    // the counters without the drain: a resumed run completes the job
    // from here.
    if (stopped) write_checkpoint(round);
    end_engines(stopped);
    merge(stopped, watch.seconds());
    return std::move(record_);
  }

 private:
  ArrivalSource& slot_source(std::size_t s) {
    if (fabric_) return fabric_->stream(static_cast<int>(s));
    if (!views_.empty()) return *views_[s];
    return source_;
  }

  [[nodiscard]] Observer* slot_observer(std::size_t s) const {
    const std::vector<Observer*>& obs = eras_.back().obs;
    return obs.empty() ? nullptr : obs[s];
  }

  [[nodiscard]] Round next_boundary(Round round) const {
    Round until = arrival_end_;
    for (const Round every : cadences_) {
      until = std::min(until, (round / every + 1) * every);
    }
    return until;
  }

  /// Runs body(s) for every shard: inline for one engine, so the run
  /// stays on the calling thread (and its CPU pin), across the pool
  /// otherwise.
  void for_each_shard(const std::function<void(std::size_t)>& body) const {
    if (shards_ == 1) {
      body(0);
    } else {
      global_pool().parallel_for(shards_, body);
    }
  }

  /// Runs `fn` for slot `s`; if the engine dies on an InvariantError the
  /// slot's trace ring is dumped first (the flight recorder a crash report
  /// needs and cannot reconstruct post mortem).
  void guarded(std::size_t s, const std::function<void()>& fn) const {
    try {
      fn();
    } catch (const InvariantError&) {
      if (Observer* const obs = slot_observer(s)) obs->dump_trace();
      throw;
    }
  }

  void make_views() {
    views_.clear();
    for (std::size_t s = 0; s < shards_; ++s) {
      views_.push_back(gen_->clone());
      views_.back()->restrict_to(record_.plan.shard_colors[s]);
    }
  }

  /// Builds one era's observers, policies and engines at `start_round`,
  /// importing any state a migration exported.
  void build_era(Round start_round) {
    EraObservers era;
    era.color_maps = record_.plan.shard_colors;
    if (direct_observer_) {
      if (options_.observer != nullptr) era.obs = {options_.observer};
    } else if (!options_.shard_observers.empty()) {
      era.obs = options_.shard_observers;
    } else if (options_.observer != nullptr) {
      for (std::size_t s = 0; s < shards_; ++s) {
        era.owned.push_back(
            std::make_unique<Observer>(options_.observer->config));
        era.obs.push_back(era.owned.back().get());
      }
    }
    eras_.push_back(std::move(era));
    for (std::size_t s = 0; s < shards_; ++s) {
      const int resources = record_.plan.shard_resources[s];
      EngineOptions engine_options;
      engines_[s].reset();
      policies_[s] = make_stream_policy(name_, engine_options);
      engine_options.num_resources = resources;
      engine_options.record_schedule = false;
      engine_options.max_rounds = arrival_end_;
      // Let in-flight jobs execute or expire after arrivals end, matching
      // a materialized run whose horizon extends to the last deadline.
      engine_options.drain_pending = true;
      engine_options.fault_plan =
          shard_faults_.empty() ? options_.fault_plan : &shard_faults_[s];
      engine_options.charge_repair = options_.charge_repair;
      engine_options.observer = slot_observer(s);
      engine_options.fast_forward = options_.fast_forward;
      // 0 means unlimited, so a positive budget's share is at least 1.
      engine_options.pending_budget =
          options_.pending_budget <= 0
              ? options_.pending_budget
              : std::max<std::int64_t>(
                    1, options_.pending_budget * resources / n_);
      engines_[s] = std::make_unique<Engine>(slot_source(s), *policies_[s],
                                             engine_options, start_round);
      if (imports_.empty()) continue;
      const std::vector<ColorId>& colors = record_.plan.shard_colors[s];
      for (std::size_t l = 0; l < colors.size(); ++l) {
        engines_[s]->import_color(
            static_cast<ColorId>(l),
            imports_[static_cast<std::size_t>(colors[l])]);
      }
    }
    imports_.clear();
    rebuild_ = false;
  }

  void run_segment(Round until) {
    for_each_shard([&](std::size_t s) {
      Stopwatch watch;
      guarded(s, [&] { engines_[s]->run_rounds(slot_source(s), until); });
      record_.shards[s].seconds += watch.seconds();
    });
  }

  /// Finishes (drain + terminal sweep) every engine, or abandons them on
  /// a stop, folding each result into its slot.
  void end_engines(bool stopped) {
    for_each_shard([&](std::size_t s) {
      Stopwatch watch;
      guarded(s, [&] {
        fold_slot(s, stopped ? engines_[s]->abandon()
                             : engines_[s]->finish());
      });
      record_.shards[s].seconds += watch.seconds();
    });
  }

  /// The color partition makes shard costs exactly additive; the merged
  /// peak is the sum of per-shard peaks.
  void merge(bool stopped, double seconds) {
    StreamRunRecord& merged = record_.merged;
    merged.algorithm = name_;
    merged.n = n_;
    std::int64_t peak_sum = 0;
    for (const StreamRunRecord& shard : record_.shards) {
      fold(merged, shard, shard.stats);
      peak_sum += shard.peak_pending;
    }
    merged.peak_pending = peak_sum;
    merged.seconds = seconds;
    record_.finished = !stopped;
    if (options_.observer != nullptr && !direct_observer_) {
      merge_shard_observers(*options_.observer, eras_, source_, record_);
    }
  }

  void fold_slot(std::size_t s, EngineResult&& result) {
    StreamRunRecord& slot = record_.shards[s];
    slot.algorithm = name_;
    slot.n = record_.plan.shard_resources[s];  // the latest era's slice
    fold(slot, result, result.policy_stats);
  }

  /// Epoch boundary: re-derives the plan from the rates each shard's
  /// consumer observed this epoch (counts + 1, so idle colors keep a
  /// positive weight; counting is consumer-side, so fabric run-ahead never
  /// inflates a rate) and, if it changed, migrates every color.
  void reshard(Round boundary) {
    const ColorId num_colors = source_.num_colors();
    std::vector<double> weights(static_cast<std::size_t>(num_colors), 1.0);
    for (std::size_t s = 0; s < shards_; ++s) {
      const std::vector<std::int64_t> counts =
          fabric_ ? fabric_->take_observed_counts(static_cast<int>(s))
                  : views_[s]->take_observed_counts();
      const std::vector<ColorId>& colors = record_.plan.shard_colors[s];
      for (std::size_t l = 0; l < colors.size(); ++l) {
        weights[static_cast<std::size_t>(colors[l])] =
            static_cast<double>(counts[l]) + 1.0;
      }
    }
    ShardPlan next = make_shard_plan(num_colors, static_cast<int>(shards_),
                                     n_, granularity_, weights);
    // A plan is "changed" when either the color partition or the resource
    // split moved — the latter alone still needs new engines (a shard's n
    // is fixed at construction).
    if (next.shard_of_color == record_.plan.shard_of_color &&
        next.shard_resources == record_.plan.shard_resources) {
      return;
    }
    int moved = 0;
    for (std::size_t c = 0; c < next.shard_of_color.size(); ++c) {
      if (next.shard_of_color[c] != record_.plan.shard_of_color[c]) ++moved;
    }
    // Exact cost handoff: every color's pending jobs and policy scratch
    // leave through the engine export surface, keyed by global color for
    // the next era's engines.
    imports_.assign(static_cast<std::size_t>(num_colors), EngineColorState{});
    for (std::size_t s = 0; s < shards_; ++s) {
      const std::vector<ColorId>& colors = record_.plan.shard_colors[s];
      for (std::size_t l = 0; l < colors.size(); ++l) {
        imports_[static_cast<std::size_t>(colors[l])] =
            engines_[s]->export_color(static_cast<ColorId>(l));
      }
      fold_slot(s, engines_[s]->abandon());
      engines_[s].reset();
      policies_[s].reset();
    }
    // The abandoned era's "pending at finish" gauge counts jobs that just
    // migrated and live on — zero it so the merged final snapshot reports
    // only jobs actually pending at run end.
    for (Observer* obs : eras_.back().obs) obs->final_snapshot.pending = 0;
    for (std::size_t s = 0; s < views_.size(); ++s) {
      views_[s]->reassign(next.shard_colors[s]);
    }
    record_.reshard_rounds.push_back(boundary);
    record_.reshard_moved_colors.push_back(moved);
    record_.plan = std::move(next);
    rebuild_ = true;
  }

  void close_fabric() {
    for (std::size_t s = 0; s < shards_; ++s) {
      const int shard = static_cast<int>(s);
      record_.splitter_peak_chunks[s] =
          std::max(record_.splitter_peak_chunks[s],
                   fabric_->peak_buffered_chunks(shard));
      record_.fabric_ring_occupancy += fabric_->ring_occupancy(shard);
    }
    record_.splitter_chunks_produced += fabric_->chunks_produced();
    fabric_.reset();
  }

  // --- checkpoints: one engine commits `ckpt-<round>.rrsckpt` with the
  // source embedded; K engines commit a sidecar per shard, then the
  // manifest as the commit point.

  [[nodiscard]] std::string commit_suffix() const {
    return shards_ == 1 ? ".rrsckpt" : ".manifest";
  }

  [[nodiscard]] std::filesystem::path sidecar(Round round,
                                              std::size_t s) const {
    return std::filesystem::path(options_.checkpoint_dir) /
           ("ckpt-" + std::to_string(round) + ".shard" + std::to_string(s));
  }

  /// Restores the newest valid checkpoint; a corrupt or mismatched one is
  /// skipped to the next-oldest.  Every attempt starts from fresh views
  /// and engines: a failed partial restore may have mutated them.
  void recover() {
    const std::vector<CheckpointFile> files =
        list_checkpoints(options_.checkpoint_dir, commit_suffix());
    std::string last_error;
    for (const CheckpointFile& file : files) {
      if (gen_ != nullptr) make_views();
      build_era(0);
      try {
        if (shards_ == 1) {
          std::ifstream in = open_checkpoint(file.path);
          engines_[0]->restore(in, &source_);
        } else {
          std::ifstream in = open_checkpoint(file.path);
          check_manifest(in, file.round);
          for (std::size_t s = 0; s < shards_; ++s) {
            std::ifstream side = open_checkpoint(sidecar(file.round, s));
            engines_[s]->restore(side, views_[s].get());
          }
        }
        record_.recovered_from = file.round;
        for (auto it = files.rbegin(); it != files.rend(); ++it) {
          if (it->round <= file.round) lineage_.push_back(it->round);
        }
        return;
      } catch (const InputError& e) {
        last_error = e.what();
        eras_.pop_back();
      }
    }
    RRS_REQUIRE(false, "no usable checkpoint in "
                           << options_.checkpoint_dir
                           << (last_error.empty() ? "" : "; last failure: ")
                           << last_error);
  }

  /// The manifest binds a checkpoint set to this run's identity and plan.
  void write_manifest(std::ostream& out, Round round) const {
    CheckpointWriter w;
    w.begin_section(kTagManifest);
    w.str(name_);
    w.i64(n_);
    w.i64(static_cast<std::int64_t>(shards_));
    w.i64(arrival_end_);
    w.i64(round);
    w.boolean(options_.charge_repair);
    w.boolean(options_.fast_forward);
    w.u64(options_.fault_plan == nullptr
              ? 0
              : options_.fault_plan->events.size());
    w.u64(record_.plan.shard_of_color.size());
    for (const int shard : record_.plan.shard_of_color) w.i64(shard);
    w.u64(record_.plan.shard_resources.size());
    for (const int res : record_.plan.shard_resources) w.i64(res);
    w.end_section();
    w.finish(out);
  }

  /// Accepts a manifest only when its section holds exactly what this run
  /// would write at `round` (a newer writer may append tail fields): the
  /// set must come from this algorithm, resource count, horizon, options
  /// and plan.
  void check_manifest(std::istream& in, Round round) const {
    std::stringstream bytes;
    write_manifest(bytes, round);
    CheckpointReader want(bytes);
    CheckpointReader got(in);
    want.open_section(kTagManifest);
    got.open_section(kTagManifest);
    RRS_REQUIRE(got.remaining() >= want.remaining(),
                "checkpoint manifest truncated");
    while (want.remaining() > 0) {
      RRS_REQUIRE(got.u8() == want.u8(), "checkpoint manifest of round "
                                              << round
                                              << " does not match this run");
    }
  }

  /// Commits a checkpoint at `round` (the run itself is unperturbed), then
  /// rotates.
  void write_checkpoint(Round round) {
    const std::filesystem::path dir(options_.checkpoint_dir);
    std::filesystem::create_directories(dir);
    const std::filesystem::path commit =
        dir / ("ckpt-" + std::to_string(round) + commit_suffix());
    if (shards_ == 1) {
      write_atomically(commit, [&](std::ostream& out) {
        engines_[0]->checkpoint(out, &source_);
      });
    } else {
      for (std::size_t s = 0; s < shards_; ++s) {
        write_atomically(sidecar(round, s), [&](std::ostream& out) {
          engines_[s]->checkpoint(out, views_[s].get());
        });
      }
      write_atomically(commit,
                       [&](std::ostream& out) { write_manifest(out, round); });
    }
    ++record_.checkpoints_written;
    record_.final_checkpoint = commit.string();
    if (lineage_.empty() || lineage_.back() != round) {
      lineage_.push_back(round);
    }
    // Keep the newest checkpoint_keep of this run's own lineage and delete
    // every other checkpoint here: ranked by round alone, another run's
    // newer files would evict this run's and win a later resume.
    const std::size_t keep = std::min(
        lineage_.size(), static_cast<std::size_t>(options_.checkpoint_keep));
    const auto kept = lineage_.end() - static_cast<std::ptrdiff_t>(keep);
    for (const CheckpointFile& file : list_checkpoints(dir, commit_suffix())) {
      if (std::find(kept, lineage_.end(), file.round) != lineage_.end()) {
        continue;
      }
      std::filesystem::remove(file.path);  // the commit point goes first
      std::size_t s = 0;
      while (shards_ > 1 && std::filesystem::remove(sidecar(file.round, s))) {
        ++s;
      }
    }
  }

  ArrivalSource& source_;
  const std::string& name_;
  const int n_;
  const std::size_t shards_;
  const ShardedRunOptions& options_;
  Round arrival_end_ = 0;
  int granularity_ = 1;
  /// One engine with no caller shard observers drives options_.observer
  /// itself; otherwise every slot gets its own and they merge at the end.
  bool direct_observer_ = false;
  std::vector<Round> cadences_;     ///< boundaries fall on their multiples
  GeneratorSource* gen_ = nullptr;  ///< parent of the shard-native views
  ShardedSourceOptions fabric_options_;
  std::vector<FaultPlan> shard_faults_;

  ShardedRunRecord record_;
  std::vector<std::unique_ptr<GeneratorSource>> views_;
  std::optional<ShardedSource> fabric_;  ///< the current segment's fabric
  std::vector<EraObservers> eras_;
  std::vector<std::unique_ptr<Policy>> policies_;
  std::vector<std::unique_ptr<Engine>> engines_;
  /// Exported state awaiting import into the next era's engines, indexed
  /// by GLOBAL color; empty when no migration is pending.
  std::vector<EngineColorState> imports_;
  bool rebuild_ = true;
  /// Rounds of this run's own checkpoints, oldest first: the one it
  /// resumed from (and the older ones beside it), then each it wrote.
  std::vector<Round> lineage_;
};

}  // namespace

RunRecord run_algorithm(const Instance& instance, const std::string& name,
                        int n, Schedule* schedule_out) {
  const AlgorithmInfo& info = find_algorithm(name);
  Stopwatch watch;
  RunOutcome outcome = info.run(instance, n, schedule_out != nullptr);
  RunRecord record;
  record.seconds = watch.seconds();
  record.algorithm = outcome.algorithm;
  record.n = n;
  record.cost = outcome.cost;
  record.executed = outcome.executed;
  record.stats = std::move(outcome.stats);
  if (schedule_out != nullptr) *schedule_out = std::move(outcome.schedule);
  return record;
}

StreamRunRecord run_streaming(ArrivalSource& source, const std::string& name,
                              int n, Round max_rounds,
                              const FaultPlan* fault_plan,
                              bool charge_repair, Observer* observer,
                              bool fast_forward) {
  ShardedRunOptions options;
  options.fault_plan = fault_plan;
  options.charge_repair = charge_repair;
  options.observer = observer;
  options.fast_forward = fast_forward;
  return std::move(
      run_streaming_sharded(source, name, n, 1, max_rounds, options).merged);
}

ShardedRunRecord run_streaming_sharded(ArrivalSource& source,
                                       const std::string& name, int n,
                                       int num_shards, Round max_rounds,
                                       const ShardedRunOptions& options) {
  return SegmentLoop(source, name, n, num_shards, max_rounds, options).run();
}

}  // namespace rrs
