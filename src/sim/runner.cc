#include "sim/runner.h"

#include <algorithm>
#include <cstddef>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <typeinfo>
#include <utility>

#include "core/checkpoint.h"
#include "sim/service.h"
#include "util/check.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"
#include "workload/generator_source.h"
#include "workload/sharded_source.h"

namespace rrs {
namespace {

/// Manifest section tag for sharded checkpoint sets.
constexpr std::uint32_t kTagManifest = 1;

/// Segment length between stop-flag checks when no cadence bounds it.
constexpr Round kStopCheckRounds = 1024;

using PolicyStats = std::vector<std::pair<std::string, std::int64_t>>;

/// Folds `part` (one engine's result, or one shard's record) into `into`:
/// counters merge per RunCounters' field list, policy stats sum per key.
void fold(StreamRunRecord& into, const RunCounters& part,
          const PolicyStats& stats) {
  into += part;
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

/// Rebuilds `merged` as the exact additive merge of the per-shard
/// observers: stats relabeled through the plan's local -> global color
/// maps, timers summed, snapshot series merged point-wise with
/// carry-forward, final snapshots merged.
void merge_shard_observers(Observer& merged,
                           const std::vector<Observer*>& shard_observers,
                           const ArrivalSource& source,
                           const ShardPlan& plan) {
  merged.begin_run(source.num_colors());
  std::vector<std::vector<Snapshot>> series;
  for (std::size_t s = 0; s < shard_observers.size(); ++s) {
    const Observer& shard = *shard_observers[s];
    merged.stats.merge_mapped(shard.stats, plan.shard_colors[s]);
    merged.timers.merge(shard.timers);
    series.push_back(shard.snapshots);
    merge_into(merged.final_snapshot, shard.final_snapshot);
  }
  merged.snapshots = merge_snapshot_series(series);
  if (merged.snapshot_out != nullptr) {
    write_snapshots(*merged.snapshot_out, merged.snapshots);
    write_snapshots(*merged.snapshot_out, {&merged.final_snapshot, 1});
  }
}

/// The segment loop behind run_streaming, run_service and
/// run_streaming_sharded.  K engines (one per shard, under one plan) run
/// to the next boundary; there the loop checkpoints or stops.  One engine
/// runs on the calling thread over the caller's source and observer; K
/// engines run on the pool over shard-native generator views or, for any
/// other source, one demux fabric spanning the run.  When the pool cannot
/// run every fabric shard at once, the shards take turns on the calling
/// thread one chunk at a time, so the fabric's queues stay bounded.
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

    // Resolved up front: every engine and the fabric must agree on it.
    arrival_end_ = resolve_arrival_end(source, max_rounds);

    // The policy's resource granularity (e.g. 4 for dLRU-EDF's two
    // replicated halves) fixes the units the plan may split n into, and
    // its replication how many colors a slice can cache.
    EngineOptions proto;
    const std::unique_ptr<Policy> policy = make_stream_policy(name, proto);
    const int granularity = policy->resource_granularity(proto.replication);
    if (shards_ == 1) {
      // One engine needs no partition: the identity plan, which admits
      // whatever the engine admits (a colorless source, say).
      ShardPlan& plan = record_.plan;
      plan.resource_unit = granularity;
      plan.shard_of_color.assign(
          static_cast<std::size_t>(source.num_colors()), 0);
      plan.shard_colors.assign(
          1, std::vector<ColorId>(plan.shard_of_color.size()));
      std::iota(plan.shard_colors[0].begin(), plan.shard_colors[0].end(), 0);
      plan.shard_resources = {n};
    } else {
      record_.plan = make_shard_plan(source.num_colors(), num_shards, n,
                                     granularity, proto.replication);
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
      // global indices).
      if (options.fault_plan != nullptr && !options.fault_plan->empty()) {
        validate_fault_plan(*options.fault_plan, n);
        shard_faults_ = split_fault_plan(*options.fault_plan,
                                         record_.plan.shard_resources);
      }
    }
    if (options.checkpoint_every > 0) {
      cadence_ = options.checkpoint_every;
    } else if (options.stop_flag != nullptr) {
      cadence_ = kStopCheckRounds;
    }
    record_.native_sources = shards_ == 1 || gen_ != nullptr;
    record_.splitter_peak_chunks.assign(shards_, 0);
    record_.shards.resize(shards_);
    policies_.resize(shards_);
    engines_.resize(shards_);
  }

  ShardedRunRecord run() {
    Stopwatch watch;
    if (shards_ > 1 && gen_ == nullptr) {
      // One fabric spans the whole run.  Checkpoints and the stop flag are
      // rejected over it, so a fabric run is a single segment.
      ShardedSourceOptions fabric_options;
      fabric_options.chunk_rounds = options_.chunk_rounds;
      fabric_options.max_buffered_chunks = options_.max_buffered_chunks;
      fabric_.emplace(source_, record_.plan, arrival_end_, fabric_options);
      // A worker runs a nested parallel_for inline, and a small pool
      // queues the shards it cannot start: either way a shard would wait
      // on a peer that has not started.
      serial_fabric_ =
          ThreadPool::in_worker() || global_pool().size() < shards_;
    }
    if (options_.resume) {
      recover();
    } else {
      if (gen_ != nullptr) make_views();
      build_engines();
    }
    Round round = std::max<Round>(record_.recovered_from, 0);
    bool stopped = false;
    while (round < arrival_end_) {
      if (options_.stop_flag != nullptr && *options_.stop_flag != 0) {
        stopped = true;
        break;
      }
      const Round until = next_boundary(round);
      run_segment(round, until);
      round = until;
      if (round < arrival_end_ && options_.checkpoint_every > 0 &&
          round % options_.checkpoint_every == 0) {
        write_checkpoint(round);
      }
    }
    if (fabric_) close_fabric();

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
    return slot_observers_.empty() ? nullptr : slot_observers_[s];
  }

  [[nodiscard]] Round next_boundary(Round round) const {
    if (cadence_ == 0) return arrival_end_;
    return std::min(arrival_end_, (round / cadence_ + 1) * cadence_);
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

  /// Builds fresh observers, policies and engines for every slot.
  void build_engines() {
    owned_observers_.clear();
    if (shards_ == 1) {
      if (options_.observer != nullptr) slot_observers_ = {options_.observer};
    } else if (options_.observer != nullptr) {
      slot_observers_.clear();
      for (std::size_t s = 0; s < shards_; ++s) {
        owned_observers_.push_back(
            std::make_unique<Observer>(options_.observer->config));
        slot_observers_.push_back(owned_observers_.back().get());
      }
    }
    for (std::size_t s = 0; s < shards_; ++s) {
      EngineOptions engine_options;
      engines_[s].reset();
      policies_[s] = make_stream_policy(name_, engine_options);
      engine_options.num_resources = record_.plan.shard_resources[s];
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
      engines_[s] = std::make_unique<Engine>(slot_source(s), *policies_[s],
                                             engine_options);
    }
  }

  /// Runs every engine from `from` to `until`.  Serial fabric shards
  /// take turns by chunk: each consumes fabric chunk c before any shard
  /// needs chunk c + 1, so no queue outgrows max_buffered_chunks.
  void run_segment(Round from, Round until) {
    if (!serial_fabric_) {
      for_each_shard([&](std::size_t s) { run_shard(s, until); });
      return;
    }
    const Round chunk = options_.chunk_rounds;
    for (Round step = from; step < until;) {
      step = std::min(until, (step / chunk + 1) * chunk);
      for (std::size_t s = 0; s < shards_; ++s) run_shard(s, step);
    }
  }

  /// Runs engine `s` to `until`.  A shard that throws closes the fabric,
  /// so the producer and the other shards stop at once instead of waiting
  /// on its queue; the other shards then fail too, and the run reports
  /// the first failure rather than theirs.
  void run_shard(std::size_t s, Round until) {
    Stopwatch watch;
    try {
      guarded(s, [&] { engines_[s]->run_rounds(slot_source(s), until); });
    } catch (...) {
      if (!fabric_) throw;
      std::exception_ptr first;
      {
        const std::scoped_lock lock(failure_mu_);
        if (!failure_) failure_ = std::current_exception();
        first = failure_;
      }
      fabric_->close();
      std::rethrow_exception(first);
    }
    record_.shards[s].seconds += watch.seconds();
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

  /// The color partition makes shard counters exactly additive.
  void merge(bool stopped, double seconds) {
    StreamRunRecord& merged = record_.merged;
    merged.algorithm = name_;
    merged.n = n_;
    for (const StreamRunRecord& shard : record_.shards) {
      fold(merged, shard, shard.stats);
    }
    merged.seconds = seconds;
    record_.finished = !stopped;
    if (options_.observer != nullptr && shards_ > 1) {
      merge_shard_observers(*options_.observer, slot_observers_, source_,
                            record_.plan);
    }
  }

  void fold_slot(std::size_t s, EngineResult&& result) {
    StreamRunRecord& slot = record_.shards[s];
    slot.algorithm = name_;
    slot.n = record_.plan.shard_resources[s];
    fold(slot, result, result.policy_stats);
  }

  void close_fabric() {
    for (std::size_t s = 0; s < shards_; ++s) {
      record_.splitter_peak_chunks[s] =
          fabric_->peak_buffered_chunks(static_cast<int>(s));
    }
    record_.splitter_chunks_produced = fabric_->chunks_produced();
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
      build_engines();
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
      }
    }
    RRS_REQUIRE(false, "no usable checkpoint in "
                           << options_.checkpoint_dir
                           << (last_error.empty() ? "" : "; last failure: ")
                           << last_error);
  }

  /// The manifest binds a checkpoint set to this run's identity, its
  /// round and its plan.
  void write_manifest_fields(CheckpointWriter& w, Round round) const {
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
  }

  void write_manifest(std::ostream& out, Round round) const {
    CheckpointWriter w;
    w.begin_section(kTagManifest);
    write_manifest_fields(w, round);
    w.end_section();
    w.finish(out);
  }

  /// Accepts a manifest only when its section starts with exactly what
  /// this run would write at `round` (a newer writer may append tail
  /// fields): the set must come from this algorithm, resource count,
  /// horizon, options and plan.
  void check_manifest(std::istream& in, Round round) const {
    CheckpointWriter want;
    write_manifest_fields(want, round);
    CheckpointReader got(in);
    got.open_section(kTagManifest);
    got.expect_bytes(want.bytes(),
                     "manifest of round " + std::to_string(round));
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
  Round cadence_ = 0;               ///< boundaries fall on its multiples
  GeneratorSource* gen_ = nullptr;  ///< parent of the shard-native views
  std::vector<FaultPlan> shard_faults_;

  ShardedRunRecord record_;
  std::vector<std::unique_ptr<GeneratorSource>> views_;
  std::optional<ShardedSource> fabric_;  ///< the run's fabric, if any
  /// The pool cannot run every fabric shard at once (see run_segment).
  bool serial_fabric_ = false;
  std::mutex failure_mu_;
  std::exception_ptr failure_;  ///< the shard failure that closed the fabric
  std::vector<Observer*> slot_observers_;  ///< one per slot (may be empty)
  std::vector<std::unique_ptr<Observer>> owned_observers_;
  std::vector<std::unique_ptr<Policy>> policies_;
  std::vector<std::unique_ptr<Engine>> engines_;
  /// Rounds of this run's own checkpoints, oldest first: the one it
  /// resumed from (and the older ones beside it), then each it wrote.
  std::vector<Round> lineage_;
};

}  // namespace

StreamRunRecord run_algorithm(const Instance& instance,
                              const std::string& name, int n,
                              Schedule* schedule_out) {
  const AlgorithmInfo& info = find_algorithm(name);
  Stopwatch watch;
  EngineResult result = info.run(instance, n, schedule_out != nullptr);
  StreamRunRecord record;
  record.seconds = watch.seconds();
  record.algorithm = name;
  record.n = n;
  fold(record, result, result.policy_stats);
  if (schedule_out != nullptr) *schedule_out = std::move(result.schedule);
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
