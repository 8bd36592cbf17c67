// Checkpoint/restore round-trip pins: for every streaming algorithm x
// workload family, checkpointing at an arbitrary mid-stream round and
// restoring into a fresh engine (and fresh source) must finish with
// results bit-identical to the uninterrupted run — costs, schedules,
// observer stats, snapshot series — serial and sharded (K=2), with and
// without fast-forward, including a sharded stop-and-resume under the
// checkpoint cadence.
#include <gtest/gtest.h>

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "core/checkpoint.h"
#include "core/engine.h"
#include "core/fault_plan.h"
#include "obs/observer.h"
#include "sim/runner.h"
#include "sim/service.h"
#include "test_util.h"
#include "util/rng.h"
#include "workload/datacenter.h"
#include "workload/flash_crowd.h"
#include "workload/generator_source.h"
#include "workload/poisson.h"
#include "workload/random_batched.h"

namespace rrs {
namespace {

/// CRC-32 one bit at a time: the definition the table-driven crc32 must
/// reproduce.
std::uint32_t bitwise_crc32(const unsigned char* data, std::size_t size) {
  std::uint32_t c = 0xFFFFFFFFU;
  for (std::size_t i = 0; i < size; ++i) {
    c ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1U) != 0 ? 0xEDB88320U ^ (c >> 1) : c >> 1;
    }
  }
  return c ^ 0xFFFFFFFFU;
}

TEST(CheckpointCrc, MatchesTheBitwiseDefinition) {
  const std::string check = "123456789";
  EXPECT_EQ(crc32(reinterpret_cast<const unsigned char*>(check.data()),
                  check.size()),
            0xCBF43926U);
  // Every length to 257 at offsets 0-7: each eight-byte step meets every
  // alignment, and the byte loop every tail length.
  Rng rng(5);
  std::vector<unsigned char> bytes(257 + 8);
  for (unsigned char& b : bytes) b = static_cast<unsigned char>(rng() >> 56);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t size = 0; size <= 257; ++size) {
      ASSERT_EQ(crc32(bytes.data() + offset, size),
                bitwise_crc32(bytes.data() + offset, size))
          << "offset " << offset << ", " << size << " bytes";
    }
  }
}

const char* const kStreamingAlgorithms[] = {
    "dlru", "edf", "dlru-edf", "adaptive", "seq-edf", "ds-seq-edf",
};

const char* const kFamilies[] = {
    "random-batched", "poisson", "flash-crowd", "datacenter",
};

/// Fresh streaming source for (family, seed); mirrors streaming_test.
std::unique_ptr<GeneratorSource> make_source(const std::string& family,
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

/// run_streaming's engine options, with the matrix's toggles applied.
EngineOptions stream_options(const std::string& algorithm, bool fast_forward,
                             std::unique_ptr<Policy>& policy) {
  EngineOptions options;
  policy = make_stream_policy(algorithm, options);
  options.num_resources = 8;
  options.record_schedule = true;  // pin schedule bytes too
  options.drain_pending = true;
  options.fast_forward = fast_forward;
  return options;
}

void expect_identical(const EngineResult& a, const EngineResult& b,
                      const std::string& label) {
  testing::expect_same_run(a, b, label);
  EXPECT_EQ(a.schedule.reconfigs, b.schedule.reconfigs) << label;
  EXPECT_EQ(a.schedule.execs, b.schedule.execs) << label;
  EXPECT_EQ(a.schedule.churn, b.schedule.churn) << label;
}

using Cell = std::tuple<std::string, std::string, bool>;

class CheckpointRoundTrip : public ::testing::TestWithParam<Cell> {};

// Serial pin: run to an arbitrary mid-stream round, checkpoint (source
// embedded), restore onto a fresh engine + fresh source, finish — every
// result field matches the uninterrupted run.
TEST_P(CheckpointRoundTrip, SerialBitIdentical) {
  const auto& [algorithm, family, ff] = GetParam();
  const std::uint64_t seed = 1;
  const std::string label = algorithm + "/" + family;

  // Uninterrupted reference.
  const auto ref_source = make_source(family, seed);
  std::unique_ptr<Policy> ref_policy;
  const EngineOptions ref_options = stream_options(algorithm, ff, ref_policy);
  Engine ref_engine(*ref_source, *ref_policy, ref_options);
  const Round end = ref_engine.arrival_end();
  ASSERT_GT(end, 2);
  ref_engine.run_rounds(*ref_source, end);
  const EngineResult reference = ref_engine.finish();

  // Interrupted: checkpoint at an arbitrary interior round.
  const Round mid = end / 3 + 1;
  const auto cut_source = make_source(family, seed);
  std::unique_ptr<Policy> cut_policy;
  const EngineOptions cut_options = stream_options(algorithm, ff, cut_policy);
  Engine cut_engine(*cut_source, *cut_policy, cut_options);
  cut_engine.run_rounds(*cut_source, mid);
  std::stringstream bytes(std::ios::in | std::ios::out | std::ios::binary);
  cut_engine.checkpoint(bytes, cut_source.get());

  // Restore onto a fresh engine and a fresh (position-zero) source.
  const auto resumed_source = make_source(family, seed);
  std::unique_ptr<Policy> resumed_policy;
  const EngineOptions resumed_options =
      stream_options(algorithm, ff, resumed_policy);
  Engine resumed_engine(*resumed_source, *resumed_policy, resumed_options);
  resumed_engine.restore(bytes, resumed_source.get());
  EXPECT_EQ(resumed_engine.round(), mid) << label;
  resumed_engine.run_rounds(*resumed_source, end);
  const EngineResult resumed = resumed_engine.finish();

  expect_identical(reference, resumed, label);
}

// Sharded pin (K=2): a run that writes a coordinated checkpoint set
// mid-stream is bit-identical to one that never checkpoints, and a
// resumed run from that set finishes bit-identical too.
TEST_P(CheckpointRoundTrip, ShardedBitIdentical) {
  const auto& [algorithm, family, ff] = GetParam();
  const std::uint64_t seed = 2;
  const std::string label = algorithm + "/" + family;
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) /
      ("ckpt_" + std::string(::testing::UnitTest::GetInstance()
                                 ->current_test_info()
                                 ->name()));
  std::filesystem::remove_all(dir);

  ShardedRunOptions base;
  base.fast_forward = ff;

  const auto ref_source = make_source(family, seed);
  const ShardedRunRecord reference = run_streaming_sharded(
      *ref_source, algorithm, 8, 2, kInfiniteHorizon, base);

  // Same run, checkpointing mid-stream: results unperturbed.  The drain
  // can push merged.rounds past the arrival horizon, so the checkpoint
  // round is picked inside the horizon itself.
  ShardedRunOptions writing = base;
  writing.checkpoint_dir = dir.string();
  writing.checkpoint_every = ref_source->horizon() / 2;
  ASSERT_GT(writing.checkpoint_every, 0);
  const auto ckpt_source = make_source(family, seed);
  const ShardedRunRecord checkpointed = run_streaming_sharded(
      *ckpt_source, algorithm, 8, 2, kInfiniteHorizon, writing);
  testing::expect_same_run(reference.merged, checkpointed.merged, label);

  // Resume from the set and finish: still bit-identical.
  ShardedRunOptions resuming = base;
  resuming.checkpoint_dir = dir.string();
  resuming.resume = true;
  const auto res_source = make_source(family, seed);
  const ShardedRunRecord resumed = run_streaming_sharded(
      *res_source, algorithm, 8, 2, kInfiniteHorizon, resuming);
  testing::expect_same_run(reference.merged, resumed.merged, label);
  ASSERT_EQ(reference.shards.size(), resumed.shards.size());
  for (std::size_t s = 0; s < reference.shards.size(); ++s) {
    testing::expect_same_run(reference.shards[s], resumed.shards[s],
                             label + " shard " + std::to_string(s));
  }
  std::filesystem::remove_all(dir);
}

std::vector<Cell> all_cells() {
  std::vector<Cell> cells;
  for (const char* const algorithm : kStreamingAlgorithms) {
    for (const char* const family : kFamilies) {
      for (const bool ff : {true, false}) {
        cells.emplace_back(algorithm, family, ff);
      }
    }
  }
  return cells;
}

std::string cell_name(const ::testing::TestParamInfo<Cell>& info) {
  std::string name = std::get<0>(info.param) + "_" + std::get<1>(info.param) +
                     (std::get<2>(info.param) ? "_ff" : "_noff");
  for (char& ch : name) {
    if (ch == '-') ch = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(Matrix, CheckpointRoundTrip,
                         ::testing::ValuesIn(all_cells()), cell_name);

/// A cloneable per-color generator (so K > 1 runs serve it shard-natively)
/// that raises `*trip` when color 0 synthesizes round `trip_round`: a
/// deterministic mid-run stop.  Only the shard owning color 0 writes the
/// flag, and the runner reads it after the segment's engines joined.
class TripwireSource final : public GeneratorSource {
 public:
  TripwireSource(std::uint64_t seed, volatile std::sig_atomic_t* trip,
                 Round trip_round)
      : GeneratorSource(/*delta=*/4, /*horizon=*/512),
        seed_(seed),
        trip_(trip),
        trip_round_(trip_round) {
    for (ColorId c = 0; c < 8; ++c) {
      add_color(Round{4} << (c % 3));
      streams_.push_back(derive_rng(seed, static_cast<std::uint64_t>(c)));
    }
  }

  [[nodiscard]] std::unique_ptr<GeneratorSource> clone() const override {
    return std::make_unique<TripwireSource>(seed_, trip_, trip_round_);
  }

 private:
  void synthesize_color(ColorId color, Round k) override {
    if (color == 0 && k == trip_round_ && trip_ != nullptr) *trip_ = 1;
    Rng& rng = streams_[static_cast<std::size_t>(color)];
    if (rng.bernoulli(0.6)) emit(color, k, rng.uniform(1, 3));
  }
  void checkpoint_extra(CheckpointWriter& w) const override {
    for (const Rng& rng : streams_) checkpoint_rng(w, rng);
  }
  void restore_extra(CheckpointReader& r) override {
    for (Rng& rng : streams_) restore_rng(r, rng);
  }

  std::uint64_t seed_;
  volatile std::sig_atomic_t* trip_;
  Round trip_round_;
  std::vector<Rng> streams_;
};

// Sharded stop-and-resume (K=2): the stop flag ends the run at the next
// cadence boundary with a checkpoint set, the resumed run finishes
// bit-identical to the uninterrupted one, and rotation leaves exactly
// checkpoint_keep complete sets.
TEST(CheckpointStop, ShardedStopResumesBitIdenticalAndKeepsKSets) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "ckpt_sharded_stop";
  std::filesystem::remove_all(dir);

  TripwireSource plain(5, nullptr, 0);
  const ShardedRunRecord reference =
      run_streaming_sharded(plain, "dlru-edf", 8, 2);

  volatile std::sig_atomic_t flag = 0;
  ShardedRunOptions options;
  options.checkpoint_dir = dir.string();
  options.checkpoint_every = 32;
  options.checkpoint_keep = 2;
  options.stop_flag = &flag;
  TripwireSource tripped(5, &flag, 100);
  const ShardedRunRecord stopped = run_streaming_sharded(
      tripped, "dlru-edf", 8, 2, kInfiniteHorizon, options);
  EXPECT_FALSE(stopped.finished);
  EXPECT_EQ(stopped.merged.rounds, 128);
  EXPECT_EQ(list_checkpoints(dir, ".manifest").size(), 2u);

  flag = 0;
  options.resume = true;
  TripwireSource again(5, nullptr, 0);
  const ShardedRunRecord resumed = run_streaming_sharded(
      again, "dlru-edf", 8, 2, kInfiniteHorizon, options);
  EXPECT_TRUE(resumed.finished);
  EXPECT_EQ(resumed.recovered_from, 128);
  testing::expect_same_run(reference.merged, resumed.merged,
                           "sharded stop/resume");
  ASSERT_EQ(reference.shards.size(), resumed.shards.size());
  for (std::size_t s = 0; s < reference.shards.size(); ++s) {
    testing::expect_same_run(reference.shards[s], resumed.shards[s],
                             "shard " + std::to_string(s));
  }
  // Two sets of one manifest and two sidecars each; nothing else.
  EXPECT_EQ(list_checkpoints(dir, ".manifest").size(), 2u);
  std::size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    (void)entry;
    ++files;
  }
  EXPECT_EQ(files, 6u);
  std::filesystem::remove_all(dir);
}

// Observer state rides inside the checkpoint: the restored run's stats and
// snapshot series equal the uninterrupted run's.
// The schedule recorder's section carries the churn it recorded: a run
// under charged repairs, cut mid-stream and resumed, records the same
// schedule, churn included.
TEST(CheckpointRecorder, RecordedChurnSurvivesRestore) {
  MtbfParams mtbf;
  mtbf.num_resources = 8;
  mtbf.horizon = 256;
  mtbf.mean_up = 20;
  mtbf.mean_down = 5;
  mtbf.seed = 3;
  const FaultPlan plan = make_mtbf_plan(mtbf);
  const auto run = [&plan](Round cut) {
    const auto source = make_source("random-batched", 2);
    std::unique_ptr<Policy> policy;
    EngineOptions options = stream_options("dlru-edf", true, policy);
    options.fault_plan = &plan;
    options.charge_repair = true;
    Engine engine(*source, *policy, options);
    if (cut > 0) {
      engine.run_rounds(*source, cut);
      std::stringstream bytes(std::ios::in | std::ios::out | std::ios::binary);
      engine.checkpoint(bytes, source.get());
      const auto resumed_source = make_source("random-batched", 2);
      std::unique_ptr<Policy> resumed_policy;
      EngineOptions resumed_options =
          stream_options("dlru-edf", true, resumed_policy);
      resumed_options.fault_plan = &plan;
      resumed_options.charge_repair = true;
      Engine resumed(*resumed_source, *resumed_policy, resumed_options);
      resumed.restore(bytes, resumed_source.get());
      resumed.run_rounds(*resumed_source, resumed.arrival_end());
      return resumed.finish();
    }
    engine.run_rounds(*source, engine.arrival_end());
    return engine.finish();
  };
  const EngineResult reference = run(0);
  ASSERT_GT(reference.cost.churn_reconfigs, 0);
  ASSERT_FALSE(reference.schedule.churn.empty());
  expect_identical(reference, run(97), "cut at 97");
}

TEST(CheckpointObserver, StatsAndSnapshotSeriesRoundTrip) {
  ObsConfig config;
  config.snapshot_every = 32;

  const auto run = [&](Observer& obs, bool interrupt) {
    const auto source = make_source("flash-crowd", 3);
    std::unique_ptr<Policy> policy;
    EngineOptions options = stream_options("dlru-edf", true, policy);
    options.observer = &obs;
    Engine engine(*source, *policy, options);
    const Round end = engine.arrival_end();
    if (!interrupt) {
      engine.run_rounds(*source, end);
      return engine.finish();
    }
    const Round mid = end / 2;
    engine.run_rounds(*source, mid);
    std::stringstream bytes(std::ios::in | std::ios::out | std::ios::binary);
    engine.checkpoint(bytes, source.get());

    const auto resumed_source = make_source("flash-crowd", 3);
    std::unique_ptr<Policy> resumed_policy;
    EngineOptions resumed_options =
        stream_options("dlru-edf", true, resumed_policy);
    resumed_options.observer = &obs;
    Engine resumed(*resumed_source, *resumed_policy, resumed_options);
    resumed.restore(bytes, resumed_source.get());
    resumed.run_rounds(*resumed_source, end);
    return resumed.finish();
  };

  Observer straight(config);
  const EngineResult a = run(straight, false);
  Observer restored(config);
  const EngineResult b = run(restored, true);

  expect_identical(a, b, "observer round trip");
  ASSERT_FALSE(straight.snapshots.empty());
  EXPECT_EQ(straight.snapshots, restored.snapshots);
  EXPECT_EQ(straight.final_snapshot, restored.final_snapshot);
  EXPECT_EQ(to_json_line(straight.final_snapshot),
            to_json_line(restored.final_snapshot));
}

/// Expects `restore` to throw an InputError whose message names `section`.
template <typename Restore>
void expect_rejection_naming(const Restore& restore,
                             const std::string& section) {
  try {
    restore();
    ADD_FAILURE() << "a mismatched " << section << " restored";
  } catch (const InputError& e) {
    EXPECT_NE(std::string(e.what()).find(section), std::string::npos)
        << e.what();
  }
}

// Restoring into an engine built with different options must reject, not
// half-apply.
TEST(CheckpointMismatch, RejectsDifferentOptionsOrPolicy) {
  const auto source = make_source("poisson", 5);
  std::unique_ptr<Policy> policy;
  const EngineOptions options = stream_options("dlru-edf", true, policy);
  Engine engine(*source, *policy, options);
  engine.run_rounds(*source, 16);
  std::stringstream bytes(std::ios::in | std::ios::out | std::ios::binary);
  engine.checkpoint(bytes, source.get());
  const std::string frame = bytes.str();

  {
    // Different resource count.
    const auto s2 = make_source("poisson", 5);
    std::unique_ptr<Policy> p2;
    EngineOptions o2 = stream_options("dlru-edf", true, p2);
    o2.num_resources = 4;
    Engine e2(*s2, *p2, o2);
    std::istringstream in(frame, std::ios::binary);
    expect_rejection_naming([&] { e2.restore(in, s2.get()); },
                            "engine options section");
  }
  {
    // Different policy.
    const auto s2 = make_source("poisson", 5);
    std::unique_ptr<Policy> p2;
    const EngineOptions o2 = stream_options("dlru", true, p2);
    Engine e2(*s2, *p2, o2);
    std::istringstream in(frame, std::ios::binary);
    EXPECT_THROW(e2.restore(in, s2.get()), InputError);
  }
  {
    // Restoring WITHOUT a source must still work: the embedded source
    // state is skipped, for callers that reposition the source themselves.
    const auto s2 = make_source("poisson", 5);
    std::unique_ptr<Policy> p2;
    const EngineOptions o2 = stream_options("dlru-edf", true, p2);
    Engine e2(*s2, *p2, o2);
    std::istringstream in(frame, std::ios::binary);
    e2.restore(in, nullptr);
    EXPECT_EQ(e2.round(), 16);
  }
}

// Two sources with equal color counts, Delta and horizon but different
// per-color delay bounds: a checkpoint of one must not restore onto the
// other (the resumed run would corrupt the pending calendar).
TEST(CheckpointMismatch, RejectsDifferentPerColorMetadata) {
  const auto poisson = [](std::uint64_t seed) {
    PoissonParams params;
    params.seed = seed;
    return std::make_unique<PoissonSource>(params);
  };
  const auto source = poisson(1);
  std::unique_ptr<Policy> policy;
  const EngineOptions options = stream_options("dlru-edf", true, policy);
  Engine engine(*source, *policy, options);
  engine.run_rounds(*source, 300);
  std::stringstream bytes(std::ios::in | std::ios::out | std::ios::binary);
  engine.checkpoint(bytes, source.get());

  const auto other = poisson(2);
  ASSERT_EQ(other->num_colors(), source->num_colors());
  ASSERT_EQ(other->delta(), source->delta());
  ASSERT_EQ(other->horizon(), source->horizon());
  ASSERT_NE(other->delay_bound(0), source->delay_bound(0));
  std::unique_ptr<Policy> other_policy;
  const EngineOptions other_options =
      stream_options("dlru-edf", true, other_policy);
  Engine restored(*other, *other_policy, other_options);
  EXPECT_THROW(restored.restore(bytes, other.get()), InputError);
}

// A generator restores only onto one with the same parameters and view.
TEST(CheckpointMismatch, RejectsDifferentGeneratorParametersOrView) {
  const auto source = [](Cost delta, const std::vector<ColorId>& view) {
    RandomBatchedParams params;
    params.delta = delta;
    params.num_colors = 4;
    auto generator = std::make_unique<RandomBatchedSource>(params);
    generator->restrict_to(view);
    return generator;
  };
  CheckpointWriter w;
  w.begin_section(1);
  source(8, {0, 2})->checkpoint(w);
  w.end_section();
  std::stringstream written;
  w.finish(written);
  const std::string frame = written.str();
  const auto restore_onto = [&frame](GeneratorSource& target) {
    std::istringstream in(frame, std::ios::binary);
    CheckpointReader r(in);
    r.open_section(1);
    target.restore(r);
  };
  restore_onto(*source(8, {0, 2}));
  for (const auto& other : {source(4, {0, 2}), source(8, {0, 1})}) {
    expect_rejection_naming([&] { restore_onto(*other); },
                            "generator header");
  }
}

// The manifest binds a set to its round: a set copied under a newer round
// is skipped, although its sidecars alone would restore (to the older
// round).
TEST(CheckpointMismatch, ShardedSetUnderAnotherRoundIsSkipped) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "ckpt_sharded_renamed";
  std::filesystem::remove_all(dir);
  ShardedRunOptions options;
  options.checkpoint_dir = dir.string();
  options.checkpoint_every = 64;
  options.checkpoint_keep = 1;
  const auto source = make_source("random-batched", 4);
  (void)run_streaming_sharded(*source, "dlru-edf", 8, 2, kInfiniteHorizon,
                              options);
  const auto sets = list_checkpoints(dir, ".manifest");
  ASSERT_EQ(sets.size(), 1u);
  const std::string from = "ckpt-" + std::to_string(sets[0].round);
  const std::string to = "ckpt-" + std::to_string(sets[0].round + 1);
  for (const char* suffix : {".manifest", ".shard0", ".shard1"}) {
    std::filesystem::copy_file(dir / (from + suffix), dir / (to + suffix));
  }

  options.checkpoint_every = 0;
  options.resume = true;
  const auto again = make_source("random-batched", 4);
  const ShardedRunRecord resumed = run_streaming_sharded(
      *again, "dlru-edf", 8, 2, kInfiniteHorizon, options);
  EXPECT_EQ(resumed.recovered_from, sets[0].round);

  // A run with another resource count finds no matching manifest.
  const auto other = make_source("random-batched", 4);
  expect_rejection_naming(
      [&] {
        (void)run_streaming_sharded(*other, "dlru-edf", 16, 2,
                                    kInfiniteHorizon, options);
      },
      "manifest of round");
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace rrs
