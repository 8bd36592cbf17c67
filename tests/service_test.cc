// Supervised service mode: checkpoint cadence + rotation (within the
// run's own lineage), recovery from the newest valid checkpoint (corrupt
// files skipped to the next-oldest), stop-and-checkpoint, the trace dump
// on an engine invariant failure, and the kill-and-resume integration
// test (SIGKILL mid-run via fork, recover, bit-identical totals).
#include <gtest/gtest.h>

#include <csignal>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "obs/observer.h"
#include "sim/runner.h"
#include "sim/service.h"
#include "test_util.h"
#include "workload/flash_crowd.h"
#include "workload/poisson.h"

#ifdef __unix__
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <thread>
#endif

namespace rrs {
namespace {

std::unique_ptr<ArrivalSource> make_source(std::uint64_t seed,
                                           Round horizon = 512) {
  PoissonParams params;
  params.horizon = horizon;
  params.seed = seed;
  return std::make_unique<PoissonSource>(params);
}

std::filesystem::path test_dir(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / ("svc_" + name);
  std::filesystem::remove_all(dir);
  return dir;
}

TEST(ServiceRun, BitIdenticalToStreamingAndRotatesCheckpoints) {
  FlashCrowdParams crowd;  // a spike that piles up pending work mid-run
  crowd.spike_start = 128;
  crowd.spike_end = 192;
  crowd.horizon = 512;
  crowd.seed = 7;
  const std::function<std::unique_ptr<ArrivalSource>()> families[] = {
      [] { return make_source(1); },
      [&crowd] { return std::make_unique<FlashCrowdSource>(crowd); },
  };
  for (const auto& family : families) {
    const auto dir = test_dir("rotate");
    const auto plain = family();
    const StreamRunRecord reference = run_streaming(*plain, "dlru-edf", 8);

    const auto source = family();
    ServiceOptions options;
    options.checkpoint_dir = dir.string();
    options.checkpoint_every = 64;
    options.checkpoint_keep = 2;
    const ServiceResult result = run_service(*source, "dlru-edf", 8, options);

    EXPECT_TRUE(result.finished);
    EXPECT_EQ(result.recovered_from, -1);
    testing::expect_same_run(reference, result.record, source->summary());
    // Interior boundaries at 64, 128, ..., each written; only the last K
    // survive rotation.
    EXPECT_GT(result.checkpoints_written, 2);
    const auto files = list_checkpoints(dir, ".rrsckpt");
    EXPECT_EQ(files.size(), 2u);
    EXPECT_EQ(files.front().path.string(), result.final_checkpoint);
    std::filesystem::remove_all(dir);
  }
}

TEST(ServiceRun, ResumesFromNewestCheckpoint) {
  const auto dir = test_dir("resume");
  const auto first = make_source(2);
  ServiceOptions options;
  options.checkpoint_dir = dir.string();
  options.checkpoint_every = 128;
  const ServiceResult full = run_service(*first, "dlru-edf", 8, options);
  ASSERT_TRUE(full.finished);
  const auto files = list_checkpoints(dir, ".rrsckpt");
  ASSERT_FALSE(files.empty());

  // A fresh process restores the newest retained checkpoint and finishes
  // with the identical record.
  const auto again = make_source(2);
  ServiceOptions resume = options;
  resume.resume = true;
  const ServiceResult resumed = run_service(*again, "dlru-edf", 8, resume);
  EXPECT_TRUE(resumed.finished);
  EXPECT_EQ(resumed.recovered_from, files.front().round);
  testing::expect_same_run(full.record, resumed.record, "resumed");
  std::filesystem::remove_all(dir);
}

TEST(ServiceRun, CorruptNewestCheckpointSkipsToOlder) {
  const auto dir = test_dir("corrupt");
  const auto first = make_source(3);
  ServiceOptions options;
  options.checkpoint_dir = dir.string();
  options.checkpoint_every = 128;
  options.checkpoint_keep = 3;
  const ServiceResult full = run_service(*first, "dlru-edf", 8, options);
  auto files = list_checkpoints(dir, ".rrsckpt");
  ASSERT_GE(files.size(), 2u);

  // Flip a byte in the middle of the newest file: CRC must reject it and
  // recovery must fall back to the next-oldest.
  {
    std::fstream f(files.front().path,
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(0, std::ios::end);
    const auto size = static_cast<std::int64_t>(f.tellg());
    ASSERT_GT(size, 64);
    f.seekp(size / 2);
    char byte = 0;
    f.seekg(size / 2);
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x5a);
    f.seekp(size / 2);
    f.write(&byte, 1);
  }

  const auto again = make_source(3);
  ServiceOptions resume = options;
  resume.resume = true;
  const ServiceResult resumed = run_service(*again, "dlru-edf", 8, resume);
  EXPECT_TRUE(resumed.finished);
  EXPECT_EQ(resumed.recovered_from, files[1].round);
  testing::expect_same_run(full.record, resumed.record,
                           "resumed past corruption");
  std::filesystem::remove_all(dir);
}

TEST(ServiceRun, AllCheckpointsCorruptThrows) {
  const auto dir = test_dir("allcorrupt");
  const auto first = make_source(4);
  ServiceOptions options;
  options.checkpoint_dir = dir.string();
  options.checkpoint_every = 128;
  (void)run_service(*first, "dlru-edf", 8, options);
  for (const CheckpointFile& c : list_checkpoints(dir, ".rrsckpt")) {
    std::ofstream f(c.path, std::ios::binary | std::ios::trunc);
    f << "garbage";
  }
  const auto again = make_source(4);
  ServiceOptions resume = options;
  resume.resume = true;
  EXPECT_THROW((void)run_service(*again, "dlru-edf", 8, resume), InputError);
  std::filesystem::remove_all(dir);
}

TEST(ServiceRun, StopFlagCheckpointsAndResumeCompletes) {
  const auto dir = test_dir("stopflag");
  const auto plain = make_source(5);
  const StreamRunRecord reference = run_streaming(*plain, "dlru-edf", 8);

  // Pre-set flag: the service stops at the first boundary check, writes a
  // checkpoint of the exact stop point, and reports finished == false.
  volatile std::sig_atomic_t flag = 1;
  const auto source = make_source(5);
  ServiceOptions options;
  options.checkpoint_dir = dir.string();
  options.stop_flag = &flag;
  const ServiceResult stopped = run_service(*source, "dlru-edf", 8, options);
  EXPECT_FALSE(stopped.finished);
  EXPECT_EQ(stopped.stopped_at, 0);
  EXPECT_EQ(stopped.checkpoints_written, 1);

  const auto again = make_source(5);
  ServiceOptions resume = options;
  resume.stop_flag = nullptr;
  resume.resume = true;
  const ServiceResult resumed = run_service(*again, "dlru-edf", 8, resume);
  EXPECT_TRUE(resumed.finished);
  EXPECT_EQ(resumed.recovered_from, 0);
  testing::expect_same_run(reference, resumed.record, "stop and resume");
  std::filesystem::remove_all(dir);
}

TEST(ServiceRun, FreshRunInReusedDirectoryKeepsItsOwnLineage) {
  // Another run's checkpoints sit in the directory at higher rounds.  A
  // fresh run stopped at round 0 must keep its own checkpoint (rotation
  // ranks only this run's lineage) and a resume must restore it, not the
  // other run's newer file.
  const auto dir = test_dir("reused");
  ServiceOptions options;
  options.checkpoint_dir = dir.string();
  options.checkpoint_every = 64;
  options.checkpoint_keep = 3;
  const auto other = make_source(1);
  ASSERT_TRUE(run_service(*other, "dlru-edf", 8, options).finished);
  ASSERT_EQ(list_checkpoints(dir, ".rrsckpt").size(), 3u);

  const auto plain = make_source(2);
  const StreamRunRecord reference = run_streaming(*plain, "dlru-edf", 8);

  volatile std::sig_atomic_t flag = 1;
  ServiceOptions stopping = options;
  stopping.stop_flag = &flag;
  const auto source = make_source(2);
  const ServiceResult stopped = run_service(*source, "dlru-edf", 8, stopping);
  EXPECT_FALSE(stopped.finished);
  EXPECT_EQ(stopped.checkpoints_written, 1);
  EXPECT_TRUE(std::filesystem::exists(stopped.final_checkpoint));
  const auto files = list_checkpoints(dir, ".rrsckpt");
  ASSERT_EQ(files.size(), 1u);
  EXPECT_EQ(files.front().round, 0);

  ServiceOptions resume = options;
  resume.resume = true;
  const auto again = make_source(2);
  const ServiceResult resumed = run_service(*again, "dlru-edf", 8, resume);
  EXPECT_TRUE(resumed.finished);
  EXPECT_EQ(resumed.recovered_from, 0);
  testing::expect_same_run(reference, resumed.record, "reused directory");
  std::filesystem::remove_all(dir);
}

TEST(ServiceRun, DumpsTraceOnInvariantError) {
  // A source whose fast-forward hint overshoots its limit breaks the
  // engine's contract on the first skip; the service must dump the
  // observer's flight recorder before rethrowing, like every driver.
  class OvershootSource final : public ArrivalSource {
   public:
    [[nodiscard]] Cost delta() const override { return 2; }
    [[nodiscard]] ColorId num_colors() const override { return 1; }
    [[nodiscard]] Round delay_bound(ColorId) const override { return 4; }
    [[nodiscard]] Cost drop_cost(ColorId) const override { return 1; }
    [[nodiscard]] Round horizon() const override { return 64; }
    [[nodiscard]] std::span<const Job> arrivals_in_round(Round) override {
      return {};
    }
    [[nodiscard]] Round next_event_round(Round, Round limit) override {
      return limit + 1;
    }
  };

  const auto dir = test_dir("invariant");
  Observer observer;
  std::ostringstream dump;
  observer.trace_dump_out = &dump;
  ServiceOptions options;
  options.checkpoint_dir = dir.string();
  options.observer = &observer;
  OvershootSource source;
  EXPECT_THROW((void)run_service(source, "dlru-edf", 4, options),
               InvariantError);
  EXPECT_NE(dump.str().find("trace-ring dump"), std::string::npos);
  std::filesystem::remove_all(dir);
}

TEST(ServiceRun, InstallSignalStopSetsFlag) {
  static volatile std::sig_atomic_t flag = 0;
  ASSERT_TRUE(install_signal_stop(&flag));
  ASSERT_EQ(std::raise(SIGTERM), 0);
  EXPECT_EQ(flag, 1);
  // Restore defaults so a later real SIGTERM still kills the test binary.
  std::signal(SIGTERM, SIG_DFL);
  std::signal(SIGINT, SIG_DFL);
}

TEST(ServiceRun, ListCheckpointsIgnoresJunkAndSortsNewestFirst) {
  const auto dir = test_dir("listing");
  std::filesystem::create_directories(dir);
  for (const char* name :
       {"ckpt-5.rrsckpt", "ckpt-40.rrsckpt", "ckpt-7.rrsckpt",
        "ckpt-9.rrsckpt.tmp", "ckpt-.rrsckpt", "ckpt-abc.rrsckpt",
        "other-3.rrsckpt", "ckpt-11.manifest"}) {
    std::ofstream(dir / name) << "x";
  }
  const auto files = list_checkpoints(dir, ".rrsckpt");
  ASSERT_EQ(files.size(), 3u);
  EXPECT_EQ(files[0].round, 40);
  EXPECT_EQ(files[1].round, 7);
  EXPECT_EQ(files[2].round, 5);
  const auto manifests = list_checkpoints(dir, ".manifest");
  ASSERT_EQ(manifests.size(), 1u);
  EXPECT_EQ(manifests[0].round, 11);
  EXPECT_TRUE(list_checkpoints(dir / "missing", ".rrsckpt").empty());
  std::filesystem::remove_all(dir);
}

#ifdef __unix__
// The CI kill-and-resume integration test: a forked child runs the
// service and is SIGKILLed once at least one checkpoint is on disk; the
// parent recovers from the survivors and must reproduce the uninterrupted
// run's totals exactly.  Works whatever the kill lands on — mid-round,
// mid-write (the temp-file rename keeps half-written files invisible), or
// after natural completion.
TEST(ServiceKillAndResume, SigkillRecoversBitIdentical) {
  const auto dir = test_dir("sigkill");
  const Round horizon = 4096;
  const auto plain = make_source(6, horizon);
  const StreamRunRecord reference = run_streaming(*plain, "dlru-edf", 8);

  ServiceOptions options;
  options.checkpoint_dir = dir.string();
  options.checkpoint_every = 64;
  options.checkpoint_keep = 4;

  const pid_t child = fork();
  ASSERT_GE(child, 0) << "fork failed";
  if (child == 0) {
    // Child: run the service to completion (or until killed).  _exit so
    // no gtest/atexit machinery runs in the forked copy.
    try {
      const auto source = make_source(6, horizon);
      (void)run_service(*source, "dlru-edf", 8, options);
      _exit(0);
    } catch (...) {
      _exit(1);
    }
  }

  // Parent: wait until the child has committed at least one checkpoint
  // (or exited), then SIGKILL it mid-run.
  for (int spin = 0; spin < 10'000; ++spin) {
    if (!list_checkpoints(dir, ".rrsckpt").empty()) break;
    if (waitpid(child, nullptr, WNOHANG) != 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  kill(child, SIGKILL);
  int status = 0;
  waitpid(child, &status, 0);
  ASSERT_FALSE(list_checkpoints(dir, ".rrsckpt").empty())
      << "child died before its first checkpoint";

  const auto source = make_source(6, horizon);
  ServiceOptions resume = options;
  resume.resume = true;
  const ServiceResult recovered = run_service(*source, "dlru-edf", 8, resume);
  EXPECT_TRUE(recovered.finished);
  EXPECT_GE(recovered.recovered_from, 0);
  testing::expect_same_run(reference, recovered.record, "SIGKILL recovery");
  std::filesystem::remove_all(dir);
}
#endif  // __unix__

}  // namespace
}  // namespace rrs
