#include "sim/service.h"

#include <algorithm>
#include <charconv>
#include <csignal>
#include <filesystem>
#include <string>
#include <string_view>
#include <system_error>
#include <utility>

#include "util/check.h"

namespace rrs {

namespace {

volatile std::sig_atomic_t* g_stop_flag = nullptr;

// Async-signal-safe: writes only the sig_atomic_t flag.
void stop_signal_handler(int /*signum*/) {
  if (g_stop_flag != nullptr) *g_stop_flag = 1;
}

}  // namespace

bool install_signal_stop(volatile std::sig_atomic_t* flag) {
  RRS_REQUIRE(flag != nullptr, "install_signal_stop: flag must be non-null");
  g_stop_flag = flag;
  const bool term_ok = std::signal(SIGTERM, stop_signal_handler) != SIG_ERR;
  const bool int_ok = std::signal(SIGINT, stop_signal_handler) != SIG_ERR;
  return term_ok && int_ok;
}

std::vector<CheckpointFile> list_checkpoints(const std::filesystem::path& dir,
                                             const std::string& suffix) {
  std::vector<CheckpointFile> out;
  std::error_code ec;
  std::filesystem::directory_iterator it(dir, ec);
  if (ec) return out;  // missing directory: nothing to resume from
  constexpr std::string_view prefix = "ckpt-";
  for (const std::filesystem::directory_entry& entry : it) {
    if (!entry.is_regular_file()) continue;
    const std::string stem = entry.path().filename().string();
    if (stem.size() <= prefix.size() + suffix.size()) continue;
    if (stem.compare(0, prefix.size(), prefix) != 0) continue;
    if (stem.compare(stem.size() - suffix.size(), suffix.size(), suffix) !=
        0) {
      continue;
    }
    const std::string digits = stem.substr(
        prefix.size(), stem.size() - prefix.size() - suffix.size());
    Round round = 0;
    const auto [ptr, err] = std::from_chars(
        digits.data(), digits.data() + digits.size(), round);
    if (err != std::errc{} || ptr != digits.data() + digits.size() ||
        round < 0) {
      continue;
    }
    out.push_back({round, entry.path()});
  }
  std::sort(out.begin(), out.end(),
            [](const CheckpointFile& a, const CheckpointFile& b) {
              return a.round > b.round;
            });
  return out;
}

ServiceResult run_service(ArrivalSource& source, const std::string& name,
                          int n, const ServiceOptions& options) {
  RRS_REQUIRE(!options.checkpoint_dir.empty(),
              "run_service needs checkpoint_dir");
  ShardedRunOptions one_engine;
  static_cast<RunOptions&>(one_engine) = options;
  ShardedRunRecord run = run_streaming_sharded(source, name, n, 1,
                                               options.max_rounds, one_engine);
  ServiceResult result;
  static_cast<RunStatus&>(result) = run;
  result.record = std::move(run.merged);
  result.stopped_at = result.record.rounds;
  return result;
}

}  // namespace rrs
