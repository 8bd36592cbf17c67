// Crash-safe supervised streaming: run_service runs the round engine
// under checkpoint/restore so a killed process resumes from its newest
// valid checkpoint with bit-identical results.
//
// Protocol per checkpoint: serialize the engine (source embedded) into
// `ckpt-<round>.rrsckpt.tmp`, fsync-free atomic rename into place, then
// rotate: keep the newest `checkpoint_keep` of this run's own
// checkpoints and delete every other one in the directory.  Recovery
// scans the directory newest-first and restores the first checkpoint that
// passes full validation (framing, CRC, options fingerprint); corrupt,
// truncated or mismatched files are skipped to the next-oldest.  A run
// that checkpoints and resumes is bit-identical to one that never stopped.
#pragma once

#include <csignal>
#include <filesystem>
#include <string>
#include <vector>

#include "sim/runner.h"

namespace rrs {

/// Knobs for one supervised service run: the shared run knobs (see
/// RunOptions; checkpoint_dir is required here) plus the pull cap.
struct ServiceOptions : RunOptions {
  /// Cap on rounds pulled from the source (required for infinite ones).
  Round max_rounds = kInfiniteHorizon;
};

/// Outcome of one run_service call.
struct ServiceResult : RunStatus {
  StreamRunRecord record;  ///< the run's measured record (see runner.h)
  /// Next round the engine would have run when the service returned (==
  /// record.rounds when finished).
  Round stopped_at = 0;
};

/// One discovered checkpoint file.
struct CheckpointFile {
  Round round = 0;
  std::filesystem::path path;
};

/// Lists `ckpt-<round><suffix>` files in `dir`, newest (highest round)
/// first.  Non-matching names are ignored; a missing directory yields an
/// empty list.
[[nodiscard]] std::vector<CheckpointFile> list_checkpoints(
    const std::filesystem::path& dir, const std::string& suffix);

/// Runs the streaming algorithm `name` with `n` resources against
/// `source` under checkpoint supervision: the one-engine case of
/// run_streaming_sharded with checkpoints.  The source must support
/// checkpointing (GeneratorSource or MaterializedSource); its cursor is
/// embedded in every checkpoint so recovery repositions it exactly.
/// Results are bit-identical to run_streaming with the same knobs.
[[nodiscard]] ServiceResult run_service(ArrivalSource& source,
                                        const std::string& name, int n,
                                        const ServiceOptions& options);

/// Installs a SIGTERM + SIGINT handler that sets `*flag` to 1 (the flag
/// must outlive the handler).  Returns false when either registration
/// failed.  Handlers write only the sig_atomic_t flag, so they are
/// async-signal-safe; call once per process.
bool install_signal_stop(volatile std::sig_atomic_t* flag);

}  // namespace rrs
