// The benchmark's three workloads and the runs the driver makes of them.
//
// Each workload builds its own seeded source (the program receives only
// the generated source) and exposes:
//   * setup_once  — builds everything a run builds before its first round;
//   * run         — the timed, untraced workload run through the public
//                   runner (run_streaming / run_streaming_sharded /
//                   run_service);
//   * trace_cycle — one interleaved cycle of the traced pass: an untraced
//                   run, its traced twin, and any workload-specific cells;
//   * checks      — correctness checks made once per benchmark run.
// Every run returns a Sample whose totals the driver compares bit for bit
// against the committed reference, the other repetitions and the traced
// twin.
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "sim/runner.h"
#include "workload/generator_source.h"

namespace perfbench {

class LogHistogram;

/// The deterministic outputs a run must reproduce exactly.
struct Totals {
  rrs::CostBreakdown cost;
  std::int64_t arrived = 0;
  std::int64_t executed = 0;
  rrs::Round rounds = 0;
  std::int64_t peak_pending = 0;

  friend bool operator==(const Totals&, const Totals&) = default;
};

[[nodiscard]] Totals totals_of(const rrs::StreamRunRecord& record);
[[nodiscard]] Totals totals_of(const rrs::EngineResult& result);

/// A check the driver counts as one operation.
struct Check {
  std::string name;
  bool ok = false;
  std::string detail;  ///< why it failed; empty when ok
};

/// One workload run.  `kind` names the cell ("run", "traced", ...);
/// `fields` carries raw layer numbers the driver aggregates.
struct Sample {
  std::string kind;
  Totals totals;
  double seconds = 0.0;  ///< wall time of the run as its runner reports it
  double cpu_seconds = 0.0;  ///< process CPU time over the same call
  std::vector<std::pair<std::string, double>> fields;
  std::vector<Check> checks;  ///< checks made inside the run
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// True when a run uses only the calling thread, which the driver then
  /// pins to one CPU per repetition.
  [[nodiscard]] virtual bool single_threaded() const { return true; }

  /// Builds everything one run builds before its first round (source,
  /// fault plan, policy, engines, shard plan and demux fabric, checkpoint
  /// directory), then discards it.  Returns the nanoseconds until all of
  /// it was built; the teardown is not timed.
  [[nodiscard]] virtual std::int64_t setup_once(std::uint64_t seed) = 0;

  /// The timed workload run, tracing off.
  [[nodiscard]] virtual Sample run(std::uint64_t seed) = 0;

  /// One cycle of the traced pass; `cycle` alternates the order of paired
  /// cells so neither side always runs first.
  [[nodiscard]] virtual std::vector<Sample> trace_cycle(
      std::uint64_t seed, int cycle, LogHistogram& policy_ns) = 0;

  /// Checks independent of the timed runs, made once per benchmark run.
  [[nodiscard]] virtual std::vector<Check> checks(std::uint64_t seed) = 0;
};

/// "dense-serial", "matrix-sharded" or "sparse-service"; throws
/// rrs::InputError on other names.  `scratch` holds checkpoint files.
[[nodiscard]] std::unique_ptr<Workload> make_workload(
    std::string_view name, const std::filesystem::path& scratch);

/// The generalized-model source of E9's `generalized-lengths-matrix`
/// cell: random-batched arrival shapes over 32 colors with per-color job
/// lengths 1..3, drop weights 1..4 and a matrix Delta (per-color cold
/// prices plus a warm-discount ring).  It has no clone(), so the sharded
/// runner serves it through the demux fabric.
class GeneralizedBatchedSource final : public rrs::GeneratorSource {
 public:
  GeneralizedBatchedSource(rrs::Round horizon, std::uint64_t seed);

  [[nodiscard]] const rrs::CostModel& cost_model() const override {
    return model_;
  }

 private:
  void synthesize(rrs::Round k) override;

  std::vector<rrs::Rng> streams_;
  rrs::CostModel model_;
};

/// Measures the two E9 streaming anomalies for perfbench/README.md:
/// serial cells timed alone versus three at once (as E9's sweep times
/// them), and shards1 / observer-on cells versus run_streaming alone.
/// Prints one JSON line per measurement.
void run_e9_anomalies(double seconds);

}  // namespace perfbench
