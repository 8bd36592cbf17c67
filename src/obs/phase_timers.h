#pragma once

#include <array>
#include <chrono>
#include <cstdint>

namespace rrs {

/// Engine phases attributed by the per-phase timers.
enum class EnginePhase : int {
  kChurn = 0,    // fault-plan capacity churn (phase 0)
  kDrop = 1,     // expiry sweep
  kArrival = 2,  // arrival ingest
  kPolicy = 3,   // policy callback + reconfig commit
  kExec = 4,     // execution mini-rounds
};

/// Wall-clock attribution of engine time to phases.  One time point is set
/// at the start of each round; note(phase) charges the slice since the
/// last boundary to that phase, reading the clock once.  Off by default
/// (ObsConfig::timers): a clock read per phase per round is cheap but not
/// free, so the bit-identical off mode never touches a clock.
class PhaseTimers {
 public:
  static constexpr int kNumPhases = 5;

  static const char* phase_name(EnginePhase phase) {
    switch (phase) {
      case EnginePhase::kChurn:
        return "churn";
      case EnginePhase::kDrop:
        return "drop";
      case EnginePhase::kArrival:
        return "arrival";
      case EnginePhase::kPolicy:
        return "policy";
      case EnginePhase::kExec:
        return "exec";
    }
    return "unknown";
  }

  /// Marks the start of a round (or segment).
  void begin_segment() { last_ = Clock::now(); }

  /// Charges time since the last begin_segment()/note() to `phase`.
  void note(EnginePhase phase) {
    const Clock::time_point now = Clock::now();
    const auto i = static_cast<std::size_t>(phase);
    seconds_[i] += std::chrono::duration<double>(now - last_).count();
    ++laps_[i];
    last_ = now;
  }

  [[nodiscard]] double seconds(EnginePhase phase) const {
    return seconds_[static_cast<std::size_t>(phase)];
  }
  [[nodiscard]] std::int64_t laps(EnginePhase phase) const {
    return laps_[static_cast<std::size_t>(phase)];
  }
  [[nodiscard]] double total_seconds() const {
    double total = 0.0;
    for (const double s : seconds_) total += s;
    return total;
  }

  /// Additive merge (used to aggregate per-shard timers).
  void merge(const PhaseTimers& other) {
    for (std::size_t i = 0; i < seconds_.size(); ++i) {
      seconds_[i] += other.seconds_[i];
      laps_[i] += other.laps_[i];
    }
  }

  void reset() {
    seconds_.fill(0.0);
    laps_.fill(0);
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point last_ = Clock::now();
  std::array<double, kNumPhases> seconds_{};
  std::array<std::int64_t, kNumPhases> laps_{};
};

}  // namespace rrs
