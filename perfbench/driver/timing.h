// Outside-in tracing for the benchmark's traced pass.
//
// The program is measured from outside: TimingSource wraps a real
// ArrivalSource and TimingPolicy wraps a real Policy, each forwarding every
// virtual to the wrapped object and timing only the calls into its layer
// (arrivals_in_round / next_event_round for the workload layer, on_round
// for the policy layer).  Nothing inside src/ is instrumented.  A wrapper
// that dropped a forward would silently change the run (e.g. turn
// fast-forward off), so tests/decorator_test.cc pins both wrappers as
// bit-identical to the unwrapped run.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/arrival_source.h"
#include "core/policy.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t ns_between(Clock::time_point a,
                                             Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

/// Log-bucket histogram of nanosecond durations: 8 linear sub-buckets per
/// power of two, so a reported quantile is within ~9% of the true value.
class LogHistogram {
 public:
  void add(std::int64_t ns) {
    ++counts_[bucket_of(ns < 1 ? 1 : ns)];
    ++total_;
  }

  [[nodiscard]] std::int64_t count() const { return total_; }

  /// Midpoint of the bucket holding quantile `q` in [0, 1]; 0 when empty.
  [[nodiscard]] double quantile(double q) const {
    if (total_ == 0) return 0.0;
    const auto rank = static_cast<std::int64_t>(q * static_cast<double>(total_ - 1));
    std::int64_t seen = 0;
    for (std::size_t b = 0; b < counts_.size(); ++b) {
      seen += counts_[b];
      if (seen > rank) return midpoint(b);
    }
    return midpoint(counts_.size() - 1);
  }

 private:
  static constexpr int kSub = 8;
  static constexpr int kOctaves = 40;

  static std::size_t bucket_of(std::int64_t ns) {
    const auto v = static_cast<std::uint64_t>(ns);
    const int octave = 63 - __builtin_clzll(v);
    if (octave < 3) return static_cast<std::size_t>(v);  // 1..7 exact
    const auto sub = static_cast<int>((v >> (octave - 3)) & (kSub - 1));
    const int b = (octave - 2) * kSub + sub;
    return static_cast<std::size_t>(b < kOctaves * kSub ? b
                                                        : kOctaves * kSub - 1);
  }

  static double midpoint(std::size_t b) {
    if (b < kSub) return static_cast<double>(b);
    const int octave = static_cast<int>(b) / kSub + 2;
    const int sub = static_cast<int>(b) % kSub;
    const double lo = static_cast<double>((kSub + sub)) *
                      static_cast<double>(std::uint64_t{1} << (octave - 3));
    const double width = static_cast<double>(std::uint64_t{1} << (octave - 3));
    return lo + width / 2.0;
  }

  std::array<std::int64_t, kOctaves * kSub> counts_{};
  std::int64_t total_ = 0;
};

/// Per-call timing of the workload layer.
struct SourceCounters {
  std::int64_t pulls = 0;         ///< arrivals_in_round calls
  std::int64_t pull_ns = 0;
  std::int64_t jobs = 0;          ///< jobs those pulls returned
  std::int64_t scans = 0;         ///< next_event_round calls
  std::int64_t scan_ns = 0;
  std::int64_t scanned_rounds = 0;  ///< sum of (returned round - k)
};

/// Forwards every ArrivalSource virtual to `inner`, timing the pull and
/// the fast-forward scan.
class TimingSource final : public rrs::ArrivalSource {
 public:
  explicit TimingSource(rrs::ArrivalSource& inner) : inner_(&inner) {}

  [[nodiscard]] const SourceCounters& counters() const { return counters_; }

  [[nodiscard]] rrs::Cost delta() const override { return inner_->delta(); }
  [[nodiscard]] rrs::ColorId num_colors() const override {
    return inner_->num_colors();
  }
  [[nodiscard]] rrs::Round delay_bound(rrs::ColorId color) const override {
    return inner_->delay_bound(color);
  }
  [[nodiscard]] rrs::Cost drop_cost(rrs::ColorId color) const override {
    return inner_->drop_cost(color);
  }
  [[nodiscard]] rrs::Round length(rrs::ColorId color) const override {
    return inner_->length(color);
  }
  [[nodiscard]] const rrs::CostModel& cost_model() const override {
    return inner_->cost_model();
  }
  [[nodiscard]] const std::map<rrs::Round, std::vector<rrs::ColorId>>&
  colors_by_delay() const override {
    return inner_->colors_by_delay();
  }
  [[nodiscard]] rrs::Round horizon() const override {
    return inner_->horizon();
  }
  [[nodiscard]] const rrs::Instance* materialized() const override {
    return inner_->materialized();
  }
  [[nodiscard]] std::string summary() const override {
    return inner_->summary();
  }
  void checkpoint(rrs::CheckpointWriter& w) const override {
    inner_->checkpoint(w);
  }
  void restore(rrs::CheckpointReader& r) override { inner_->restore(r); }

  [[nodiscard]] std::span<const rrs::Job> arrivals_in_round(
      rrs::Round k) override {
    const auto t0 = Clock::now();
    const std::span<const rrs::Job> jobs = inner_->arrivals_in_round(k);
    counters_.pull_ns += ns_between(t0, Clock::now());
    ++counters_.pulls;
    counters_.jobs += static_cast<std::int64_t>(jobs.size());
    return jobs;
  }

  [[nodiscard]] rrs::Round next_event_round(rrs::Round k,
                                            rrs::Round limit) override {
    const auto t0 = Clock::now();
    const rrs::Round next = inner_->next_event_round(k, limit);
    counters_.scan_ns += ns_between(t0, Clock::now());
    ++counters_.scans;
    counters_.scanned_rounds += next - k;
    return next;
  }

 private:
  rrs::ArrivalSource* inner_;
  SourceCounters counters_;
};

/// Per-call timing of the policy layer.
struct PolicyCounters {
  std::int64_t calls = 0;  ///< on_round calls (final sweep included)
  std::int64_t ns = 0;
};

/// Forwards every Policy virtual to `inner`, timing on_round into
/// `histogram` (shared across runs so quantiles pool every call).
class TimingPolicy final : public rrs::Policy {
 public:
  TimingPolicy(rrs::Policy& inner, LogHistogram& histogram)
      : inner_(&inner), histogram_(&histogram) {}

  [[nodiscard]] const PolicyCounters& counters() const { return counters_; }

  [[nodiscard]] std::string_view name() const override {
    return inner_->name();
  }
  void begin(const rrs::ArrivalSource& source, int num_resources,
             int speed) override {
    inner_->begin(source, num_resources, speed);
  }
  void on_round(rrs::RoundContext& ctx) override {
    const auto t0 = Clock::now();
    inner_->on_round(ctx);
    const std::int64_t ns = ns_between(t0, Clock::now());
    counters_.ns += ns;
    ++counters_.calls;
    histogram_->add(ns);
  }
  void on_capacity_change(rrs::Round round, int up, int total,
                          std::span<const rrs::ColorId> evicted) override {
    inner_->on_capacity_change(round, up, total, evicted);
  }
  [[nodiscard]] int resource_granularity(int replication) const override {
    return inner_->resource_granularity(replication);
  }
  [[nodiscard]] bool supports_fast_forward() const override {
    return inner_->supports_fast_forward();
  }
  [[nodiscard]] rrs::Round next_policy_event(rrs::Round k) const override {
    return inner_->next_policy_event(k);
  }
  [[nodiscard]] bool export_color_state(
      rrs::ColorId color, rrs::PolicyColorState& out) const override {
    return inner_->export_color_state(color, out);
  }
  void import_color_state(rrs::ColorId color,
                          const rrs::PolicyColorState& state) override {
    inner_->import_color_state(color, state);
  }
  [[nodiscard]] std::vector<std::pair<std::string, std::int64_t>> stats()
      const override {
    return inner_->stats();
  }
  void checkpoint_state(rrs::CheckpointWriter& w) const override {
    inner_->checkpoint_state(w);
  }
  void restore_state(rrs::CheckpointReader& r) override {
    inner_->restore_state(r);
  }

 private:
  rrs::Policy* inner_;
  LogHistogram* histogram_;
  PolicyCounters counters_;
};

}  // namespace perfbench
