// Randomized batched workloads over a spectrum of delay bounds.
//
// The Theorem 1 / Theorem 2 experiments need families of batched
// instances: rate-limited ones (Section 3's core problem) and over-limit
// ones whose bursts exceed D_l jobs per batch (exercising Distribute's
// splitting).  Colors draw power-of-two delay bounds uniformly from
// [2^min_scale, 2^max_scale]; at each multiple of its delay bound a color
// is active with `activity` probability and receives a uniform batch of
// size up to `burst_factor * D_l` (factor <= 1 keeps the rate limit).
//
// RandomBatchedSource streams the workload lazily (one round at a time,
// per-color RNG streams); make_random_batched materializes it.
#pragma once

#include <cstdint>
#include <vector>

#include "core/instance.h"
#include "workload/generator_source.h"

namespace rrs {

/// Parameters of the random batched generator.
struct RandomBatchedParams {
  Cost delta = 8;
  int num_colors = 16;
  int min_scale = 2;   ///< smallest delay bound = 2^min_scale
  int max_scale = 6;   ///< largest delay bound = 2^max_scale
  /// Arrival-carrying rounds; kInfiniteHorizon streams forever.
  Round horizon = 1024;
  double activity = 0.7;      ///< P(color active at a given batch round)
  double burst_factor = 1.0;  ///< max batch size = burst_factor * D_l
  /// Per-job drop costs drawn uniformly from [min_drop_cost,
  /// max_drop_cost] per color (1/1 = the paper's unit-cost setting).
  Cost min_drop_cost = 1;
  Cost max_drop_cost = 1;
  std::uint64_t seed = 1;
};

/// Lazy streaming random batched workload (rate-limited iff
/// burst_factor <= 1).  Per-color decomposable: supports shard-native
/// views via clone()/restrict_to().  Batched: a color draws only on
/// multiples of its delay bound, so a round visits only the due colors.
class RandomBatchedSource final : public GeneratorSource {
 public:
  explicit RandomBatchedSource(const RandomBatchedParams& params);

  [[nodiscard]] std::unique_ptr<GeneratorSource> clone() const override;

  [[nodiscard]] std::int64_t batch_bound(ColorId color) const override {
    return max_batch_[global_of(color)];
  }

 private:
  void synthesize_color(ColorId color, Round k) override;

  /// The only mutable generation state is the per-color RNG streams;
  /// everything else is parameter-derived at construction.
  void checkpoint_extra(CheckpointWriter& w) const override {
    w.u64(streams_.size());
    for (const Rng& rng : streams_) checkpoint_rng(w, rng);
  }
  void restore_extra(CheckpointReader& r) override {
    RRS_REQUIRE(r.u64() == streams_.size(),
                "checkpoint RNG stream count mismatch");
    for (Rng& rng : streams_) restore_rng(r, rng);
  }

  RandomBatchedParams params_;         // kept verbatim for clone()
  std::vector<Rng> streams_;           // one RNG stream per color
  std::vector<std::int64_t> max_batch_;  // global-indexed (views relabel)
  double activity_;
};

/// Builds a random batched instance (materializes the streaming source;
/// params.horizon must be finite).
[[nodiscard]] Instance make_random_batched(const RandomBatchedParams& params);

}  // namespace rrs
