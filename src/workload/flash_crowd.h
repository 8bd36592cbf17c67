// Flash-crowd workload: a sudden demand spike over steady background load.
//
// The motivating systems (shared data centers, routers) fear exactly this
// shape: a stable mix, then one service's demand multiplies for a stretch
// (breaking news, a viral object, a DDoS) and the allocator must decide
// how much capacity to move — and how fast — before the spike ends.
// The generator produces steady Poisson baselines plus one spike color
// whose rate jumps by `spike_factor` during [spike_start, spike_end).
//
// FlashCrowdSource streams the workload lazily (one round at a time,
// per-color RNG streams); make_flash_crowd materializes it.
#pragma once

#include <cstdint>
#include <vector>

#include "core/instance.h"
#include "workload/generator_source.h"

namespace rrs {

/// Parameters of the flash-crowd generator.
struct FlashCrowdParams {
  Cost delta = 16;
  int background_colors = 6;
  Round background_delay = 32;   ///< delay bound of background services
  double background_rate = 0.2;  ///< jobs/round/color, steady
  Round spike_delay = 8;         ///< delay bound of the spiking service
  double base_rate = 0.2;        ///< spike color's rate outside the spike
  double spike_factor = 20.0;    ///< rate multiplier during the spike
  Round spike_start = 1024;
  Round spike_end = 1536;
  /// Arrival-carrying rounds; kInfiniteHorizon streams forever.
  Round horizon = 4096;
  std::uint64_t seed = 1;
};

/// Lazy streaming flash-crowd workload.  The spike color is always
/// color 0; background colors follow.  Per-color decomposable (each
/// color's rate is a pure function of the round), so it supports
/// shard-native views via clone()/restrict_to().
class FlashCrowdSource : public GeneratorSource {
 public:
  explicit FlashCrowdSource(const FlashCrowdParams& params);

  [[nodiscard]] ColorId spike_color() const { return spike_color_; }

  [[nodiscard]] std::unique_ptr<GeneratorSource> clone() const override;

 private:
  void synthesize_color(ColorId color, Round k) override;
  /// Every color is a lane: the spike color's ends at the spike edges.
  Round poisson_lane(ColorId color, Round k, Lane& lane) final;

  /// The only mutable generation state is the per-color RNG streams.
  void checkpoint_extra(CheckpointWriter& w) const override {
    w.u64(streams_.size());
    for (const Rng& rng : streams_) checkpoint_rng(w, rng);
  }
  void restore_extra(CheckpointReader& r) override {
    RRS_REQUIRE(r.u64() == streams_.size(),
                "checkpoint RNG stream count mismatch");
    for (Rng& rng : streams_) restore_rng(r, rng);
  }

  std::vector<Rng> streams_;  // one RNG stream per color
  FlashCrowdParams params_;
  ColorId spike_color_ = 0;
  // The three rates a color draws at.
  PoissonMean background_;
  PoissonMean base_;
  PoissonMean spike_;
};

/// The generated instance plus the spiking color.
struct FlashCrowdInstance {
  Instance instance;
  ColorId spike_color = 0;
};

/// Builds the (unbatched) flash-crowd instance (materializes the streaming
/// source; params.horizon must be finite).
[[nodiscard]] FlashCrowdInstance make_flash_crowd(
    const FlashCrowdParams& params);

}  // namespace rrs
