// Unbatched Poisson arrivals: the general [Delta | 1 | D_l | 1] regime.
//
// Jobs of every color arrive in every round with Poisson-distributed
// counts; nothing is aligned to delay-bound multiples, so these instances
// exercise the full VarBatch pipeline (Theorem 3).  Delay bounds can be
// powers of two or arbitrary (Section 5.3 extension) depending on
// `arbitrary_delays`.
//
// PoissonSource streams the workload lazily (one round at a time,
// per-color RNG streams); make_poisson materializes it.
#pragma once

#include <cstdint>
#include <vector>

#include "core/instance.h"
#include "workload/generator_source.h"

namespace rrs {

/// Parameters of the Poisson generator.
struct PoissonParams {
  Cost delta = 8;
  int num_colors = 12;
  Round min_delay = 4;     ///< smallest delay bound
  Round max_delay = 128;   ///< largest delay bound
  bool arbitrary_delays = false;  ///< false: powers of two only
  double mean_rate = 0.25;  ///< mean jobs per color per round
  /// Arrival-carrying rounds; kInfiniteHorizon streams forever.
  Round horizon = 1024;
  std::uint64_t seed = 1;
};

/// Lazy streaming unbatched Poisson workload.  Per-color decomposable:
/// supports shard-native views via clone()/restrict_to().
class PoissonSource final : public GeneratorSource {
 public:
  explicit PoissonSource(const PoissonParams& params);

  [[nodiscard]] std::unique_ptr<GeneratorSource> clone() const override;

 private:
  void synthesize_color(ColorId color, Round k) override;
  /// Every color is a lane at the one mean rate, for the whole stream.
  Round poisson_lane(ColorId color, Round k, Lane& lane) override;

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

  PoissonParams params_;      // kept verbatim for clone()
  std::vector<Rng> streams_;  // one RNG stream per color
  PoissonMean mean_rate_;
};

/// Builds a random unbatched instance (materializes the streaming source;
/// params.horizon must be finite).
[[nodiscard]] Instance make_poisson(const PoissonParams& params);

}  // namespace rrs
