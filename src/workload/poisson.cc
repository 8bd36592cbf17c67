#include "workload/poisson.h"

#include "util/bits.h"
#include "util/check.h"
#include "util/rng.h"

namespace rrs {

PoissonSource::PoissonSource(const PoissonParams& params)
    : GeneratorSource(params.delta, params.horizon), params_(params) {
  RRS_REQUIRE(params.num_colors >= 1, "need >= 1 color");
  RRS_REQUIRE(params.min_delay >= 1 && params.min_delay <= params.max_delay,
              "need 1 <= min_delay <= max_delay");
  mean_rate_ = poisson_mean(params.mean_rate, "mean_rate");

  // Static per-color delay bounds come from the base seed; job streams use
  // one derived RNG per color so round-major synthesis is deterministic.
  Rng rng(params.seed);
  streams_.reserve(static_cast<std::size_t>(params.num_colors));
  for (int c = 0; c < params.num_colors; ++c) {
    Round delay;
    if (params.arbitrary_delays) {
      delay = rng.uniform(params.min_delay, params.max_delay);
    } else {
      const int lo = floor_log2(ceil_pow2(params.min_delay));
      const int hi = floor_log2(floor_pow2(params.max_delay));
      delay = Round{1} << rng.uniform(lo, hi);
    }
    add_color(delay);
    streams_.push_back(derive_rng(params.seed,
                                  static_cast<std::uint64_t>(c)));
  }
}

std::unique_ptr<GeneratorSource> PoissonSource::clone() const {
  return std::make_unique<PoissonSource>(params_);
}

void PoissonSource::synthesize_color(ColorId color, Round k) {
  Lane lane;
  (void)poisson_lane(color, k, lane);
  const std::int64_t count = lane.stream->poisson(*lane.mean);
  if (count > 0) emit(color, k, count);
}

Round PoissonSource::poisson_lane(ColorId color, Round k, Lane& lane) {
  (void)k;
  lane.stream = &streams_[static_cast<std::size_t>(color)];
  lane.mean = &mean_rate_;
  return kInfiniteHorizon;
}

Instance make_poisson(const PoissonParams& params) {
  RRS_REQUIRE(params.horizon >= 1,
              "materializing needs a finite horizon >= 1");
  PoissonSource source(params);
  return materialize(source);
}

}  // namespace rrs
