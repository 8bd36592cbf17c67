#include "workload/flash_crowd.h"

#include "util/check.h"
#include "util/rng.h"

namespace rrs {

FlashCrowdSource::FlashCrowdSource(const FlashCrowdParams& params)
    : GeneratorSource(params.delta, params.horizon),
      params_(params),
      background_(poisson_mean(params.background_rate, "background_rate")),
      base_(poisson_mean(params.base_rate, "base_rate")),
      spike_(poisson_mean(params.base_rate * params.spike_factor,
                          "base_rate * spike_factor")) {
  RRS_REQUIRE(params.background_colors >= 0, "negative color count");
  RRS_REQUIRE(params.spike_factor >= 1.0, "spike_factor must be >= 1");
  RRS_REQUIRE(0 <= params.spike_start &&
                  params.spike_start <= params.spike_end &&
                  (params.horizon == kInfiniteHorizon ||
                   params.spike_end <= params.horizon),
              "need 0 <= spike_start <= spike_end <= horizon");

  spike_color_ = add_color(params.spike_delay);
  streams_.push_back(derive_rng(params.seed, 0));
  for (int c = 0; c < params.background_colors; ++c) {
    const ColorId color = add_color(params.background_delay);
    streams_.push_back(derive_rng(params.seed,
                                  static_cast<std::uint64_t>(color)));
  }
}

std::unique_ptr<GeneratorSource> FlashCrowdSource::clone() const {
  return std::make_unique<FlashCrowdSource>(params_);
}

void FlashCrowdSource::synthesize_color(ColorId color, Round k) {
  Lane lane;
  (void)poisson_lane(color, k, lane);
  const std::int64_t count = lane.stream->poisson(*lane.mean);
  if (count > 0) emit(color, k, count);
}

Round FlashCrowdSource::poisson_lane(ColorId color, Round k, Lane& lane) {
  // The per-color rate is a pure function of (color, k), so a view that
  // only ever draws this color replays exactly the full stream's draws.
  lane.stream = &streams_[static_cast<std::size_t>(color)];
  if (color != spike_color_) {
    lane.mean = &background_;
    return kInfiniteHorizon;
  }
  if (k < params_.spike_start) {
    lane.mean = &base_;
    return params_.spike_start;
  }
  if (k < params_.spike_end) {
    lane.mean = &spike_;
    return params_.spike_end;
  }
  lane.mean = &base_;
  return kInfiniteHorizon;
}

FlashCrowdInstance make_flash_crowd(const FlashCrowdParams& params) {
  RRS_REQUIRE(params.horizon >= 1,
              "materializing needs a finite horizon >= 1");
  FlashCrowdSource source(params);
  FlashCrowdInstance out;
  out.spike_color = source.spike_color();
  out.instance = materialize(source);
  return out;
}

}  // namespace rrs
