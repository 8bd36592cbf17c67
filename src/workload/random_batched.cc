#include "workload/random_batched.h"

#include <algorithm>

#include "util/check.h"
#include "util/rng.h"

namespace rrs {

RandomBatchedSource::RandomBatchedSource(const RandomBatchedParams& params)
    : GeneratorSource(params.delta, params.horizon),
      params_(params),
      activity_(params.activity) {
  RRS_REQUIRE(params.num_colors >= 1, "need >= 1 color");
  RRS_REQUIRE(params.min_scale >= 0 && params.min_scale <= params.max_scale,
              "need 0 <= min_scale <= max_scale");
  RRS_REQUIRE(params.burst_factor > 0.0, "burst_factor must be positive");
  RRS_REQUIRE(params.min_drop_cost >= 1 &&
                  params.min_drop_cost <= params.max_drop_cost,
              "need 1 <= min_drop_cost <= max_drop_cost");

  // Static per-color attributes come from the base seed; job streams use
  // one derived RNG per color so round-major synthesis is deterministic.
  Rng rng(params.seed);
  streams_.reserve(static_cast<std::size_t>(params.num_colors));
  max_batch_.reserve(static_cast<std::size_t>(params.num_colors));
  for (int c = 0; c < params.num_colors; ++c) {
    const int scale = static_cast<int>(
        rng.uniform(params.min_scale, params.max_scale));
    const Round delay = Round{1} << scale;
    add_color(delay, rng.uniform(params.min_drop_cost,
                                 params.max_drop_cost));
    max_batch_.push_back(std::max<std::int64_t>(
        1, static_cast<std::int64_t>(params.burst_factor *
                                     static_cast<double>(delay))));
    streams_.push_back(derive_rng(params.seed,
                                  static_cast<std::uint64_t>(c)));
  }
  declare_batched();
}

std::unique_ptr<GeneratorSource> RandomBatchedSource::clone() const {
  return std::make_unique<RandomBatchedSource>(params_);
}

void RandomBatchedSource::synthesize_color(ColorId color, Round k) {
  // Batched: called only when D_color divides k.
  const auto c = static_cast<std::size_t>(color);
  Rng& stream = streams_[c];
  if (!stream.bernoulli(activity_)) return;
  emit(color, k, stream.uniform(1, max_batch_[c]));
}

Instance make_random_batched(const RandomBatchedParams& params) {
  RRS_REQUIRE(params.horizon >= 1,
              "materializing needs a finite horizon >= 1");
  RandomBatchedSource source(params);
  return materialize(source);
}

}  // namespace rrs
