#include "core/arrival_source.h"

#include <algorithm>
#include <sstream>

#include "core/checkpoint.h"
#include "util/check.h"

namespace rrs {

const std::map<Round, std::vector<ColorId>>& ArrivalSource::colors_by_delay()
    const {
  if (!delay_index_built_) {
    for (ColorId c = 0; c < num_colors(); ++c) {
      colors_by_delay_[delay_bound(c)].push_back(c);
    }
    delay_index_built_ = true;
  }
  return colors_by_delay_;
}

const CostModel& ArrivalSource::cost_model() const {
  if (!model_built_) {
    model_.set_delta(delta());
    model_.resize(num_colors());
    for (ColorId c = 0; c < num_colors(); ++c) {
      model_.set_drop_cost(c, drop_cost(c));
      model_.set_length(c, length(c));
    }
    model_built_ = true;
  }
  return model_;
}

std::string ArrivalSource::summary() const {
  std::ostringstream os;
  os << num_colors() << " colors, ";
  if (finite()) {
    os << horizon() << " rounds";
  } else {
    os << "infinite horizon";
  }
  os << ", Delta=" << delta() << " (streaming)";
  return os.str();
}

void ArrivalSource::checkpoint(CheckpointWriter& w) const {
  (void)w;
  RRS_REQUIRE(false, "this arrival source does not support checkpointing: "
                         << summary());
}

void ArrivalSource::restore(CheckpointReader& r) {
  (void)r;
  RRS_REQUIRE(false, "this arrival source does not support restore: "
                         << summary());
}

void MaterializedSource::checkpoint(CheckpointWriter& w) const {
  w.str("materialized");
  w.i64(horizon());
}

void MaterializedSource::restore(CheckpointReader& r) {
  CheckpointWriter identity;
  checkpoint(identity);
  r.expect_bytes(identity.bytes(), "materialized-source header");
}

Round resolve_arrival_end(const ArrivalSource& source, Round max_rounds) {
  Round end = max_rounds;
  if (end == kInfiniteHorizon) {
    end = source.horizon();
    RRS_REQUIRE(end != kInfiniteHorizon,
                "an infinite source needs an explicit round cap; got "
                    << source.summary());
  } else if (source.finite()) {
    end = std::min(end, source.horizon());
  }
  RRS_REQUIRE(end >= 0, "the round cap must be >= 0, resolved to " << end);
  return end;
}

Instance materialize(ArrivalSource& source, Round rounds) {
  const Round end = resolve_arrival_end(source, rounds);

  InstanceBuilder builder;
  builder.delta(source.delta());
  const CostModel& model = source.cost_model();
  for (ColorId c = 0; c < source.num_colors(); ++c) {
    builder.add_color(source.delay_bound(c), source.drop_cost(c),
                      source.length(c));
  }
  if (model.tier() != CostModel::Tier::kScalar) {
    for (ColorId to = 0; to < source.num_colors(); ++to) {
      builder.reconfig_cost(to, model.cold_cost(to));
    }
  }
  if (model.tier() == CostModel::Tier::kMatrix) {
    for (ColorId from = 0; from < source.num_colors(); ++from) {
      for (ColorId to = 0; to < source.num_colors(); ++to) {
        builder.transition_cost(from, to, model.reconfig_cost(from, to));
      }
    }
  }
  for (Round k = 0; k < end; ++k) {
    for (const Job& job : source.arrivals_in_round(k)) {
      builder.add_jobs(job.color, k, 1);
    }
  }
  builder.min_horizon(end);
  return builder.build();
}

}  // namespace rrs
