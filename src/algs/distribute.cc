#include "algs/distribute.h"

#include <algorithm>
#include <limits>

#include "util/check.h"

namespace rrs {

DistributeSource::DistributeSource(ArrivalSource& input) : input_(&input) {
  const ColorId colors = input.num_colors();
  std::int64_t copies = 1;  // J
  for (ColorId c = 0; c < colors; ++c) {
    bound_.push_back(input.batch_bound(c));
    copies = std::max(copies, (bound_.back() + input.delay_bound(c) - 1) /
                                  input.delay_bound(c));
  }
  RRS_REQUIRE(copies * colors <= std::numeric_limits<ColorId>::max(),
              "Distribute: " << colors << " colors times " << copies
                             << " copies overflow the color space");
  // The (l, j) copies are one physical image, priced like l.
  std::vector<ColorId> real_of(static_cast<std::size_t>(copies * colors));
  for (std::size_t v = 0; v < real_of.size(); ++v) {
    real_of[v] = static_cast<ColorId>(v % static_cast<std::size_t>(colors));
  }
  model_ = input.cost_model().restricted(real_of);
  rank_.assign(static_cast<std::size_t>(colors), 0);
}

Round DistributeSource::delay_bound(ColorId color) const {
  RRS_REQUIRE(color >= 0 && color < num_colors(),
              "color " << color << " out of range [0, " << num_colors()
                       << ")");
  return input_->delay_bound(color % input_->num_colors());
}

std::span<const Job> DistributeSource::arrivals_in_round(Round k) {
  const std::span<const Job> in = input_->arrivals_in_round(k);
  out_.assign(in.begin(), in.end());
  for (Job& job : out_) {
    const ColorId c = job.color;
    const auto i = static_cast<std::size_t>(c);
    RRS_REQUIRE(k % job.delay_bound == 0,
                "Distribute needs batched arrivals: color "
                    << c << " arrives at round " << k
                    << ", off its block starts (D = " << job.delay_bound
                    << ")");
    const std::int64_t rank = rank_[i]++;
    RRS_REQUIRE(rank < bound_[i], "Distribute: the batch of color "
                                      << c << " at round " << k
                                      << " exceeds its bound of "
                                      << bound_[i] << " jobs");
    job.color = static_cast<ColorId>(
        rank / job.delay_bound * input_->num_colors() + c);
  }
  for (const Job& job : in) rank_[static_cast<std::size_t>(job.color)] = 0;
  return out_;
}

void MapBackSink::on_churn(const Churn& e) {
  Churn mapped = e;
  mapped.lost = real(e.lost);
  if (e.charged) {
    mapped.price = mapped.lost == kBlack ? model_.delta()
                                         : model_.cold_cost(mapped.lost);
  }
  CostTally::on_churn(mapped);
  if (recording_) recorder_.on_churn(mapped);
}

void MapBackSink::on_reconfig(const Reconfiguration& e) {
  Reconfiguration mapped = e;
  mapped.from = real(e.from);
  mapped.to = real(e.to);
  if (mapped.from == mapped.to) return;
  mapped.price = model_.reconfig_cost(mapped.from, mapped.to);
  CostTally::on_reconfig(mapped);
  if (recording_) recorder_.on_reconfig(mapped);
}

}  // namespace rrs
