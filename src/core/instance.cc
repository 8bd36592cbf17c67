#include "core/instance.h"

#include <algorithm>
#include <map>
#include <sstream>

#include "util/bits.h"
#include "util/check.h"

namespace rrs {

Round Instance::delay_bound(ColorId color) const {
  RRS_REQUIRE(color >= 0 && color < num_colors(),
              "color " << color << " out of range [0, " << num_colors()
                       << ")");
  return delay_bounds_[static_cast<std::size_t>(color)];
}

Cost Instance::drop_cost(ColorId color) const {
  RRS_REQUIRE(color >= 0 && color < num_colors(),
              "color " << color << " out of range [0, " << num_colors()
                       << ")");
  return drop_costs_[static_cast<std::size_t>(color)];
}

Round Instance::length(ColorId color) const {
  RRS_REQUIRE(color >= 0 && color < num_colors(),
              "color " << color << " out of range [0, " << num_colors()
                       << ")");
  return lengths_[static_cast<std::size_t>(color)];
}

Cost Instance::weight_of_color(ColorId color) const {
  RRS_REQUIRE(color >= 0 && color < num_colors(),
              "color " << color << " out of range");
  return weight_per_color_[static_cast<std::size_t>(color)];
}

std::span<const Job> Instance::arrivals_in_round(Round k) const {
  const auto it =
      std::lower_bound(request_rounds_.begin(), request_rounds_.end(), k);
  if (it == request_rounds_.end() || *it != k) return {};
  const auto idx =
      static_cast<std::size_t>(std::distance(request_rounds_.begin(), it));
  return std::span<const Job>(jobs_.data() + request_offsets_[idx],
                              request_offsets_[idx + 1] -
                                  request_offsets_[idx]);
}

Round Instance::next_arrival_round(Round k) const {
  const auto it =
      std::lower_bound(request_rounds_.begin(), request_rounds_.end(), k);
  return it == request_rounds_.end() ? -1 : *it;
}

std::int64_t Instance::jobs_of_color(ColorId color) const {
  RRS_REQUIRE(color >= 0 && color < num_colors(),
              "color " << color << " out of range");
  return jobs_per_color_[static_cast<std::size_t>(color)];
}

std::int64_t Instance::batch_bound(ColorId color) const {
  RRS_REQUIRE(color >= 0 && color < num_colors(),
              "color " << color << " out of range");
  return batch_bounds_[static_cast<std::size_t>(color)];
}

std::string Instance::summary() const {
  std::ostringstream os;
  os << num_colors() << " colors, " << jobs_.size() << " jobs, " << horizon_
     << " rounds, Delta=" << delta_;
  os << (batched_ ? (rate_limited_ ? ", rate-limited batched" : ", batched")
                  : ", unbatched");
  if (!all_pow2_) os << ", non-pow2 delays";
  return os.str();
}

InstanceBuilder& InstanceBuilder::delta(Cost d) {
  RRS_REQUIRE(d >= 1, "Delta must be a positive integer, got " << d);
  delta_ = d;
  return *this;
}

ColorId InstanceBuilder::add_color(Round d, Cost drop_cost, Round length) {
  RRS_REQUIRE(d >= 1, "delay bound must be >= 1, got " << d);
  RRS_REQUIRE(drop_cost >= 1, "drop cost must be >= 1, got " << drop_cost);
  RRS_REQUIRE(length >= 1, "job length must be >= 1, got " << length);
  delay_bounds_.push_back(d);
  drop_costs_.push_back(drop_cost);
  lengths_.push_back(length);
  return static_cast<ColorId>(delay_bounds_.size() - 1);
}

InstanceBuilder& InstanceBuilder::reconfig_cost(ColorId to, Cost cost) {
  return transition_cost(kBlack, to, cost);
}

InstanceBuilder& InstanceBuilder::transition_cost(ColorId from, ColorId to,
                                                  Cost cost) {
  RRS_REQUIRE(from == kBlack ||
                  (from >= 0 &&
                   static_cast<std::size_t>(from) < delay_bounds_.size()),
              "transition_cost: unknown from-color " << from);
  RRS_REQUIRE(to >= 0 && static_cast<std::size_t>(to) < delay_bounds_.size(),
              "transition_cost: unknown to-color " << to);
  RRS_REQUIRE(cost >= (from == kBlack ? 1 : 0),
              "transition cost must be >= " << (from == kBlack ? 1 : 0)
                                            << ", got " << cost);
  transitions_.push_back({from, to, cost});
  return *this;
}

InstanceBuilder& InstanceBuilder::add_jobs(ColorId color, Round arrival,
                                           std::int64_t count) {
  RRS_REQUIRE(color >= 0 &&
                  static_cast<std::size_t>(color) < delay_bounds_.size(),
              "add_jobs: unknown color " << color);
  RRS_REQUIRE(arrival >= 0, "add_jobs: negative arrival " << arrival);
  RRS_REQUIRE(count >= 0, "add_jobs: negative count " << count);
  if (count > 0) arrivals_.push_back({color, arrival, count});
  return *this;
}

InstanceBuilder& InstanceBuilder::min_horizon(Round h) {
  RRS_REQUIRE(h >= 0, "min_horizon must be >= 0");
  min_horizon_ = std::max(min_horizon_, h);
  return *this;
}

Instance InstanceBuilder::build() {
  RRS_REQUIRE(!built_, "InstanceBuilder::build() called twice");
  built_ = true;

  Instance inst;
  inst.delta_ = delta_;
  inst.delay_bounds_ = delay_bounds_;
  inst.drop_costs_ = drop_costs_;
  inst.lengths_ = lengths_;
  inst.jobs_per_color_.assign(delay_bounds_.size(), 0);
  inst.batch_bounds_.assign(delay_bounds_.size(), 0);
  inst.weight_per_color_.assign(delay_bounds_.size(), 0);
  for (const Cost w : drop_costs_) {
    if (w != 1) inst.unit_drop_costs_ = false;
  }
  for (const Round l : lengths_) {
    if (l != 1) inst.unit_lengths_ = false;
  }

  // Assemble the cost model (scalar unless reconfig/transition costs were
  // recorded, in which case the records promote the tier themselves).
  inst.model_.set_delta(delta_);
  inst.model_.resize(static_cast<ColorId>(delay_bounds_.size()));
  for (std::size_t c = 0; c < delay_bounds_.size(); ++c) {
    inst.model_.set_drop_cost(static_cast<ColorId>(c), drop_costs_[c]);
    inst.model_.set_length(static_cast<ColorId>(c), lengths_[c]);
  }
  for (const auto& t : transitions_) {
    inst.model_.set_transition_cost(t.from, t.to, t.cost);
  }
  inst.model_.validate();

  // Stable order: by arrival, ties in insertion order, so generators fully
  // control the "consistent order" semantics downstream.
  std::stable_sort(arrivals_.begin(), arrivals_.end(),
                   [](const PendingArrival& a, const PendingArrival& b) {
                     return a.arrival < b.arrival;
                   });

  std::int64_t total_jobs = 0;
  for (const auto& a : arrivals_) total_jobs += a.count;
  inst.jobs_.reserve(static_cast<std::size_t>(total_jobs));

  Round horizon = min_horizon_;
  std::map<std::pair<ColorId, Round>, std::int64_t> per_block;
  for (const auto& a : arrivals_) {
    const auto c = static_cast<std::size_t>(a.color);
    const Round d = delay_bounds_[c];
    std::int64_t& in_block = per_block[{a.color, a.arrival / d}];
    in_block += a.count;
    inst.batch_bounds_[c] = std::max(inst.batch_bounds_[c], in_block);
    const Cost w = drop_costs_[static_cast<std::size_t>(a.color)];
    const Round len = lengths_[static_cast<std::size_t>(a.color)];
    for (std::int64_t i = 0; i < a.count; ++i) {
      Job job;
      job.id = static_cast<JobId>(inst.jobs_.size());
      job.color = a.color;
      job.arrival = a.arrival;
      job.delay_bound = d;
      job.drop_cost = w;
      job.length = len;
      inst.jobs_.push_back(job);
    }
    inst.jobs_per_color_[static_cast<std::size_t>(a.color)] += a.count;
    inst.weight_per_color_[static_cast<std::size_t>(a.color)] += w * a.count;
    inst.total_weight_ += w * a.count;
    horizon = std::max(horizon, a.arrival + d);
    if (a.arrival % d != 0) inst.batched_ = false;
  }
  inst.horizon_ = horizon;

  // Request index over the sorted job array.
  for (std::size_t i = 0; i < inst.jobs_.size(); ++i) {
    if (i == 0 || inst.jobs_[i].arrival != inst.jobs_[i - 1].arrival) {
      inst.request_rounds_.push_back(inst.jobs_[i].arrival);
      inst.request_offsets_.push_back(i);
    }
  }
  inst.request_offsets_.push_back(inst.jobs_.size());

  // Classification: delay bounds, and batches of at most D_l jobs.
  inst.rate_limited_ = inst.batched_;
  for (std::size_t c = 0; c < delay_bounds_.size(); ++c) {
    if (!is_pow2(delay_bounds_[c])) inst.all_pow2_ = false;
    if (inst.batch_bounds_[c] > delay_bounds_[c]) inst.rate_limited_ = false;
  }
  return inst;
}

}  // namespace rrs
