#include "algs/varbatch.h"

#include <algorithm>

#include "util/bits.h"
#include "util/check.h"

namespace rrs {

Round varbatch_effective_delay(Round p) {
  RRS_REQUIRE(p >= 1, "delay bound must be positive");
  if (p == 1) return 1;
  return floor_pow2(p) / 2;  // == p/2 for power-of-two p
}

VarBatchSource::VarBatchSource(ArrivalSource& input)
    : input_(&input),
      horizon_(input.horizon()),
      held_(static_cast<std::size_t>(input.num_colors())),
      release_(held_.size()) {
  // A job waits less than its delay bound for its release.
  if (input.finite() && !held_.empty()) {
    horizon_ += input.colors_by_delay().rbegin()->first;
  }
}

std::int64_t VarBatchSource::batch_bound(ColorId color) const {
  const std::int64_t bound = input_->batch_bound(color);
  const bool straddles = input_->delay_bound(color) % delay_bound(color) != 0;
  return straddles ? 2 * bound : bound;
}

std::span<const Job> VarBatchSource::arrivals_in_round(Round k) {
  out_.clear();
  for (std::size_t c = 0; c < held_.size(); ++c) {
    if (held_[c].empty() || release_[c] > k) continue;
    RRS_REQUIRE(release_[c] == k, "VarBatch pulled at round "
                                      << k << ", past color " << c
                                      << "'s release at round "
                                      << release_[c]);
    out_.insert(out_.end(), held_[c].begin(), held_[c].end());
    held_[c].clear();
  }
  // Half-blocks of several colors may end here: release in input order.
  std::sort(out_.begin(), out_.end(),
            [](const Job& a, const Job& b) { return a.id < b.id; });
  for (const Job& job : input_->arrivals_in_round(k)) {
    const auto c = static_cast<std::size_t>(job.color);
    if (job.delay_bound == 1) {
      out_.push_back(job);
      continue;
    }
    const Round e = varbatch_effective_delay(job.delay_bound);
    release_[c] = floor_multiple(k, e) + e;
    held_[c].push_back(job);
  }
  for (Job& job : out_) {
    job.arrival = k;
    job.delay_bound = varbatch_effective_delay(job.delay_bound);
  }
  return out_;
}

Round VarBatchSource::next_event_round(Round k, Round limit) {
  Round stop = limit;
  for (std::size_t c = 0; c < held_.size(); ++c) {
    if (!held_[c].empty()) stop = std::min(stop, release_[c]);
  }
  return input_->next_event_round(k, stop);
}

}  // namespace rrs
