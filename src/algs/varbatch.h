// Algorithm VarBatch (Section 5.1 + 5.3): general -> batched reduction,
// and the paper's end-to-end online algorithm for [Delta | 1 | D_l | 1].
//
// Each job of delay bound p arriving in half-block i (of length e, where
// e = p/2 for power-of-two p, and e = floor_pow2(p)/2 in the Section 5.3
// extension to arbitrary bounds) is delayed to the start of half-block
// i+1 and its execution restricted there.  The delayed sequence is
// batched with delay bounds e, so Distribute + dLRU-EDF solve it; the
// schedule needs no mapping (jobs keep their ids, and delayed windows are
// contained in real windows), so cost is preserved exactly.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/arrival_source.h"

namespace rrs {

/// Effective batched delay bound for original bound `p`:
/// 1 for p == 1, floor_pow2(p) / 2 otherwise (= p/2 when p is a power of
/// two, matching Section 5.1; the general rule is Section 5.3).
[[nodiscard]] Round varbatch_effective_delay(Round p);

/// VarBatch as an arrival-source adapter over `input` (not owned, pulled
/// only through it).  It holds one half-block of arrivals per color and
/// releases them at the next half-block start, in input order with their
/// ids, under delay bound e = varbatch_effective_delay(D); D = 1 colors
/// are batched already and pass through.  A finite input's horizon grows
/// by its longest delay bound, which covers its last releases.  No
/// checkpoints.
class VarBatchSource final : public ArrivalSource {
 public:
  explicit VarBatchSource(ArrivalSource& input);

  [[nodiscard]] Cost delta() const override { return input_->delta(); }
  [[nodiscard]] ColorId num_colors() const override {
    return input_->num_colors();
  }
  [[nodiscard]] Round delay_bound(ColorId color) const override {
    return varbatch_effective_delay(input_->delay_bound(color));
  }
  [[nodiscard]] Cost drop_cost(ColorId color) const override {
    return input_->drop_cost(color);
  }
  [[nodiscard]] Round length(ColorId color) const override {
    return input_->length(color);
  }
  [[nodiscard]] const CostModel& cost_model() const override {
    return input_->cost_model();
  }
  /// A release meets one of the input's blocks, or two when e does not
  /// divide D.
  [[nodiscard]] std::int64_t batch_bound(ColorId color) const override;
  [[nodiscard]] Round horizon() const override { return horizon_; }
  [[nodiscard]] std::span<const Job> arrivals_in_round(Round k) override;
  /// The input's next arrival or the next release, whichever is first.
  [[nodiscard]] Round next_event_round(Round k, Round limit) override;

 private:
  ArrivalSource* input_;
  Round horizon_;
  std::vector<std::vector<Job>> held_;  ///< color -> its held half-block
  std::vector<Round> release_;          ///< color -> when held_ goes out
  std::vector<Job> out_;
};

}  // namespace rrs
