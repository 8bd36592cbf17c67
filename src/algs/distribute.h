// Algorithm Distribute (Section 4.1): batched -> rate-limited reduction.
//
// Given batched arrivals [Delta | 1 | D_l | D_l] (possibly more than D_l
// color-l jobs per batch), Distribute recolors the job of rank r among
// color l's batch to the virtual color (l, floor(r / D_l)).  dLRU-EDF
// serves the rate-limited result, and its run is mapped back by erasing
// the virtual-color distinction, which never increases cost (Lemma 4.2):
// executions are 1:1, and recolorings between siblings vanish.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/arrival_source.h"
#include "core/run_events.h"
#include "core/schedule.h"

namespace rrs {

/// Distribute as an arrival-source adapter over `input` (not owned, pulled
/// only through it).  With C input colors and J = max over l of
/// ceil(B_l / D_l), B_l being the input's batch_bound, virtual color
/// (l, j) is j * C + l, priced like l.  An unused (l, j) stays idle; on
/// rate-limited input J = 1 and the adapter is the identity.  Jobs keep
/// their order and ids.  A pull throws InputError for an arrival off its
/// color's block starts or a batch beyond its bound.  No checkpoints.
class DistributeSource final : public ArrivalSource {
 public:
  explicit DistributeSource(ArrivalSource& input);

  [[nodiscard]] Cost delta() const override { return input_->delta(); }
  [[nodiscard]] ColorId num_colors() const override {
    return model_.num_colors();
  }
  [[nodiscard]] Round delay_bound(ColorId color) const override;
  [[nodiscard]] Cost drop_cost(ColorId color) const override {
    return model_.drop_cost(color);
  }
  [[nodiscard]] Round length(ColorId color) const override {
    return model_.length(color);
  }
  [[nodiscard]] const CostModel& cost_model() const override {
    return model_;
  }
  [[nodiscard]] Round horizon() const override { return input_->horizon(); }
  [[nodiscard]] std::span<const Job> arrivals_in_round(Round k) override;
  [[nodiscard]] Round next_event_round(Round k, Round limit) override {
    return input_->next_event_round(k, limit);
  }

 private:
  ArrivalSource* input_;
  CostModel model_;                  ///< the input's, per virtual color
  std::vector<std::int64_t> bound_;  ///< real color -> B_l
  std::vector<std::int64_t> rank_;   ///< real color -> its jobs this round
  std::vector<Job> out_;
};

/// Lemma 4.2's mapping as a run sink: engine color c is real color
/// global[c] mod C.  It drops the recolorings that keep a location's real
/// color and prices the rest, and charged repairs, through `real_model`
/// (the C real colors), so `cost` is the mapped run's.
class MapBackSink final : public CostTally {
 public:
  MapBackSink(const CostModel& real_model, std::span<const ColorId> global)
      : model_(real_model), global_(global.begin(), global.end()) {}

  /// Also records the mapped run as a schedule; call before any event.
  void record(int num_resources, int speed) {
    recording_ = true;
    recorder_.schedule.num_resources = num_resources;
    recorder_.schedule.speed = speed;
  }

  [[nodiscard]] Schedule take_schedule() {
    return std::move(recorder_.schedule);
  }

  void on_churn(const Churn& e) override;
  void on_reconfig(const Reconfiguration& e) override;
  /// The recorder keeps an execution's location and job id, not colors.
  void on_exec(const ExecUnit& e) override {
    if (recording_) recorder_.on_exec(e);
  }

 private:
  [[nodiscard]] ColorId real(ColorId color) const {
    if (color == kBlack) return kBlack;
    return global_[static_cast<std::size_t>(color)] % model_.num_colors();
  }

  CostModel model_;
  std::vector<ColorId> global_;
  bool recording_ = false;
  ScheduleRecorder recorder_;
};

}  // namespace rrs
