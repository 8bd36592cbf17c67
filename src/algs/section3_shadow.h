// Section 3 by the book: a paper-literal shadow of the ranked policies.
//
// Section3Shadow is a RunSink.  From one engine's events alone (churn,
// drops, arrivals, membership changes, recolorings, execution units and
// round ends) it recomputes Section 3.1's per-color state with plain
// per-round scans: each color's counter, eligibility, color deadline,
// timestamp, epoch and pending count, plus the logical cached set and the
// down locations.  It keeps no calendar and no intrusive list, and it
// shares no code with EligibilityTracker or the policies.  With that state
// it
//   * checks each reconfiguration phase against the set the paper's rule
//     (dLRU, EDF or dLRU-EDF) picks from the phase's starting cache,
//     ranking with EdfKey and LruKey, and checks the replication
//     invariant: each cached color holds exactly `replication` up
//     locations physically configured to it;
//   * counts what the proof of Theorem 1 counts (epochs, eligible and
//     ineligible drops, super-epochs) and checks Lemmas 3.3 and 3.4 at
//     each round end and Lemma 3.15 at each epoch end.
//
// The lemmas are stated for dLRU-EDF in Theorem 1's model: rate-limited
// batched input, unit lengths and drop costs, scalar Delta, no churn,
// replication 2 at speed 1 (and n >= 8m for Lemma 3.15).  Outside it the
// shadow reports each lemma's result but does not count a failure as a
// violation.  The rule and replication checks apply to every input.
//
// The shadow keeps the tracker's documented conventions, each written in
// one place in section3_shadow.cc: block starts visit colors in ascending
// (D, color) order, a color with no wrap yet has timestamp 0, and a color
// wraps once the drop costs of its counted arrivals reach its cold price.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/arrival_source.h"
#include "core/engine.h"
#include "core/run_events.h"
#include "core/types.h"

namespace rrs {

/// Sort key for the EDF color ranking; smaller compares as better rank:
/// nonidle first, then ascending color deadline, then heavier drop weight
/// (more droppable value at stake), shorter length (more completions per
/// slot), smaller delay bound and smaller color.  Weight and length are
/// the constant 1 under the paper's uniform model, so the ranking is the
/// paper's (idle, deadline, delay bound, color) order there.
struct EdfKey {
  bool idle = false;
  Round color_deadline = 0;
  Cost weight = 1;
  Round length = 1;
  Round delay_bound = 0;
  ColorId color = 0;

  friend bool operator<(const EdfKey& a, const EdfKey& b) {
    if (a.idle != b.idle) return !a.idle;
    if (a.color_deadline != b.color_deadline)
      return a.color_deadline < b.color_deadline;
    if (a.weight != b.weight) return a.weight > b.weight;
    if (a.length != b.length) return a.length < b.length;
    if (a.delay_bound != b.delay_bound) return a.delay_bound < b.delay_bound;
    return a.color < b.color;
  }
};

/// Sort key for the dLRU recency ranking; smaller compares as better
/// rank: most recent timestamp first, ties by ascending color.
struct LruKey {
  Round timestamp = 0;
  ColorId color = 0;

  friend bool operator<(const LruKey& a, const LruKey& b) {
    if (a.timestamp != b.timestamp) return a.timestamp > b.timestamp;
    return a.color < b.color;
  }
};

/// The reconfiguration rule a shadow checks each phase against.  Seq-EDF
/// and DS-Seq-EDF are kEdf at replication 1.  kNone checks no rule (the
/// adaptive split, other LRU/EDF splits) and still counts.
enum class Section3Rule { kNone, kDLru, kEdf, kDLruEdf };

/// One failed check.
struct Section3Violation {
  Round round = 0;
  int mini = -1;           ///< the policy phase's mini-round, -1 outside one
  ColorId color = kBlack;  ///< kBlack for a check over the whole run
  std::string check;

  [[nodiscard]] std::string describe() const;
};

/// Jobs dropped and their summed drop costs.
struct DropTally {
  std::int64_t count = 0;
  Cost weight = 0;
};

/// What the shadow computed, so far or for the finished run.
struct Section3Report {
  /// Completed epochs plus one incomplete epoch per color that received a
  /// job (Section 3.2).
  std::int64_t epochs = 0;
  /// Drops split by their color's eligibility when they expired.
  DropTally dropped_eligible;
  DropTally dropped_ineligible;
  /// The recolorings' prices plus charged repairs.
  Cost reconfig_cost = 0;
  /// Section 3.4: completed super-epochs, timestamp increases, and the
  /// most epoch endings one color had within one super-epoch.
  std::int64_t super_epochs = 0;
  std::int64_t timestamp_increases = 0;
  std::int64_t max_epoch_endings = 0;
  /// Each lemma held at every check (Lemma 3.3: reconfig cost <= 4 *
  /// epochs * Delta; Lemma 3.4: ineligible drop cost <= epochs * Delta;
  /// Lemma 3.15: <= 2 epoch endings per color per super-epoch).
  bool lemma_3_3 = true;
  bool lemma_3_4 = true;
  bool lemma_3_15 = true;
  /// Theorem 1's model held throughout, so a failed lemma is a violation.
  bool in_model = true;
  std::int64_t phases_checked = 0;
  /// The first failed check that counts, or none.
  std::optional<Section3Violation> violation;
};

/// The paper-literal shadow; attach it with Engine::attach before the
/// first round and call finish() with the run's round count.
class Section3Shadow : public RunSink {
 public:
  /// `source` supplies the metadata (delay bounds, drop costs, lengths,
  /// cold prices), `options` n, replication and speed; `analysis_m` is the
  /// offline resource count super-epochs are counted for.
  Section3Shadow(const ArrivalSource& source, const EngineOptions& options,
                 Section3Rule rule, int analysis_m = 1);

  void on_churn(const Churn& e) override;
  void on_drop(const Drop& e) override;
  void on_arrivals(const Arrivals& e) override;
  void on_membership(const Membership& e) override;
  void on_reconfig(const Reconfiguration& e) override;
  void on_exec(const ExecUnit& e) override;
  void on_round_end(const RoundEnd& e) override;

  /// Closes the run at round `rounds` (EngineResult::rounds): the engine's
  /// terminal sweep has no round end, so its epoch ends and the final
  /// lemma checks happen here.
  void finish(Round rounds);

  [[nodiscard]] const Section3Report& report() const { return report_; }

 private:
  struct ColorState {
    Cost cnt = 0;
    bool eligible = false;
    bool seen = false;  ///< received a job, so its first epoch began
    Round deadline = 0;
    Round last_wrap = -1;
    Round timestamp = 0;
    std::int64_t pending = 0;
    std::int64_t updated_generation = 0;  ///< super-epoch of last update
    std::int64_t endings_generation = 0;  ///< super-epoch of `endings`
    std::int64_t endings = 0;
  };

  /// Moves the shadow to `stage` of `round`, running every check and
  /// block start passed on the way.
  void advance(Round round, int stage);
  void enter_stage(int stage);
  void end_epochs(Round k);
  void start_blocks(Round k);
  void check_rule(int mini);
  void check_replication(int mini);
  void check_totals();
  void fail(Round round, int mini, ColorId color, const std::string& check,
            bool counts = true);
  void fail_lemma(bool& held, ColorId color, const std::string& check,
                  bool counts);
  /// The round end's stage: after every mini-round's phase.
  [[nodiscard]] int end_stage() const;
  [[nodiscard]] EdfKey edf_key(ColorId color) const;
  [[nodiscard]] std::vector<ColorId> ranked_eligible(bool by_edf) const;

  // Metadata, fixed at construction.
  Section3Rule rule_;
  int num_resources_;
  int replication_;
  int speed_;
  int offline_m_;  ///< the analysis m super-epochs are counted for
  Cost delta_;
  std::vector<Round> delay_;
  std::vector<Cost> weight_;
  std::vector<Round> length_;
  std::vector<Cost> threshold_;
  std::vector<ColorId> by_delay_;  ///< colors in ascending (D, color)

  // State rebuilt from the events.
  std::vector<ColorState> colors_;
  std::vector<char> cached_;
  std::vector<char> phase_start_;  ///< the cached set when a phase began
  std::vector<ColorId> physical_;  ///< location -> configured color
  std::vector<char> down_;
  int num_down_ = 0;
  std::int64_t completed_epochs_ = 0;
  std::int64_t active_colors_ = 0;
  std::int64_t generation_ = 1;
  std::int64_t updated_this_super_ = 0;
  Round round_ = -1;
  int stage_ = 0;
  Section3Report report_;
};

/// Runs `policy` over `source` as run_policy does, with `shadow` attached,
/// and finishes the shadow at the run's end.
[[nodiscard]] EngineResult run_with_shadow(ArrivalSource& source,
                                           Policy& policy,
                                           const EngineOptions& options,
                                           Section3Shadow& shadow);

}  // namespace rrs
