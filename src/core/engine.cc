#include "core/engine.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "core/checkpoint.h"
#include "core/pending.h"
#include "obs/observer.h"
#include "util/bits.h"
#include "util/check.h"

namespace rrs {

namespace {

/// Validates every option up front: a bad combination must fail loudly
/// at construction, not as silent misbehavior rounds later.
const EngineOptions& validate_options(const EngineOptions& options) {
  RRS_REQUIRE(options.num_resources >= 1, "need at least one resource");
  RRS_REQUIRE(options.speed >= 1, "speed must be >= 1");
  RRS_REQUIRE(options.replication >= 1, "replication must be >= 1");
  RRS_REQUIRE(options.num_resources % options.replication == 0,
              "num_resources (" << options.num_resources
                                << ") must be divisible by replication ("
                                << options.replication << ")");
  if (options.fault_plan != nullptr) {
    validate_fault_plan(*options.fault_plan, options.num_resources);
  }
  return options;
}

// Checkpoint payload section tags (see core/checkpoint.h for the framing).
constexpr std::uint32_t kTagOptions = 1;
constexpr std::uint32_t kTagEngine = 2;
constexpr std::uint32_t kTagPending = 3;
constexpr std::uint32_t kTagCache = 4;
constexpr std::uint32_t kTagPolicy = 5;
constexpr std::uint32_t kTagObserver = 6;
constexpr std::uint32_t kTagSource = 7;
constexpr std::uint32_t kTagSchedule = 8;

}  // namespace

void Policy::checkpoint_state(CheckpointWriter& w) const {
  (void)w;
  RRS_REQUIRE(false,
              "policy '" << name() << "' does not support checkpointing");
}

void Policy::restore_state(CheckpointReader& r) {
  (void)r;
  RRS_REQUIRE(false,
              "policy '" << name() << "' does not support checkpointing");
}

Engine::Engine(ArrivalSource& source, Policy& policy,
               const EngineOptions& options)
    : options_(validate_options(options)),
      policy_(&policy),
      cache_(options_.num_resources, options_.replication) {
  // Rounds carrying arrivals: the source's horizon, clipped by max_rounds.
  arrival_end_ = resolve_arrival_end(source, options_.max_rounds);

  // The cost model is copied once: every drop and reconfiguration charge
  // routes through it, and it stays valid after the feeding source dies.
  model_ = source.cost_model();
  delay_bounds_.reserve(static_cast<std::size_t>(source.num_colors()));
  for (ColorId c = 0; c < source.num_colors(); ++c) {
    delay_bounds_.push_back(source.delay_bound(c));
  }
  pending_.reset(source.num_colors());
  cache_.ensure_colors(source.num_colors());

  recorder_.schedule.num_resources = options_.num_resources;
  recorder_.schedule.speed = options_.speed;
  lost_.assign(static_cast<std::size_t>(options_.num_resources), kBlack);

  policy_->begin(source, options_.num_resources, options_.speed);

  Observer* const obs = options_.observer;
  if (options_.record_schedule) sinks_.push_back(&recorder_);
  if (obs != nullptr) {
    obs->begin_run(source.num_colors());
    sinks_.push_back(obs);
  }
  timers_ = obs != nullptr && obs->config.timers ? &obs->timers : nullptr;

  // Sparse-round fast-forward eligibility and the snapshot cadence are
  // resolved once: neither changes mid-run.
  ff_eligible_ = options_.fast_forward && policy_->supports_fast_forward();
  ff_snapshot_every_ = obs != nullptr ? obs->config.snapshot_every : 0;
}

Engine::~Engine() = default;

void Engine::churn_phase() {
  const FaultPlan* const plan = options_.fault_plan;
  if (plan == nullptr || fault_next_ >= plan->events.size() ||
      plan->events[fault_next_].round > k_) {
    return;
  }
  evicted_.clear();
  while (fault_next_ < plan->events.size() &&
         plan->events[fault_next_].round <= k_) {
    const FaultEvent& ev = plan->events[fault_next_++];
    const int r = ev.resource;
    ColorId& lost = lost_[static_cast<std::size_t>(r)];
    Churn churn{k_, r, ev.fail};
    ColorId evicted = kBlack;
    if (ev.fail) {
      // What re-imaging the location will cost on repair depends on the
      // physical content lost, which may differ from the evicted cached
      // color (a stale physical color is not in the cached set).
      lost = cache_.color_at(r);
      evicted = cache_.fail_location(r);
      ++result_.degraded.fault_events;
      if (evicted != kBlack) {
        ++result_.degraded.churn_evictions;
        evicted_.push_back(evicted);
      }
    } else {
      cache_.repair_location(r);
      ++result_.degraded.repair_events;
      if (options_.charge_repair) {
        // Re-imaging a repaired (blank) location prices via the cold
        // column of the color it lost; a location that was blank at
        // failure is charged the base Delta.  Scalar tier: both == Delta.
        churn.charged = true;
        churn.price = lost == kBlack ? model_.delta() : model_.cold_cost(lost);
        ++result_.cost.reconfig_events;
        ++result_.cost.churn_reconfigs;
        result_.cost.reconfig_cost += churn.price;
      }
    }
    churn.lost = lost;
    if (!sinks_.empty()) {
      emit(&RunSink::on_churn, churn);
      if (evicted != kBlack) {
        emit(&RunSink::on_membership, Membership{k_, -1, evicted, false});
      }
    }
  }
  policy_->on_capacity_change(k_, options_.num_resources - cache_.num_down(),
                              options_.num_resources, evicted_);
}

void Engine::run_round(ArrivalSource* pull) {
  // Phase 0: capacity churn — failures apply before this round's drop
  // and arrival phases.
  if (timers_ != nullptr) timers_->begin_segment();
  churn_phase();
  const bool degraded_round = cache_.num_down() > 0;
  if (degraded_round) ++result_.degraded.degraded_rounds;
  if (timers_ != nullptr) timers_->note(EnginePhase::kChurn);

  // Phase 1: drop.
  drop_phase(k_, degraded_round);
  if (timers_ != nullptr) timers_->note(EnginePhase::kDrop);

  // Phase 2: arrival (none in drain rounds past the arrival horizon).
  std::span<const Job> arrivals;
  if (pull != nullptr) arrivals = pull->arrivals_in_round(k_);
  pending_.add(arrivals);
  for (const Job& job : arrivals) {
    max_deadline_ = std::max(max_deadline_, job.deadline());
  }
  result_.arrived += static_cast<std::int64_t>(arrivals.size());
  result_.peak_pending = std::max(result_.peak_pending, pending_.total());
  if (!sinks_.empty() && !arrivals.empty()) {
    emit(&RunSink::on_arrivals, Arrivals{k_, arrivals});
  }
  if (timers_ != nullptr) timers_->note(EnginePhase::kArrival);

  for (int mini = 0; mini < options_.speed; ++mini) {
    // Phases 3+4 fused into one policy call: the policy ingests drops and
    // arrivals (on mini 0) and mutates the cache, all in one dispatch.
    cache_.begin_phase();
    RoundContext ctx(k_, mini, /*final_sweep=*/false, dropped_, arrivals,
                     pending_, cache_);
    policy_->on_round(ctx);
    if (!sinks_.empty()) {
      for (const MembershipChange& m : cache_.membership_changes()) {
        emit(&RunSink::on_membership,
             Membership{k_, mini, m.color, m.inserted});
      }
    }
    for (const Recoloring& e : cache_.finish_phase()) {
      const Cost price = model_.reconfig_cost(e.from, e.to);
      ++result_.cost.reconfig_events;
      result_.cost.reconfig_cost += price;
      if (!sinks_.empty()) {
        const Reconfiguration ev{k_, mini, e.location, e.from, e.to, price};
        emit(&RunSink::on_reconfig, ev);
      }
    }
    if (timers_ != nullptr) timers_->note(EnginePhase::kPolicy);

    // Execution — one pending job (earliest deadline first) per
    // configured resource.
    for (int r = 0; r < options_.num_resources; ++r) {
      const ColorId color = cache_.color_at(r);
      if (color == kBlack || pending_.idle(color)) continue;
      const PendingJobs::ExecResult exec = pending_.execute_earliest(color);
      ++result_.work_units;
      if (exec.completed) ++result_.executed;
      if (!sinks_.empty()) {
        const auto c = static_cast<std::size_t>(color);
        emit(&RunSink::on_exec,
             ExecUnit{k_, mini, r, exec.id, color, color,
                      exec.deadline - delay_bounds_[c], exec.deadline,
                      model_.length(color), model_.drop_cost(color),
                      exec.left});
      }
    }
    if (timers_ != nullptr) timers_->note(EnginePhase::kExec);
  }
  if (!sinks_.empty()) {
    emit(&RunSink::on_round_end, RoundEnd{k_, &result_, pending_.total()});
  }
  ++k_;
}

void Engine::drop_phase(Round through, bool degraded) {
  pending_.drop_expired(through, dropped_);
  Cost drop_cost = 0;
  for (const auto& [color, count] : dropped_.by_color) {
    const Cost weight = static_cast<Cost>(count) * model_.drop_cost(color);
    drop_cost += weight;
    if (!sinks_.empty()) {
      emit(&RunSink::on_drop, Drop{k_, color, count, weight});
    }
  }
  result_.cost.drops += drop_cost;
  if (degraded) result_.degraded.drops_while_degraded += drop_cost;
}

void Engine::run_rounds(ArrivalSource& source, Round until) {
  RRS_REQUIRE(!ended_, "run_rounds after finish/abandon");
  RRS_REQUIRE(until >= k_ && until <= arrival_end_,
              "segment end " << until << " outside [" << k_ << ", "
                             << arrival_end_ << "]");
  while (k_ < until) {
    run_round(&source);
    if (ff_eligible_ && k_ < until && pending_.total() == 0) {
      fast_forward(source, until);
    }
  }
}

void Engine::fast_forward(ArrivalSource& source, Round until) {
  // The latest round the skip may reach: no fault event, snapshot round or
  // policy event in between.
  Round stop = until;
  // Fault events apply at the start of their round.
  if (options_.fault_plan != nullptr &&
      fault_next_ < options_.fault_plan->events.size()) {
    stop = std::min(stop, options_.fault_plan->events[fault_next_].round);
  }
  // Snapshots fire after round k when (k + 1) % every == 0; the next such
  // round must run so the emission round (and its cumulative counters,
  // frozen across the skip) stay identical.
  if (ff_snapshot_every_ > 0) {
    stop = std::min(stop, ceil_multiple(k_ + 1, ff_snapshot_every_) - 1);
  }
  // The policy's own events, such as the ranked policies' block starts.
  const Round pe = policy_->next_policy_event(k_);
  if (pe != kInfiniteHorizon) stop = std::min(stop, std::max(pe, k_));
  if (stop <= k_) return;
  const Round next = source.next_event_round(k_, stop);
  RRS_CHECK_MSG(next >= k_ && next <= stop,
                "next_event_round(" << k_ << ", " << stop << ") returned "
                                    << next);
  if (next == k_) return;
  // The skipped rounds are observationally empty but still count as run
  // rounds; degraded accounting is the only per-round counter that moves
  // unconditionally.
  if (cache_.num_down() > 0) {
    result_.degraded.degraded_rounds += next - k_;
  }
  k_ = next;
}

EngineResult Engine::finish() {
  RRS_REQUIRE(!ended_, "finish after finish/abandon");
  RRS_REQUIRE(k_ == arrival_end_,
              "finish at round " << k_ << " before arrival_end "
                                 << arrival_end_);
  ended_ = true;
  // Optional drain: keep running (arrival-free) rounds until every pending
  // job has executed or expired (deadline <= k).
  while (options_.drain_pending && pending_.total() > 0 &&
         max_deadline_ > k_) {
    run_round(nullptr);
  }

  // Final drop phase at round `k`: every job still pending expires now,
  // including those due past k (a finite generator's last arrivals, or a
  // max_rounds clip, without draining).  Policies see this sweep
  // (final_sweep() == true, cache read-only) so their drop accounting
  // matches the engine's.
  drop_phase(std::max(k_, max_deadline_), cache_.num_down() > 0);
  RoundContext final_ctx(k_, 0, /*final_sweep=*/true, dropped_, {}, pending_,
                         cache_);
  policy_->on_round(final_ctx);

  return end_run();
}

EngineResult Engine::end_run() {
  result_.rounds = k_;
  result_.policy_stats = policy_->stats();
  result_.schedule = std::move(recorder_.schedule);
  if (options_.observer != nullptr) {
    options_.observer->finish_run(result_, k_, pending_.total());
  }
  return std::move(result_);
}

EngineResult Engine::abandon() {
  RRS_REQUIRE(!ended_, "abandon after finish/abandon");
  ended_ = true;
  return end_run();
}

void Engine::write_identity(CheckpointWriter& w) const {
  // Everything that shapes the run's trajectory: a restore under different
  // options would silently diverge, so every field is validated, not
  // absorbed.
  w.i64(options_.num_resources);
  w.i64(options_.speed);
  w.i64(options_.replication);
  w.boolean(options_.record_schedule);
  w.boolean(options_.drain_pending);
  w.boolean(options_.charge_repair);
  w.boolean(options_.fast_forward);
  w.str(policy_->name());
  w.i64(static_cast<std::int64_t>(delay_bounds_.size()));
  w.i64(model_.delta());
  w.i64(arrival_end_);
  w.u64(options_.fault_plan == nullptr ? 0
                                       : options_.fault_plan->events.size());
  w.boolean(options_.observer != nullptr);
  // Per-color metadata: two sources with equal color counts may still
  // disagree on every bound, and resuming across them would corrupt the
  // pending calendar instead of failing.
  for (std::size_t c = 0; c < delay_bounds_.size(); ++c) {
    w.i64(delay_bounds_[c]);
    w.i64(model_.drop_cost(static_cast<ColorId>(c)));
    w.i64(model_.length(static_cast<ColorId>(c)));
  }
}

void Engine::checkpoint(std::ostream& out, const ArrivalSource* source) const {
  RRS_CHECK_MSG(!ended_, "checkpoint after finish/abandon");
  CheckpointWriter w;

  w.begin_section(kTagOptions);
  write_identity(w);
  w.boolean(source != nullptr);
  w.end_section();

  w.begin_section(kTagEngine);
  w.i64(k_);
  w.i64(max_deadline_);
  w.u64(fault_next_);
  w.u64(lost_.size());
  for (const ColorId c : lost_) w.i64(c);
  for_each_field([&w](const auto&, std::int64_t v) { w.i64(v); },
                 static_cast<const RunCounters&>(result_));
  w.end_section();

  if (options_.record_schedule) {
    w.begin_section(kTagSchedule);
    recorder_.checkpoint(w);
    w.end_section();
  }

  w.begin_section(kTagPending);
  pending_.checkpoint(w);
  w.end_section();

  w.begin_section(kTagCache);
  cache_.checkpoint(w);
  w.end_section();

  w.begin_section(kTagPolicy);
  policy_->checkpoint_state(w);
  w.end_section();

  if (options_.observer != nullptr) {
    w.begin_section(kTagObserver);
    options_.observer->checkpoint(w);
    w.end_section();
  }
  if (source != nullptr) {
    w.begin_section(kTagSource);
    source->checkpoint(w);
    w.end_section();
  }
  w.finish(out);
}

void Engine::restore(std::istream& in, ArrivalSource* source) {
  RRS_CHECK_MSG(!ended_ && result_.arrived == 0 && result_.work_units == 0 &&
                    pending_.total() == 0,
                "Engine::restore requires a freshly constructed engine");
  CheckpointReader r(in);

  r.open_section(kTagOptions);
  CheckpointWriter identity;
  write_identity(identity);
  r.expect_bytes(identity.bytes(), "engine options section");
  const bool has_source = r.boolean();
  RRS_REQUIRE(source == nullptr || has_source,
              "checkpoint carries no source state");
  r.close_section();
  const std::uint64_t plan_events =
      options_.fault_plan == nullptr ? 0 : options_.fault_plan->events.size();
  const auto colors = static_cast<std::int64_t>(delay_bounds_.size());

  r.open_section(kTagEngine);
  const Round k = r.i64();
  RRS_REQUIRE(k >= 0 && k <= arrival_end_,
              "checkpoint round " << k << " outside [0, " << arrival_end_
                                  << "]");
  const Round max_deadline = r.i64();
  RRS_REQUIRE(max_deadline >= 0, "checkpoint max_deadline out of range");
  const std::uint64_t fnext = r.u64();
  RRS_REQUIRE(fnext <= plan_events, "checkpoint fault cursor out of range");
  RRS_REQUIRE(r.u64() == lost_.size(), "checkpoint fault-cursor size mismatch");
  std::vector<ColorId> lost;
  lost.reserve(lost_.size());
  for (std::size_t i = 0; i < lost_.size(); ++i) {
    const std::int64_t c = r.i64();
    RRS_REQUIRE(c >= kBlack && c < colors,
                "checkpoint lost-color out of range");
    lost.push_back(static_cast<ColorId>(c));
  }
  RunCounters counters;
  for_each_field(
      [&r](const auto& field, std::int64_t& v) {
        v = r.i64();
        RRS_REQUIRE(v >= 0, "checkpoint counter " << field.name << " < 0");
      },
      counters);
  RRS_REQUIRE(counters.work_units >= counters.executed,
              "checkpoint has fewer work units than completions");
  r.close_section();

  if (options_.record_schedule) {
    r.open_section(kTagSchedule);
    recorder_.restore_checkpoint(r, static_cast<ColorId>(colors));
    r.close_section();
  }

  r.open_section(kTagPending);
  pending_.restore_checkpoint(r, delay_bounds_, model_.lengths());
  r.close_section();

  r.open_section(kTagCache);
  cache_.restore_checkpoint(r);
  r.close_section();

  r.open_section(kTagPolicy);
  policy_->restore_state(r);
  r.close_section();

  if (options_.observer != nullptr) {
    r.open_section(kTagObserver);
    options_.observer->restore_checkpoint(r);
    r.close_section();
  }
  if (has_source) {
    // Present but unwanted (the caller restores the source separately):
    // open/close skips it.
    r.open_section(kTagSource);
    if (source != nullptr) source->restore(r);
    r.close_section();
  }

  // Commit only after every section parsed and validated: a malformed
  // checkpoint leaves the engine untouched except for the component
  // restores above, which themselves only commit on full validation.
  k_ = k;
  max_deadline_ = max_deadline;
  fault_next_ = fnext;
  lost_ = std::move(lost);
  static_cast<RunCounters&>(result_) = counters;
  result_.peak_pending = std::max(result_.peak_pending, pending_.total());
}

EngineResult run_policy(ArrivalSource& source, Policy& policy,
                        const EngineOptions& options) {
  const auto run = [&] {
    Engine engine(source, policy, options);
    engine.run_rounds(source, engine.arrival_end());
    return engine.finish();
  };
  if (options.observer == nullptr) {
    return run();
  }
  try {
    return run();
  } catch (const InvariantError&) {
    // Flight-recorder dump: the recent-event ring carries the context a
    // crash report needs and cannot reconstruct post mortem.
    options.observer->dump_trace();
    throw;
  }
}

EngineResult run_policy(const Instance& instance, Policy& policy,
                        const EngineOptions& options) {
  MaterializedSource source(instance);
  return run_policy(source, policy, options);
}

}  // namespace rrs
