#include "core/engine.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <utility>
#include <vector>

#include "core/checkpoint.h"
#include "core/pending.h"
#include "obs/observer.h"
#include "util/bits.h"
#include "util/check.h"

namespace rrs {

namespace {

/// Resolves kHottestResource: the up location whose configured color has
/// the most pending jobs (black counts as zero; ties to the lowest
/// location), or -1 when every location is already down.
int pick_hottest(const CacheAssignment& cache, const PendingJobs& pending) {
  int best = -1;
  std::int64_t best_count = -1;
  for (int r = 0; r < cache.num_resources(); ++r) {
    if (cache.location_down(r)) continue;
    const ColorId color = cache.color_at(r);
    const std::int64_t count = color == kBlack ? 0 : pending.count(color);
    if (count > best_count) {
      best = r;
      best_count = count;
    }
  }
  return best;
}

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
  RRS_REQUIRE(options.pending_budget >= 0,
              "pending_budget must be >= 0, got " << options.pending_budget);
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

/// Owned snapshot of a source's problem metadata: the cost model by value
/// plus per-color delay bounds.  Lets the engine outlive the sources that
/// fed it — the final-sweep RoundContext and the FaultCursor's pricing
/// reference this, never a dead fabric stream.
class Engine::MetaSource final : public ArrivalSource {
 public:
  explicit MetaSource(const ArrivalSource& source)
      : model_(source.cost_model()),
        by_delay_(source.colors_by_delay()),
        num_colors_(source.num_colors()),
        horizon_(source.horizon()),
        summary_(source.summary()) {
    delay_bounds_.reserve(static_cast<std::size_t>(num_colors_));
    for (ColorId c = 0; c < num_colors_; ++c) {
      delay_bounds_.push_back(source.delay_bound(c));
    }
  }

  [[nodiscard]] Cost delta() const override { return model_.delta(); }
  [[nodiscard]] ColorId num_colors() const override { return num_colors_; }
  [[nodiscard]] Round delay_bound(ColorId color) const override {
    return delay_bounds_[static_cast<std::size_t>(color)];
  }
  [[nodiscard]] Cost drop_cost(ColorId color) const override {
    return model_.drop_cost(color);
  }
  [[nodiscard]] Round length(ColorId color) const override {
    return model_.length(color);
  }
  [[nodiscard]] const CostModel& cost_model() const override {
    return model_;
  }
  [[nodiscard]] const std::map<Round, std::vector<ColorId>>& colors_by_delay()
      const override {
    return by_delay_;
  }
  [[nodiscard]] Round horizon() const override { return horizon_; }
  [[nodiscard]] std::span<const Job> arrivals_in_round(Round k) override {
    RRS_CHECK_MSG(false, "metadata snapshot pulled for arrivals (round "
                             << k << ")");
    return {};
  }
  [[nodiscard]] std::string summary() const override { return summary_; }

 private:
  CostModel model_;
  std::map<Round, std::vector<ColorId>> by_delay_;
  std::vector<Round> delay_bounds_;
  ColorId num_colors_;
  Round horizon_;
  std::string summary_;
};

/// Cursor over a FaultPlan plus the state needed to apply its events.
struct Engine::FaultCursor {
  const FaultPlan* plan = nullptr;
  Observer* obs = nullptr;
  const CostModel* model = nullptr;
  std::size_t next = 0;
  std::vector<ColorId> lost;        // location -> physical color at failure
  std::vector<ColorId> evicted;     // colors evicted by this round's events
  std::vector<int> hottest_down;    // FIFO of kHottestResource failures
  std::size_t hottest_head = 0;

  /// Applies every event scheduled at or before round `k` and notifies
  /// `policy` once if anything happened.
  void apply(Round k, const EngineOptions& options, CacheAssignment& cache,
             const PendingJobs& pending, Policy& policy,
             EngineResult& result) {
    if (plan == nullptr || next >= plan->events.size() ||
        plan->events[next].round > k) {
      return;
    }
    evicted.clear();
    bool applied = false;
    while (next < plan->events.size() && plan->events[next].round <= k) {
      const FaultEvent& ev = plan->events[next++];
      int r = ev.resource;
      if (ev.fail) {
        if (r == kHottestResource) {
          r = pick_hottest(cache, pending);
          if (r < 0) continue;  // nothing left up to fail
          hottest_down.push_back(r);
        }
        // What re-imaging the location will cost on repair depends on the
        // physical content lost, which may differ from the evicted cached
        // color (a stale physical color is not in the cached set).
        lost[static_cast<std::size_t>(r)] = cache.color_at(r);
        const ColorId evicted_color = cache.fail_location(r);
        ++result.degraded.fault_events;
        if (evicted_color != kBlack) {
          ++result.degraded.churn_evictions;
          evicted.push_back(evicted_color);
        }
        if (obs != nullptr && obs->config.trace) {
          obs->trace.push({k, TraceKind::kChurnFail, r, evicted_color});
        }
      } else {
        if (r == kHottestResource) {
          // Repair the oldest adversarially failed location, if any.
          if (hottest_head >= hottest_down.size()) continue;
          r = hottest_down[hottest_head++];
        }
        cache.repair_location(r);
        ++result.degraded.repair_events;
        if (options.charge_repair) {
          ++result.cost.reconfig_events;
          ++result.cost.churn_reconfigs;
          // Re-imaging a repaired (blank) location prices via the cold
          // column of the color it lost; a location that was blank at
          // failure is charged the base Delta.  Scalar tier: both == Delta,
          // bit-identical to the historical events * Delta accounting.
          const ColorId was = lost[static_cast<std::size_t>(r)];
          result.cost.reconfig_cost +=
              was == kBlack ? model->delta() : model->cold_cost(was);
        }
        if (obs != nullptr && obs->config.trace) {
          obs->trace.push({k, TraceKind::kChurnRepair, r, 0});
        }
      }
      applied = true;
    }
    if (applied) {
      policy.on_capacity_change(k, options.num_resources - cache.num_down(),
                                options.num_resources, evicted);
    }
  }
};

Engine::Engine(ArrivalSource& source, Policy& policy,
               const EngineOptions& options)
    : options_(validate_options(options)),
      policy_(&policy),
      cache_(options_.num_resources, options_.replication) {
  // Rounds carrying arrivals: the source's horizon, clipped by max_rounds.
  arrival_end_ = resolve_arrival_end(source, options_.max_rounds);

  pending_.reset(source.num_colors());
  cache_.ensure_colors(source.num_colors());

  // The cost model is snapshotted once (by value, inside the metadata
  // copy): every drop and reconfiguration charge routes through it, and it
  // stays valid after the feeding source dies.
  meta_ = std::make_unique<MetaSource>(source);
  const CostModel& model = meta_->cost_model();
  unit_lengths_ = model.unit_lengths();

  result_.schedule.num_resources = options_.num_resources;
  result_.schedule.speed = options_.speed;

  policy_->begin(source, options_.num_resources, options_.speed);

  // Observability setup: the metadata snapshot hands the hooks per-color
  // data without calling back into the (virtual, possibly dead) source.
  Observer* const obs = options_.observer;
  if (obs != nullptr) begin_observed_run(*obs, *meta_);
  timers_ = obs != nullptr && obs->config.timers ? &obs->timers : nullptr;
  tracing_ = obs != nullptr && obs->config.trace;

  faults_ = std::make_unique<FaultCursor>();
  faults_->plan = options_.fault_plan;
  faults_->obs = obs;
  faults_->model = &model;
  faults_->lost.assign(static_cast<std::size_t>(options_.num_resources),
                       kBlack);

  // Sparse-round fast-forward eligibility and the stop-round inputs are
  // resolved once: the policy's declaration never changes mid-run and the
  // delay-class set is static metadata.
  ff_eligible_ = options_.fast_forward && policy_->supports_fast_forward();
  for (const auto& [delay, colors] : meta_->colors_by_delay()) {
    ff_delays_.push_back(delay);
  }
  ff_snapshot_every_ = obs != nullptr ? obs->config.snapshot_every : 0;
}

Engine::~Engine() = default;

void Engine::run_round(ArrivalSource* pull) {
  Observer* const obs = options_.observer;
  const CostModel& model = meta_->cost_model();

  // Phase 0: capacity churn — failures apply before this round's drop
  // and arrival phases.
  if (timers_ != nullptr) timers_->begin_segment();
  faults_->apply(k_, options_, cache_, pending_, *policy_, result_);
  const bool degraded_round = cache_.num_down() > 0;
  if (degraded_round) ++result_.degraded.degraded_rounds;
  if (timers_ != nullptr) timers_->note(EnginePhase::kChurn);

  // Phase 1: drop.
  drop_phase(k_, degraded_round);
  if (timers_ != nullptr) timers_->note(EnginePhase::kDrop);

  // Phase 2: arrival (none in drain rounds past the arrival horizon).
  std::span<const Job> arrivals;
  if (pull != nullptr) arrivals = pull->arrivals_in_round(k_);
  if (options_.pending_budget > 0 &&
      pending_.total() + static_cast<std::int64_t>(arrivals.size()) >
          options_.pending_budget) {
    arrivals = admit_arrivals(arrivals, degraded_round);
  }
  for (const Job& job : arrivals) {
    pending_.add(job);
    max_deadline_ = std::max(max_deadline_, job.deadline());
  }
  result_.arrived += static_cast<std::int64_t>(arrivals.size());
  result_.peak_pending = std::max(result_.peak_pending, pending_.total());
  if (obs != nullptr) {
    for (const Job& job : arrivals) obs->stats.on_arrival(job.color);
  }
  if (timers_ != nullptr) timers_->note(EnginePhase::kArrival);

  const ArrivalSource& ctx_source =
      pull != nullptr ? static_cast<const ArrivalSource&>(*pull) : *meta_;
  for (int mini = 0; mini < options_.speed; ++mini) {
    // Phases 3+4 fused into one policy call: the policy ingests drops and
    // arrivals (on mini 0) and mutates the cache, all in one dispatch.
    if (timers_ != nullptr) timers_->begin_segment();
    cache_.begin_phase();
    RoundContext ctx(k_, mini, /*final_sweep=*/false, dropped_, arrivals,
                     ctx_source, pending_, cache_, obs);
    policy_->on_round(ctx);
    const std::span<const std::pair<int, ColorId>> phase_events =
        cache_.finish_phase();
    const std::span<const ColorId> phase_from = cache_.phase_from_colors();
    for (std::size_t i = 0; i < phase_events.size(); ++i) {
      const auto& [location, color] = phase_events[i];
      ++result_.cost.reconfig_events;
      result_.cost.reconfig_cost += model.reconfig_cost(phase_from[i],
                                                        color);
      if (options_.record_schedule) {
        result_.schedule.reconfigs.push_back({k_, mini, location, color});
      }
    }
    if (obs != nullptr && !phase_events.empty()) {
      obs->stats.on_reconfigs(k_);
      if (tracing_) {
        obs->trace.push({k_, TraceKind::kReconfig, mini,
                         static_cast<std::int64_t>(phase_events.size())});
      }
    }
    if (timers_ != nullptr) timers_->note(EnginePhase::kPolicy);

    // Execution — one pending job (earliest deadline first) per
    // configured resource.
    for (int r = 0; r < options_.num_resources; ++r) {
      const ColorId color = cache_.color_at(r);
      if (color == kBlack || pending_.idle(color)) continue;
      const bool completes =
          unit_lengths_ || pending_.earliest_remaining(color) == 1;
      if (obs != nullptr) {
        // The job about to execute is the color's earliest deadline;
        // reading it before the pop derives wait and slack without
        // materializing anything.  Completion stats fire only on a job's
        // final unit; every unit counts as work.
        obs->stats.on_work_unit(color);
        if (completes) {
          obs->stats.on_execution(color, k_,
                                  pending_.earliest_deadline(color));
        }
      }
      const PendingJobs::ExecResult exec = pending_.execute_earliest(color);
      ++result_.work_units;
      if (exec.completed) ++result_.executed;
      if (options_.record_schedule) {
        result_.schedule.execs.push_back({k_, mini, r, exec.id});
      }
    }
    if (timers_ != nullptr) timers_->note(EnginePhase::kExec);
  }
  if (obs != nullptr && obs->config.snapshot_every > 0 &&
      (k_ + 1) % obs->config.snapshot_every == 0) {
    obs->emit_snapshot(result_, k_, pending_.total());
  }
  ++k_;
}

void Engine::drop_phase(Round through, bool degraded) {
  const CostModel& model = meta_->cost_model();
  Observer* const obs = options_.observer;
  pending_.drop_expired(through, dropped_);
  Cost drop_cost = 0;
  for (const auto& [color, count] : dropped_.by_color) {
    drop_cost += static_cast<Cost>(count) * model.drop_cost(color);
  }
  result_.cost.drops += drop_cost;
  if (degraded) result_.degraded.drops_while_degraded += drop_cost;
  if (obs != nullptr && dropped_.total > 0) {
    for (const auto& [color, count] : dropped_.by_color) {
      obs->stats.on_drop(color, count);
    }
    if (tracing_) {
      obs->trace.push({k_, TraceKind::kDropBurst,
                       static_cast<std::int32_t>(dropped_.by_color.size()),
                       dropped_.total});
    }
  }
}

std::span<const Job> Engine::admit_arrivals(std::span<const Job> arrivals,
                                            bool degraded_round) {
  const CostModel& model = meta_->cost_model();
  Observer* const obs = options_.observer;
  const std::int64_t over = pending_.total() +
                            static_cast<std::int64_t>(arrivals.size()) -
                            options_.pending_budget;
  const std::size_t shed =
      std::min(static_cast<std::size_t>(over), arrivals.size());
  shed_order_.resize(arrivals.size());
  std::iota(shed_order_.begin(), shed_order_.end(), std::size_t{0});
  // Cheapest weight sheds first; on ties the later arrival goes so the
  // earlier submission survives.
  std::sort(shed_order_.begin(), shed_order_.end(),
            [&](std::size_t a, std::size_t b) {
              const Cost ca = model.drop_cost(arrivals[a].color);
              const Cost cb = model.drop_cost(arrivals[b].color);
              return ca != cb ? ca < cb : a > b;
            });
  std::vector<char> is_shed(arrivals.size(), 0);
  for (std::size_t i = 0; i < shed; ++i) is_shed[shed_order_[i]] = 1;
  admitted_.clear();
  Cost shed_cost = 0;
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    const Job& job = arrivals[i];
    if (is_shed[i] == 0) {
      admitted_.push_back(job);
      continue;
    }
    // A shed job did arrive (it came off the wire) but never enters the
    // pending set: it is charged as a drop right here, at full weight.
    ++result_.arrived;
    shed_cost += model.drop_cost(job.color);
    if (obs != nullptr) {
      obs->stats.on_arrival(job.color);
      obs->stats.on_drop(job.color, 1);
    }
  }
  result_.cost.drops += shed_cost;
  if (degraded_round) result_.degraded.drops_while_degraded += shed_cost;
  result_.admission_rejected += static_cast<std::int64_t>(shed);
  return admitted_;
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

Round Engine::next_stop_round(Round until) const {
  Round stop = until;
  // Deadline-block boundaries: every multiple of a delay bound runs the
  // tracker's dd-advance / epoch-end logic, so it must be executed.  A
  // round already on a boundary cannot be skipped at all.
  for (const Round d : ff_delays_) {
    if (k_ % d == 0) return k_;
    stop = std::min(stop, ceil_multiple(k_, d));
  }
  // Fault events apply at the start of their round.
  if (faults_->plan != nullptr &&
      faults_->next < faults_->plan->events.size()) {
    stop = std::min(stop, faults_->plan->events[faults_->next].round);
  }
  // Snapshots fire after round k when (k + 1) % every == 0; the next such
  // round must run so the emission round (and its cumulative counters,
  // frozen across the skip) stay identical.
  if (ff_snapshot_every_ > 0) {
    stop = std::min(stop, ceil_multiple(k_ + 1, ff_snapshot_every_) - 1);
  }
  const Round pe = policy_->next_policy_event(k_);
  if (pe != kInfiniteHorizon) stop = std::min(stop, std::max(pe, k_));
  return stop;
}

void Engine::fast_forward(ArrivalSource& source, Round until) {
  const Round stop = next_stop_round(until);
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
  Observer* const obs = options_.observer;
  drop_phase(std::max(k_, max_deadline_), cache_.num_down() > 0);
  RoundContext final_ctx(k_, 0, /*final_sweep=*/true, dropped_, {}, *meta_,
                         pending_, cache_, obs);
  policy_->on_round(final_ctx);

  result_.rounds = k_;
  result_.policy_stats = policy_->stats();
  if (obs != nullptr) obs->finish_run(result_, k_, pending_.total());
  return std::move(result_);
}

EngineResult Engine::abandon() {
  RRS_REQUIRE(!ended_, "abandon after finish/abandon");
  ended_ = true;
  result_.rounds = k_;
  result_.policy_stats = policy_->stats();
  if (options_.observer != nullptr) {
    options_.observer->finish_run(result_, k_, pending_.total());
  }
  return std::move(result_);
}

void Engine::checkpoint(std::ostream& out, const ArrivalSource* source) const {
  RRS_CHECK_MSG(!ended_, "checkpoint after finish/abandon");
  CheckpointWriter w;

  // Options fingerprint: everything that shapes the run's trajectory.  A
  // restore under different options would silently diverge, so every field
  // is validated, not absorbed.
  w.begin_section(kTagOptions);
  w.i64(options_.num_resources);
  w.i64(options_.speed);
  w.i64(options_.replication);
  w.boolean(options_.record_schedule);
  w.boolean(options_.drain_pending);
  w.boolean(options_.charge_repair);
  w.boolean(options_.fast_forward);
  w.i64(options_.pending_budget);
  w.str(policy_->name());
  w.i64(meta_->num_colors());
  w.i64(meta_->cost_model().delta());
  w.i64(arrival_end_);
  w.u64(options_.fault_plan == nullptr ? 0
                                       : options_.fault_plan->events.size());
  w.boolean(options_.observer != nullptr);
  w.boolean(source != nullptr);
  // Per-color metadata: two sources with equal color counts may still
  // disagree on every bound, and resuming across them would corrupt the
  // pending calendar instead of failing.
  for (ColorId c = 0; c < meta_->num_colors(); ++c) {
    w.i64(meta_->delay_bound(c));
    w.i64(meta_->drop_cost(c));
    w.i64(meta_->length(c));
  }
  w.end_section();

  w.begin_section(kTagEngine);
  w.i64(k_);
  w.i64(max_deadline_);
  w.u64(faults_->next);
  w.u64(faults_->hottest_head);
  w.u64(faults_->hottest_down.size());
  for (const int r : faults_->hottest_down) w.i64(r);
  w.u64(faults_->lost.size());
  for (const ColorId c : faults_->lost) w.i64(c);
  for_each_field([&w](const auto&, std::int64_t v) { w.i64(v); },
                 static_cast<const RunCounters&>(result_));
  w.u64(result_.schedule.reconfigs.size());
  for (const ReconfigEvent& e : result_.schedule.reconfigs) {
    w.i64(e.round);
    w.i64(e.mini);
    w.i64(e.resource);
    w.i64(e.color);
  }
  w.u64(result_.schedule.execs.size());
  for (const ExecEvent& e : result_.schedule.execs) {
    w.i64(e.round);
    w.i64(e.mini);
    w.i64(e.resource);
    w.i64(e.job);
  }
  w.end_section();

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
  RRS_REQUIRE(r.i64() == options_.num_resources,
              "checkpoint num_resources mismatch");
  RRS_REQUIRE(r.i64() == options_.speed, "checkpoint speed mismatch");
  RRS_REQUIRE(r.i64() == options_.replication,
              "checkpoint replication mismatch");
  RRS_REQUIRE(r.boolean() == options_.record_schedule,
              "checkpoint record_schedule mismatch");
  RRS_REQUIRE(r.boolean() == options_.drain_pending,
              "checkpoint drain_pending mismatch");
  RRS_REQUIRE(r.boolean() == options_.charge_repair,
              "checkpoint charge_repair mismatch");
  RRS_REQUIRE(r.boolean() == options_.fast_forward,
              "checkpoint fast_forward mismatch");
  RRS_REQUIRE(r.i64() == options_.pending_budget,
              "checkpoint pending_budget mismatch");
  RRS_REQUIRE(r.str() == policy_->name(), "checkpoint policy mismatch");
  RRS_REQUIRE(r.i64() == meta_->num_colors(),
              "checkpoint color-space mismatch");
  RRS_REQUIRE(r.i64() == meta_->cost_model().delta(),
              "checkpoint delta mismatch");
  RRS_REQUIRE(r.i64() == arrival_end_, "checkpoint arrival_end mismatch");
  const std::uint64_t plan_events =
      options_.fault_plan == nullptr ? 0 : options_.fault_plan->events.size();
  RRS_REQUIRE(r.u64() == plan_events, "checkpoint fault-plan mismatch");
  RRS_REQUIRE(r.boolean() == (options_.observer != nullptr),
              "checkpoint observer presence mismatch");
  const bool has_source = r.boolean();
  RRS_REQUIRE(source == nullptr || has_source,
              "checkpoint carries no source state");
  for (ColorId c = 0; c < meta_->num_colors(); ++c) {
    RRS_REQUIRE(r.i64() == meta_->delay_bound(c) &&
                    r.i64() == meta_->drop_cost(c) &&
                    r.i64() == meta_->length(c),
                "checkpoint per-color metadata mismatch at color " << c);
  }
  r.close_section();

  r.open_section(kTagEngine);
  const Round k = r.i64();
  RRS_REQUIRE(k >= 0 && k <= arrival_end_,
              "checkpoint round " << k << " outside [0, " << arrival_end_
                                  << "]");
  const Round max_deadline = r.i64();
  RRS_REQUIRE(max_deadline >= 0, "checkpoint max_deadline out of range");
  const std::uint64_t fnext = r.u64();
  RRS_REQUIRE(fnext <= plan_events, "checkpoint fault cursor out of range");
  const std::uint64_t hottest_head = r.u64();
  const std::uint64_t hottest_size = r.u64();
  RRS_REQUIRE(hottest_head <= hottest_size && hottest_size <= plan_events,
              "checkpoint hottest-failure FIFO out of range");
  std::vector<int> hottest_down;
  hottest_down.reserve(static_cast<std::size_t>(hottest_size));
  for (std::uint64_t i = 0; i < hottest_size; ++i) {
    const std::int64_t loc = r.i64();
    RRS_REQUIRE(loc >= 0 && loc < options_.num_resources,
                "checkpoint hottest-failure location out of range");
    hottest_down.push_back(static_cast<int>(loc));
  }
  RRS_REQUIRE(r.u64() == faults_->lost.size(),
              "checkpoint fault-cursor size mismatch");
  std::vector<ColorId> lost;
  lost.reserve(faults_->lost.size());
  for (std::size_t i = 0; i < faults_->lost.size(); ++i) {
    const std::int64_t c = r.i64();
    RRS_REQUIRE(c >= kBlack && c < meta_->num_colors(),
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
  const std::uint64_t num_reconfigs = r.u64();
  // Four i64 fields per event bound the claimable count by the bytes
  // actually present, so a corrupt length cannot trigger a huge reserve.
  RRS_REQUIRE(num_reconfigs <= r.remaining() / 32,
              "checkpoint schedule truncated");
  RRS_REQUIRE(options_.record_schedule || num_reconfigs == 0,
              "checkpoint carries a schedule but record_schedule is off");
  std::vector<ReconfigEvent> reconfigs;
  reconfigs.reserve(static_cast<std::size_t>(num_reconfigs));
  for (std::uint64_t i = 0; i < num_reconfigs; ++i) {
    ReconfigEvent e;
    e.round = r.i64();
    const std::int64_t mini = r.i64();
    const std::int64_t resource = r.i64();
    const std::int64_t color = r.i64();
    RRS_REQUIRE(e.round >= 0 && mini >= 0 && mini < options_.speed &&
                    resource >= 0 && resource < options_.num_resources &&
                    color >= kBlack && color < meta_->num_colors(),
                "checkpoint reconfig event out of range");
    e.mini = static_cast<std::int32_t>(mini);
    e.resource = static_cast<std::int32_t>(resource);
    e.color = static_cast<ColorId>(color);
    reconfigs.push_back(e);
  }
  const std::uint64_t num_execs = r.u64();
  RRS_REQUIRE(num_execs <= r.remaining() / 32,
              "checkpoint schedule truncated");
  RRS_REQUIRE(options_.record_schedule || num_execs == 0,
              "checkpoint carries a schedule but record_schedule is off");
  std::vector<ExecEvent> execs;
  execs.reserve(static_cast<std::size_t>(num_execs));
  for (std::uint64_t i = 0; i < num_execs; ++i) {
    ExecEvent e;
    e.round = r.i64();
    const std::int64_t mini = r.i64();
    const std::int64_t resource = r.i64();
    e.job = r.i64();
    RRS_REQUIRE(e.round >= 0 && mini >= 0 && mini < options_.speed &&
                    resource >= 0 && resource < options_.num_resources &&
                    e.job >= 0,
                "checkpoint exec event out of range");
    e.mini = static_cast<std::int32_t>(mini);
    e.resource = static_cast<std::int32_t>(resource);
    execs.push_back(e);
  }
  r.close_section();

  r.open_section(kTagPending);
  pending_.restore_checkpoint(r);
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
  faults_->next = fnext;
  faults_->hottest_head = static_cast<std::size_t>(hottest_head);
  faults_->hottest_down = std::move(hottest_down);
  faults_->lost = std::move(lost);
  static_cast<RunCounters&>(result_) = counters;
  result_.peak_pending = std::max(result_.peak_pending, pending_.total());
  result_.schedule.reconfigs = std::move(reconfigs);
  result_.schedule.execs = std::move(execs);
}

void begin_observed_run(Observer& observer, const ArrivalSource& source) {
  const auto colors = static_cast<std::size_t>(source.num_colors());
  std::vector<Round> delay_bounds(colors);
  std::vector<Cost> drop_costs(colors);
  std::vector<Round> lengths(colors);
  for (std::size_t c = 0; c < colors; ++c) {
    delay_bounds[c] = source.delay_bound(static_cast<ColorId>(c));
    drop_costs[c] = source.drop_cost(static_cast<ColorId>(c));
    lengths[c] = source.length(static_cast<ColorId>(c));
  }
  observer.begin_run(delay_bounds, drop_costs, lengths);
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
