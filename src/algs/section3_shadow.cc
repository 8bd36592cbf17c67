#include "algs/section3_shadow.h"

#include <algorithm>
#include <sstream>

#include "util/check.h"

namespace rrs {

namespace {

// Where each event sits within its round (run_events.h gives the order):
// churn, drops, arrivals, then per mini-round its membership changes,
// recolorings and execution units, then the round end.  A block start's
// state changes sit between the drops and the arrivals.
constexpr int kChurnStage = 0;
constexpr int kDropStage = 1;
constexpr int kArrivalStage = 2;
constexpr int kMembershipPart = 0;
constexpr int kReconfigPart = 1;
constexpr int kExecPart = 2;

constexpr int phase_stage(int mini, int part) { return 3 + 3 * mini + part; }

}  // namespace

std::string Section3Violation::describe() const {
  std::ostringstream os;
  os << "round " << round << " mini " << mini << " color " << color << ": "
     << check;
  return os.str();
}

Section3Shadow::Section3Shadow(const ArrivalSource& source,
                               const EngineOptions& options,
                               Section3Rule rule, int analysis_m)
    : rule_(rule),
      num_resources_(options.num_resources),
      replication_(options.replication),
      speed_(options.speed),
      offline_m_(analysis_m),
      delta_(source.delta()) {
  RRS_REQUIRE(analysis_m >= 1, "analysis m must be >= 1, got " << analysis_m);
  RRS_REQUIRE(options.replication >= 1 && options.speed >= 1 &&
                  options.num_resources >= 0,
              "Section3Shadow needs replication and speed >= 1");
  const CostModel& model = source.cost_model();
  const auto colors = static_cast<std::size_t>(source.num_colors());
  for (ColorId c = 0; c < source.num_colors(); ++c) {
    delay_.push_back(source.delay_bound(c));
    weight_.push_back(source.drop_cost(c));
    length_.push_back(model.length(c));
    // A color wraps once its counted drop costs reach its cold price:
    // Delta in the paper's scalar model.
    threshold_.push_back(model.cold_cost(c));
    by_delay_.push_back(c);
  }
  // Block starts visit colors in ascending (D, color) order; the
  // super-epoch counts depend on it.
  std::stable_sort(by_delay_.begin(), by_delay_.end(),
                   [this](ColorId a, ColorId b) {
                     return delay_[static_cast<std::size_t>(a)] <
                            delay_[static_cast<std::size_t>(b)];
                   });
  colors_.assign(colors, {});
  cached_.assign(colors, 0);
  phase_start_.assign(colors, 0);
  physical_.assign(static_cast<std::size_t>(num_resources_), kBlack);
  down_.assign(static_cast<std::size_t>(num_resources_), 0);
  stage_ = end_stage();
  report_.in_model = rule == Section3Rule::kDLruEdf && replication_ == 2 &&
                     speed_ == 1 && model.uniform();
}

void Section3Shadow::advance(Round round, int stage) {
  if (round < round_ || (round == round_ && stage < stage_)) {
    fail(round, -1, kBlack, "event out of the engine's order");
    return;
  }
  while (round_ < round) {
    while (stage_ < end_stage()) enter_stage(stage_ + 1);
    ++round_;
    if (round_ < round) {
      // A round the engine skipped: nothing but its block starts.
      end_epochs(round_);
      start_blocks(round_);
    } else {
      stage_ = -1;
    }
  }
  while (stage_ < stage) enter_stage(stage_ + 1);
}

void Section3Shadow::enter_stage(int stage) {
  stage_ = stage;
  if (stage == kArrivalStage) {
    end_epochs(round_);
    start_blocks(round_);
    return;
  }
  if (stage < phase_stage(0, kMembershipPart) || stage >= end_stage()) {
    return;
  }
  const int mini = (stage - phase_stage(0, kMembershipPart)) / 3;
  switch ((stage - phase_stage(0, kMembershipPart)) % 3) {
    case kMembershipPart:
      phase_start_ = cached_;
      break;
    case kReconfigPart:
      // The phase's membership changes are all in; its recolorings and
      // executions, which change idleness, are not.
      check_rule(mini);
      break;
    default:
      check_replication(mini);
      break;
  }
}

void Section3Shadow::end_epochs(Round k) {
  // Section 3.1: at a multiple of D_l an eligible color that is not cached
  // ends its epoch, becoming ineligible with cnt = 0.
  for (const ColorId c : by_delay_) {
    ColorState& s = colors_[static_cast<std::size_t>(c)];
    if (k % delay_[static_cast<std::size_t>(c)] != 0 || !s.eligible ||
        cached_[static_cast<std::size_t>(c)] != 0) {
      continue;
    }
    s.eligible = false;
    s.cnt = 0;
    ++report_.epochs;
    if (s.endings_generation != generation_) {
      s.endings_generation = generation_;
      s.endings = 0;
    }
    ++s.endings;
    report_.max_epoch_endings = std::max(report_.max_epoch_endings, s.endings);
    if (s.endings > 2) {
      // Lemma 3.15 also needs the LRU half (n/4 colors) to hold 2m.
      fail_lemma(report_.lemma_3_15, c,
                 "Lemma 3.15: a third epoch ending within one super-epoch",
                 report_.in_model && num_resources_ >= 8 * offline_m_);
    }
  }
}

void Section3Shadow::start_blocks(Round k) {
  for (const ColorId c : by_delay_) {
    const Round delay = delay_[static_cast<std::size_t>(c)];
    if (k % delay != 0) continue;
    ColorState& s = colors_[static_cast<std::size_t>(c)];
    s.deadline = k + delay;
    // The timestamp: the latest wrap before this block start, 0 when the
    // color has not wrapped yet.
    const Round timestamp = std::max<Round>(s.last_wrap, 0);
    if (timestamp <= s.timestamp) continue;
    s.timestamp = timestamp;
    // Section 3.4: a super-epoch ends the moment 2m distinct colors have
    // increased their timestamps since it began.
    ++report_.timestamp_increases;
    if (s.updated_generation == generation_) continue;
    s.updated_generation = generation_;
    if (++updated_this_super_ >= 2 * offline_m_) {
      ++report_.super_epochs;
      ++generation_;
      updated_this_super_ = 0;
    }
  }
}

void Section3Shadow::on_churn(const Churn& e) {
  advance(e.round, kChurnStage);
  report_.in_model = false;
  const auto loc = static_cast<std::size_t>(e.location);
  if (e.fail) {
    down_[loc] = 1;
    ++num_down_;
    physical_[loc] = kBlack;
  } else {
    down_[loc] = 0;
    --num_down_;
    report_.reconfig_cost += e.price;
  }
}

void Section3Shadow::on_drop(const Drop& e) {
  advance(e.round, kDropStage);
  // Drops come before the block start's epoch ends, so a color that ends
  // its epoch this round still drops as eligible (Section 3.2).
  ColorState& s = colors_[static_cast<std::size_t>(e.color)];
  s.pending -= e.count;
  DropTally& tally =
      s.eligible ? report_.dropped_eligible : report_.dropped_ineligible;
  tally.count += e.count;
  tally.weight += e.weight;
}

void Section3Shadow::on_arrivals(const Arrivals& e) {
  advance(e.round, kArrivalStage);
  const Round k = e.round;
  std::vector<std::int64_t> count(colors_.size(), 0);
  for (const Job& job : e.jobs) ++count[static_cast<std::size_t>(job.color)];
  for (std::size_t c = 0; c < colors_.size(); ++c) {
    if (count[c] == 0) continue;
    ColorState& s = colors_[c];
    s.pending += count[c];
    if (!s.seen) {
      s.seen = true;
      ++report_.epochs;  // the color's first epoch begins
    }
    // Theorem 1 needs rate-limited batched input: jobs of color l arrive
    // only at multiples of D_l, at most D_l of them at once.
    if (k % delay_[c] != 0 || count[c] > delay_[c]) report_.in_model = false;
    s.cnt += count[c] * weight_[c];
    if (s.cnt >= threshold_[c]) {
      s.cnt %= threshold_[c];  // a counter wrapping event
      s.last_wrap = k;
      s.eligible = true;
    }
  }
}

void Section3Shadow::on_membership(const Membership& e) {
  advance(e.round, e.mini < 0 ? kChurnStage
                              : phase_stage(e.mini, kMembershipPart));
  char& member = cached_[static_cast<std::size_t>(e.color)];
  if (e.inserted == (member != 0)) {
    fail(e.round, e.mini, e.color,
         e.inserted ? "insert of a cached color"
                    : "eviction of an uncached color");
  }
  member = e.inserted ? 1 : 0;
}

void Section3Shadow::on_reconfig(const Reconfiguration& e) {
  advance(e.round, phase_stage(e.mini, kReconfigPart));
  physical_[static_cast<std::size_t>(e.location)] = e.to;
  report_.reconfig_cost += e.price;
}

void Section3Shadow::on_exec(const ExecUnit& e) {
  advance(e.round, phase_stage(e.mini, kExecPart));
  if (e.completes()) --colors_[static_cast<std::size_t>(e.color)].pending;
}

int Section3Shadow::end_stage() const {
  return phase_stage(speed_, kMembershipPart);
}

void Section3Shadow::on_round_end(const RoundEnd& e) {
  advance(e.round, end_stage());
  check_totals();
}

void Section3Shadow::finish(Round rounds) {
  // The terminal sweep's drops (if any) have arrived; its block start
  // ends epochs but counts no arrivals.
  advance(rounds, kDropStage);
  end_epochs(rounds);
  check_totals();
}

EdfKey Section3Shadow::edf_key(ColorId color) const {
  const auto c = static_cast<std::size_t>(color);
  return EdfKey{colors_[c].pending == 0, colors_[c].deadline, weight_[c],
                length_[c], delay_[c], color};
}

std::vector<ColorId> Section3Shadow::ranked_eligible(bool by_edf) const {
  std::vector<ColorId> ranked;
  for (std::size_t c = 0; c < colors_.size(); ++c) {
    if (colors_[c].eligible) ranked.push_back(static_cast<ColorId>(c));
  }
  if (by_edf) {
    std::sort(ranked.begin(), ranked.end(), [this](ColorId a, ColorId b) {
      return edf_key(a) < edf_key(b);
    });
  } else {
    std::sort(ranked.begin(), ranked.end(), [this](ColorId a, ColorId b) {
      const auto ts = [this](ColorId c) {
        return colors_[static_cast<std::size_t>(c)].timestamp;
      };
      return LruKey{ts(a), a} < LruKey{ts(b), b};
    });
  }
  return ranked;
}

void Section3Shadow::check_rule(int mini) {
  ++report_.phases_checked;
  if (rule_ == Section3Rule::kNone) return;
  // The paper's rule, replayed from the cache the phase started with.
  const auto capacity =
      static_cast<std::size_t>((num_resources_ - num_down_) / replication_);
  std::vector<char> want = phase_start_;
  std::vector<char> keep(colors_.size(), 0);  // colors eviction must skip
  auto size = static_cast<std::size_t>(std::count(want.begin(), want.end(), 1));
  const auto bring_in = [&](ColorId color) {
    const auto c = static_cast<std::size_t>(color);
    if (want[c] != 0) return;
    if (size >= capacity) {
      // Make room by evicting the worst-EDF-ranked cached color.  The
      // rules always leave one to evict; if none is, the set comparison
      // below reports the overfull cache.
      ColorId worst = kBlack;
      for (std::size_t v = 0; v < want.size(); ++v) {
        const auto victim = static_cast<ColorId>(v);
        if (want[v] != 0 && keep[v] == 0 &&
            (worst == kBlack || edf_key(worst) < edf_key(victim))) {
          worst = victim;
        }
      }
      if (worst != kBlack) {
        want[static_cast<std::size_t>(worst)] = 0;
        --size;
      }
    }
    want[c] = 1;
    ++size;
  };
  const std::vector<ColorId> lru = ranked_eligible(false);
  const std::vector<ColorId> edf = ranked_eligible(true);
  const auto idle = [this](ColorId c) {
    return colors_[static_cast<std::size_t>(c)].pending == 0;
  };
  if (rule_ == Section3Rule::kDLru) {
    // Section 3.1.1: exactly the most recent eligible colors.
    std::fill(want.begin(), want.end(), 0);
    for (std::size_t i = 0; i < std::min(capacity, lru.size()); ++i) {
      want[static_cast<std::size_t>(lru[i])] = 1;
    }
  } else if (rule_ == Section3Rule::kEdf) {
    // Section 3.1.2: every nonidle color among the top ranks comes in.
    for (std::size_t i = 0; i < std::min(capacity, edf.size()); ++i) {
      if (!idle(edf[i])) bring_in(edf[i]);
    }
  } else {
    // Section 3.1.3: the LRU half holds the most recent eligible colors
    // whether idle or not; the EDF half brings in the nonidle colors among
    // the top ranks of the rest.  Evictions take the worst-EDF-ranked
    // color outside both.
    const std::size_t lru_half = std::min(capacity / 2, lru.size());
    for (std::size_t i = 0; i < lru_half; ++i) {
      keep[static_cast<std::size_t>(lru[i])] = 1;
    }
    for (std::size_t i = 0; i < lru_half; ++i) bring_in(lru[i]);
    std::size_t ranks = capacity - capacity / 2;
    for (const ColorId c : edf) {
      if (keep[static_cast<std::size_t>(c)] != 0) continue;
      if (ranks == 0) break;
      --ranks;
      if (idle(c)) continue;
      bring_in(c);
      keep[static_cast<std::size_t>(c)] = 1;
    }
  }
  for (std::size_t c = 0; c < want.size(); ++c) {
    if (want[c] != cached_[c]) {
      fail(round_, mini, static_cast<ColorId>(c),
           want[c] != 0 ? "rule: the rule caches this color, the policy not"
                        : "rule: the policy caches this color, the rule not");
      return;
    }
  }
}

void Section3Shadow::check_replication(int mini) {
  std::vector<int> held(colors_.size(), 0);
  for (std::size_t loc = 0; loc < physical_.size(); ++loc) {
    if (down_[loc] == 0 && physical_[loc] != kBlack) {
      ++held[static_cast<std::size_t>(physical_[loc])];
    }
  }
  for (std::size_t c = 0; c < colors_.size(); ++c) {
    if (cached_[c] != 0 && held[c] != replication_) {
      fail(round_, mini, static_cast<ColorId>(c),
           "replication: a cached color configured on " +
               std::to_string(held[c]) + " up locations, not " +
               std::to_string(replication_));
      return;
    }
  }
}

void Section3Shadow::check_totals() {
  const Cost bound = report_.epochs * delta_;
  if (report_.reconfig_cost > 4 * bound) {
    fail_lemma(report_.lemma_3_3, kBlack,
               "Lemma 3.3: reconfiguration cost > 4 * epochs * Delta",
               report_.in_model);
  }
  if (report_.dropped_ineligible.weight > bound) {
    fail_lemma(report_.lemma_3_4, kBlack,
               "Lemma 3.4: ineligible drop cost > epochs * Delta",
               report_.in_model);
  }
}

void Section3Shadow::fail_lemma(bool& held, ColorId color,
                                const std::string& check, bool counts) {
  held = false;
  fail(round_, -1, color, check, counts);
}

void Section3Shadow::fail(Round round, int mini, ColorId color,
                          const std::string& check, bool counts) {
  if (counts && !report_.violation) {
    report_.violation = Section3Violation{round, mini, color, check};
  }
}

EngineResult run_with_shadow(ArrivalSource& source, Policy& policy,
                             const EngineOptions& options,
                             Section3Shadow& shadow) {
  Engine engine(source, policy, options);
  engine.attach(shadow);
  engine.run_rounds(source, engine.arrival_end());
  EngineResult result = engine.finish();
  shadow.finish(result.rounds);
  return result;
}

}  // namespace rrs
