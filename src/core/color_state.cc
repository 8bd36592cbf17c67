#include "core/color_state.h"

#include <algorithm>
#include <bit>

#include "core/checkpoint.h"
#include "util/bits.h"
#include "util/check.h"

namespace rrs {

void EligibilityTracker::begin(const ArrivalSource& source) {
  const auto num_colors = static_cast<std::size_t>(source.num_colors());
  state_.assign(num_colors, {});
  const CostModel& model = source.cost_model();
  delay_bounds_.resize(num_colors);
  drop_costs_.resize(num_colors);
  lengths_.resize(num_colors);
  thresholds_.resize(num_colors);
  for (ColorId c = 0; c < source.num_colors(); ++c) {
    delay_bounds_[idx(c)] = source.delay_bound(c);
    drop_costs_[idx(c)] = source.drop_cost(c);
    lengths_[idx(c)] = model.length(c);
    // The eligibility threshold is the price of bringing the color in cold
    // (identical to Delta under the scalar tier, so this stays the paper's
    // counter-wrapping rule there).
    thresholds_[idx(c)] = model.cold_cost(c);
  }
  blocks_ = BlockCalendar(source.colors_by_delay());
  super_epochs_ = 0;
  super_generation_ = 1;
  updated_this_super_ = 0;
  max_endings_ = 0;
  timestamp_updates_ = 0;
  completed_epochs_ = 0;
  active_colors_ = 0;
  eligible_drops_ = 0;
  ineligible_drops_ = 0;
  eligible_drop_weight_ = 0;
  ineligible_drop_weight_ = 0;
  build_rank_index();
}

void EligibilityTracker::drop_phase(Round k,
                                    const PendingJobs::DropResult& dropped,
                                    const CacheAssignment& cache) {
  now_ = k;
  if (!dirty_imports_.empty()) flush_dirty_imports(k);
  // Classify drops with the pre-reset eligibility status: the algorithm
  // drops jobs first, then flips eligibility, so boundary drops of a
  // still-eligible color count as eligible drops (Section 3.2).
  for (const auto& [color, count] : dropped.by_color) {
    if (state_[idx(color)].eligible) {
      eligible_drops_ += count;
      eligible_drop_weight_ += count * drop_costs_[idx(color)];
    } else {
      ineligible_drops_ += count;
      ineligible_drop_weight_ += count * drop_costs_[idx(color)];
    }
  }
  // Epoch ends: every eligible, uncached color at a multiple of its delay
  // bound becomes ineligible with cnt = 0.
  for (const ColorId color : blocks_.due(k)) {
    ColorState& s = state_[idx(color)];
    if (s.eligible && !cache.contains(color)) {
      make_ineligible(color);
      s.cnt = 0;
      ++completed_epochs_;
      if (analysis_m_ > 0) note_epoch_end(color);
    }
  }
}

void EligibilityTracker::arrival_phase(Round k,
                                       std::span<const Job> arrivals) {
  now_ = k;
  if (!dirty_imports_.empty()) flush_dirty_imports(k);
  // Advance color deadlines at block boundaries (requests exist — possibly
  // empty — at every multiple of D_l).  With super-epoch analysis on,
  // block boundaries are also where timestamps become visible, so detect
  // timestamp update events here.
  for (const ColorId color : blocks_.due(k)) {
    ColorState& s = state_[idx(color)];
    const Round dd = k + delay_bounds_[idx(color)];
    if (s.eligible) {
      // An eligible color changes calendar bucket at its own block
      // boundary, and its effective timestamp may surface the block's
      // wraps here.
      cal_remove(color);
      s.dd = dd;
      cal_insert(color);
      lru_refresh(color, k);
    } else {
      s.dd = dd;
    }
    if (analysis_m_ > 0) {
      const Round now_ts = timestamp(color, k);
      if (now_ts > s.eff_ts) {
        s.eff_ts = now_ts;
        note_timestamp_update(color);
      }
    }
  }
  // Count this round's arrivals per color and fire wrap events.
  for (std::size_t i = 0; i < arrivals.size();) {
    const ColorId color = arrivals[i].color;
    std::size_t j = i;
    while (j < arrivals.size() && arrivals[j].color == color) ++j;
    const auto count = static_cast<Cost>(j - i);
    i = j;

    ColorState& s = state_[idx(color)];
    if (!s.seen_job) {
      s.seen_job = true;
      ++active_colors_;
    }
    s.cnt += count * drop_costs_[idx(color)];
    const Cost threshold = thresholds_[idx(color)];
    if (s.cnt >= threshold) {
      s.cnt %= threshold;  // counter wrapping event
      s.prev_wrap = s.last_wrap;
      s.last_wrap = k;
      if (!s.eligible) {
        make_eligible(color);
      } else {
        // A second wrap within one block surfaces the first wrap as the
        // new effective timestamp.
        lru_refresh(color, k);
      }
    }
  }
}

std::vector<ColorId> EligibilityTracker::eligible_colors() const {
  std::vector<ColorId> colors;
  for (std::size_t c = 0; c < state_.size(); ++c) {
    if (state_[c].eligible) colors.push_back(static_cast<ColorId>(c));
  }
  return colors;
}

Round EligibilityTracker::timestamp(ColorId color, Round now) const {
  const ColorState& s = state_[idx(color)];
  const Round block_start = floor_multiple(now, delay_bounds_[idx(color)]);
  // Wraps happen only at multiples of D_l, so the latest wrap strictly
  // before the current block start is last_wrap unless last_wrap is the
  // current boundary itself, in which case it is prev_wrap.
  const Round wrap = s.last_wrap < block_start ? s.last_wrap : s.prev_wrap;
  return wrap < 0 ? 0 : wrap;
}

void EligibilityTracker::enable_super_epoch_analysis(int m) {
  RRS_REQUIRE(m >= 1, "super-epoch analysis needs m >= 1");
  analysis_m_ = m;
}

void EligibilityTracker::note_timestamp_update(ColorId color) {
  ++timestamp_updates_;
  ColorState& s = state_[idx(color)];
  if (s.updated_gen == super_generation_) return;  // already counted
  s.updated_gen = super_generation_;
  ++updated_this_super_;
  if (updated_this_super_ >= 2 * analysis_m_) {
    // Super-epoch ends the moment 2m distinct colors have updated.
    ++super_epochs_;
    ++super_generation_;
    updated_this_super_ = 0;
  }
}

void EligibilityTracker::note_epoch_end(ColorId color) {
  ColorState& s = state_[idx(color)];
  if (s.endings_gen != super_generation_) {
    s.endings_gen = super_generation_;
    s.endings_in_super_ = 0;
  }
  ++s.endings_in_super_;
  max_endings_ = std::max(max_endings_, s.endings_in_super_);
}

PolicyColorState EligibilityTracker::export_color(ColorId color) const {
  const ColorState& s = state_[idx(color)];
  return {.cnt = s.cnt,
          .dd = s.dd,
          .last_wrap = s.last_wrap,
          .prev_wrap = s.prev_wrap,
          .eligible = s.eligible,
          .seen_job = s.seen_job};
}

void EligibilityTracker::import_color(ColorId color,
                                      const PolicyColorState& in) {
  RRS_CHECK(idx(color) < state_.size());
  ColorState& s = state_[idx(color)];
  RRS_CHECK_MSG(!s.eligible && s.cnt == 0 && !s.seen_job,
                "import_color targets freshly begun trackers only (color "
                    << color << ")");
  s.cnt = in.cnt;
  s.dd = in.dd;
  s.last_wrap = in.last_wrap;
  s.prev_wrap = in.prev_wrap;
  if (in.seen_job) {
    s.seen_job = true;
    ++active_colors_;
  }
  if (in.eligible) make_eligible(color);
}

void EligibilityTracker::make_eligible(ColorId color) {
  ColorState& s = state_[idx(color)];
  RRS_CHECK(!s.eligible);
  s.eligible = true;
  cal_insert(color);
  if (now_ >= 0) {
    lru_insert(color, timestamp(color, now_));
  } else {
    // Imported before any phase: the effective timestamp needs a round, so
    // defer the list link to the first phase call.
    dirty_imports_.push_back(color);
  }
}

void EligibilityTracker::make_ineligible(ColorId color) {
  ColorState& s = state_[idx(color)];
  RRS_CHECK(s.eligible);
  s.eligible = false;
  cal_remove(color);
  if (lru_linked_[idx(color)] != 0) lru_remove(color);
}

void EligibilityTracker::checkpoint(CheckpointWriter& w) const {
  w.i64(now_);
  w.i64(super_epochs_);
  w.i64(super_generation_);
  w.i64(updated_this_super_);
  w.i64(max_endings_);
  w.i64(timestamp_updates_);
  w.i64(completed_epochs_);
  w.i64(active_colors_);
  w.i64(eligible_drops_);
  w.i64(ineligible_drops_);
  w.i64(eligible_drop_weight_);
  w.i64(ineligible_drop_weight_);
  w.i64(static_cast<std::int64_t>(state_.size()));
  for (const ColorState& s : state_) {
    w.i64(s.cnt);
    w.i64(s.dd);
    w.i64(s.last_wrap);
    w.i64(s.prev_wrap);
    w.boolean(s.eligible);
    w.boolean(s.seen_job);
    w.i64(s.eff_ts);
    w.i64(s.updated_gen);
    w.i64(s.endings_gen);
    w.i64(s.endings_in_super_);
  }
}

void EligibilityTracker::restore_checkpoint(CheckpointReader& r) {
  RRS_CHECK_MSG(active_colors_ == 0 && eligible_colors().empty(),
                "checkpoint restore into a non-fresh tracker");
  // now_ first: make_eligible() keys its LRU-link-vs-defer decision on it,
  // and timestamp() evaluation during the rebuild must use the checkpoint
  // round's block.
  now_ = r.i64();
  RRS_REQUIRE(now_ >= -1, "checkpoint tracker round " << now_ << " < -1");
  const std::int64_t super_epochs = r.i64();
  const std::int64_t super_generation = r.i64();
  const std::int64_t updated_this_super = r.i64();
  const std::int64_t max_endings = r.i64();
  const std::int64_t timestamp_updates = r.i64();
  const std::int64_t completed_epochs = r.i64();
  const std::int64_t active_colors = r.i64();
  const std::int64_t eligible_drops = r.i64();
  const std::int64_t ineligible_drops = r.i64();
  const Cost eligible_drop_weight = r.i64();
  const Cost ineligible_drop_weight = r.i64();
  const std::int64_t colors = r.i64();
  RRS_REQUIRE(colors == static_cast<std::int64_t>(state_.size()),
              "checkpoint tracker color count " << colors << " != "
                                                << state_.size());
  for (std::size_t c = 0; c < state_.size(); ++c) {
    ColorState& s = state_[c];
    s.cnt = r.i64();
    s.dd = r.i64();
    s.last_wrap = r.i64();
    s.prev_wrap = r.i64();
    const bool eligible = r.boolean();
    s.seen_job = r.boolean();
    s.eff_ts = r.i64();
    s.updated_gen = r.i64();
    s.endings_gen = r.i64();
    s.endings_in_super_ = r.i64();
    RRS_REQUIRE(s.cnt >= 0 && s.prev_wrap <= s.last_wrap,
                "checkpoint tracker color " << c << " malformed");
    // The arrival phase advances every deadline at every block boundary
    // up to the phase round (round 0 included), and the rank calendar
    // holds exactly the deadlines that follow now_.
    const Round delay = delay_bounds_[c];
    RRS_REQUIRE(now_ < 0 || (s.dd > now_ &&
                             s.dd - floor_multiple(now_, delay) == delay),
                "checkpoint tracker color " << c << " deadline " << s.dd
                                            << " does not end the block of "
                                            << "round " << now_);
    // The rank index rebuilds through its total orders (calendar bits by
    // static rank, LRU (timestamp desc, color asc)), so the queries it
    // answers match the uninterrupted run bit for bit.
    if (eligible) make_eligible(static_cast<ColorId>(c));
  }
  // Counters last: the make_eligible replay must not double-count.
  super_epochs_ = super_epochs;
  super_generation_ = super_generation;
  updated_this_super_ = updated_this_super;
  max_endings_ = max_endings;
  timestamp_updates_ = timestamp_updates;
  completed_epochs_ = completed_epochs;
  active_colors_ = active_colors;
  eligible_drops_ = eligible_drops;
  ineligible_drops_ = ineligible_drops;
  eligible_drop_weight_ = eligible_drop_weight;
  ineligible_drop_weight_ = ineligible_drop_weight;
}

// --- incremental rank index ---

void EligibilityTracker::build_rank_index() {
  const std::size_t num_colors = state_.size();
  // Static EdfKey tiebreak: the order of colors with equal idleness and
  // equal deadline.  Constant per begin(), so one sort here replaces the
  // tail comparisons of every per-round sort.
  std::vector<ColorId> order(num_colors);
  for (std::size_t i = 0; i < num_colors; ++i) {
    order[i] = static_cast<ColorId>(i);
  }
  std::sort(order.begin(), order.end(), [this](ColorId a, ColorId b) {
    if (drop_costs_[idx(a)] != drop_costs_[idx(b)])
      return drop_costs_[idx(a)] > drop_costs_[idx(b)];  // heavier first
    if (lengths_[idx(a)] != lengths_[idx(b)])
      return lengths_[idx(a)] < lengths_[idx(b)];  // shorter first
    if (delay_bounds_[idx(a)] != delay_bounds_[idx(b)])
      return delay_bounds_[idx(a)] < delay_bounds_[idx(b)];
    return a < b;
  });
  static_rank_.resize(num_colors);
  for (std::size_t i = 0; i < num_colors; ++i) {
    static_rank_[idx(order[i])] = static_cast<std::int32_t>(i);
  }
  rank_color_ = std::move(order);
  Round max_delay = 1;
  for (const Round delay : delay_bounds_) {
    max_delay = std::max(max_delay, delay);
  }
  // At query time every eligible color deadline lies in (now, now+max D],
  // a window of max D distinct rounds, so ceil_pow2(max D) buckets keyed
  // by (dd & mask) are collision-free across distinct deadlines.
  const auto buckets = static_cast<std::size_t>(ceil_pow2(max_delay));
  cal_words_ = (num_colors + 63) / 64;
  cal_bits_.assign(buckets * cal_words_, 0);
  cal_mask_ = buckets - 1;
  cal_nonempty_.assign((buckets + 63) / 64, 0);
  lru_prev_.assign(num_colors, kBlack);
  lru_next_.assign(num_colors, kBlack);
  lru_ts_.assign(num_colors, 0);
  lru_linked_.assign(num_colors, 0);
  lru_head_ = kBlack;
  dirty_imports_.clear();
  now_ = -1;
}

void EligibilityTracker::cal_insert(ColorId color) {
  const auto b = static_cast<std::size_t>(state_[idx(color)].dd) & cal_mask_;
  const auto rank = static_cast<std::size_t>(static_rank_[idx(color)]);
  cal_bits_[b * cal_words_ + rank / 64] |= std::uint64_t{1} << (rank % 64);
  cal_nonempty_[b / 64] |= std::uint64_t{1} << (b % 64);
}

void EligibilityTracker::cal_remove(ColorId color) {
  // Callers remove a color before changing its deadline, so dd still
  // names the bucket it was inserted into.
  const auto b = static_cast<std::size_t>(state_[idx(color)].dd) & cal_mask_;
  const auto rank = static_cast<std::size_t>(static_rank_[idx(color)]);
  std::uint64_t& word = cal_bits_[b * cal_words_ + rank / 64];
  const std::uint64_t bit = std::uint64_t{1} << (rank % 64);
  RRS_CHECK((word & bit) != 0);
  word &= ~bit;
  const std::uint64_t* const first = cal_bits_.data() + b * cal_words_;
  if (std::all_of(first, first + cal_words_,
                  [](std::uint64_t w) { return w == 0; })) {
    cal_nonempty_[b / 64] &= ~(std::uint64_t{1} << (b % 64));
  }
}

std::size_t EligibilityTracker::next_bucket(std::size_t from,
                                            std::size_t hi) const {
  while (from < hi) {
    const std::size_t w = from / 64;
    const std::uint64_t bits =
        cal_nonempty_[w] & (~std::uint64_t{0} << (from % 64));
    if (bits != 0) {
      return std::min(
          hi, w * 64 + static_cast<std::size_t>(std::countr_zero(bits)));
    }
    from = (w + 1) * 64;
  }
  return hi;
}

void EligibilityTracker::lru_insert(ColorId color, Round ts) {
  lru_ts_[idx(color)] = ts;
  ColorId prev = kBlack;
  ColorId cur = lru_head_;
  while (cur != kBlack &&
         (lru_ts_[idx(cur)] > ts ||
          (lru_ts_[idx(cur)] == ts && cur < color))) {
    prev = cur;
    cur = lru_next_[idx(cur)];
  }
  lru_prev_[idx(color)] = prev;
  lru_next_[idx(color)] = cur;
  if (prev == kBlack) {
    lru_head_ = color;
  } else {
    lru_next_[idx(prev)] = color;
  }
  if (cur != kBlack) lru_prev_[idx(cur)] = color;
  lru_linked_[idx(color)] = 1;
}

void EligibilityTracker::lru_remove(ColorId color) {
  RRS_CHECK(lru_linked_[idx(color)] != 0);
  const ColorId prev = lru_prev_[idx(color)];
  const ColorId next = lru_next_[idx(color)];
  if (prev == kBlack) {
    lru_head_ = next;
  } else {
    lru_next_[idx(prev)] = next;
  }
  if (next != kBlack) lru_prev_[idx(next)] = prev;
  lru_prev_[idx(color)] = kBlack;
  lru_next_[idx(color)] = kBlack;
  lru_linked_[idx(color)] = 0;
}

void EligibilityTracker::lru_refresh(ColorId color, Round k) {
  const Round ts = timestamp(color, k);
  if (ts == lru_ts_[idx(color)]) return;
  lru_remove(color);
  lru_insert(color, ts);
}

void EligibilityTracker::flush_dirty_imports(Round k) {
  for (const ColorId color : dirty_imports_) {
    // A color can have flipped ineligible (or been re-linked) since the
    // import; only link colors still waiting for a timestamp.
    if (state_[idx(color)].eligible && lru_linked_[idx(color)] == 0) {
      lru_insert(color, timestamp(color, k));
    }
  }
  dirty_imports_.clear();
}

const std::vector<ColorId>& EligibilityTracker::lru_order(
    std::size_t max_count) {
  RRS_CHECK_MSG(now_ >= 0,
                "lru_order needs a phase call before the first query");
  RRS_CHECK(dirty_imports_.empty());
  lru_scratch_.clear();
  for (ColorId c = lru_head_;
       c != kBlack && lru_scratch_.size() < max_count;
       c = lru_next_[idx(c)]) {
    lru_scratch_.push_back(c);
  }
  return lru_scratch_;
}

}  // namespace rrs
