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
  build_rank_index();
}

void EligibilityTracker::drop_phase(Round k, const CacheAssignment& cache) {
  now_ = k;
  // Epoch ends: every eligible, uncached color at a multiple of its delay
  // bound becomes ineligible with cnt = 0.  A start that fast-forward
  // skipped found its color cached or ineligible, so it ends no epoch.
  for (const ColorId color : blocks_.due(k)) {
    ColorState& s = state_[idx(color)];
    if (latest_start(color, k) == k && s.eligible &&
        !cache.contains(color)) {
      make_ineligible(color);
      s.cnt = 0;
    }
  }
}

void EligibilityTracker::arrival_phase(Round k,
                                       std::span<const Job> arrivals) {
  now_ = k;
  // Block starts (requests exist — possibly empty — at every multiple of
  // D_l) advance the color deadline and record the timestamp: the latest
  // wrap before this round's arrivals are counted, 0 when there is none.
  // Skipped rounds carry no arrivals, so no wrap, and a skipped start
  // records the timestamp this round would.
  for (const ColorId color : blocks_.due(k)) {
    ColorState& s = state_[idx(color)];
    const Round dd = latest_start(color, k) + delay_bounds_[idx(color)];
    const Round timestamp = std::max<Round>(s.last_wrap, 0);
    if (s.eligible) {
      // An eligible color changes calendar bucket at its own block
      // boundary, and moves in the recency list when its timestamp does.
      cal_remove(color);
      s.dd = dd;
      cal_insert(color);
      if (timestamp != s.timestamp) {
        lru_remove(color);
        s.timestamp = timestamp;
        lru_insert(color);
      }
    } else {
      s.dd = dd;
      s.timestamp = timestamp;
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
    s.cnt += count * drop_costs_[idx(color)];
    const Cost threshold = thresholds_[idx(color)];
    if (s.cnt >= threshold) {
      s.cnt %= threshold;  // counter wrapping event
      s.last_wrap = k;
      if (!s.eligible) make_eligible(color);
    }
  }
}

Round EligibilityTracker::next_active_start(
    Round k, const CacheAssignment& cache) const {
  Round next = kInfiniteHorizon;
  // A wrap makes its color eligible, and the block start that records its
  // timestamp comes no later than the one that can end that epoch, so
  // every active color is eligible: the recency list holds them all.
  for (ColorId c = lru_head_; c != kBlack; c = lru_next_[idx(c)]) {
    const ColorState& s = state_[idx(c)];
    if (cache.contains(c) && s.last_wrap <= s.timestamp) continue;
    // Every deadline is the first block start after the phase round.
    const Round start =
        s.dd >= k ? s.dd : ceil_multiple(k, delay_bounds_[idx(c)]);
    if (next == kInfiniteHorizon || start < next) next = start;
  }
  return next;
}

std::vector<ColorId> EligibilityTracker::eligible_colors() const {
  std::vector<ColorId> colors;
  for (std::size_t c = 0; c < state_.size(); ++c) {
    if (state_[c].eligible) colors.push_back(static_cast<ColorId>(c));
  }
  return colors;
}

PolicyColorState EligibilityTracker::export_color(ColorId color) const {
  const ColorState& s = state_[idx(color)];
  return {.cnt = s.cnt,
          .dd = s.dd,
          .last_wrap = s.last_wrap,
          .timestamp = s.timestamp,
          .eligible = s.eligible};
}

void EligibilityTracker::import_color(ColorId color,
                                      const PolicyColorState& in) {
  RRS_CHECK(idx(color) < state_.size());
  ColorState& s = state_[idx(color)];
  RRS_CHECK_MSG(!s.eligible && s.cnt == 0 && s.last_wrap < 0,
                "import_color targets freshly begun trackers only (color "
                    << color << ")");
  s.cnt = in.cnt;
  s.dd = in.dd;
  s.last_wrap = in.last_wrap;
  s.timestamp = in.timestamp;
  if (in.eligible) make_eligible(color);
}

void EligibilityTracker::make_eligible(ColorId color) {
  ColorState& s = state_[idx(color)];
  RRS_CHECK(!s.eligible);
  s.eligible = true;
  cal_insert(color);
  lru_insert(color);
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
  w.i64(static_cast<std::int64_t>(state_.size()));
  for (const ColorState& s : state_) {
    w.i64(s.cnt);
    w.i64(s.dd);
    w.i64(s.last_wrap);
    w.i64(s.timestamp);
    w.boolean(s.eligible);
  }
}

void EligibilityTracker::restore_checkpoint(CheckpointReader& r) {
  RRS_CHECK_MSG(now_ == -1 && eligible_colors().empty(),
                "checkpoint restore into a non-fresh tracker");
  now_ = r.i64();
  RRS_REQUIRE(now_ >= -1, "checkpoint tracker round " << now_ << " < -1");
  const std::int64_t colors = r.i64();
  RRS_REQUIRE(colors == static_cast<std::int64_t>(state_.size()),
              "checkpoint tracker color count " << colors << " != "
                                                << state_.size());
  for (std::size_t c = 0; c < state_.size(); ++c) {
    ColorState& s = state_[c];
    s.cnt = r.i64();
    s.dd = r.i64();
    s.last_wrap = r.i64();
    s.timestamp = r.i64();
    const bool eligible = r.boolean();
    // An ineligible color has no wrap its timestamp lacks: a wrap makes
    // its color eligible until a block start, which records it.
    RRS_REQUIRE(s.cnt >= 0 && s.last_wrap >= -1 && s.timestamp >= 0 &&
                    s.timestamp <= std::max<Round>(s.last_wrap, 0) &&
                    (eligible || s.last_wrap <= s.timestamp),
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
  // The next phase applies the block starts after now_.
  blocks_.start_at(now_ + 1);
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
  lru_linked_.assign(num_colors, 0);
  lru_head_ = kBlack;
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

void EligibilityTracker::lru_insert(ColorId color) {
  const Round ts = state_[idx(color)].timestamp;
  ColorId prev = kBlack;
  ColorId cur = lru_head_;
  while (cur != kBlack && (state_[idx(cur)].timestamp > ts ||
                           (state_[idx(cur)].timestamp == ts && cur < color))) {
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

const std::vector<ColorId>& EligibilityTracker::lru_order(
    std::size_t max_count) {
  RRS_CHECK_MSG(now_ >= 0,
                "lru_order needs a phase call before the first query");
  lru_scratch_.clear();
  for (ColorId c = lru_head_;
       c != kBlack && lru_scratch_.size() < max_count;
       c = lru_next_[idx(c)]) {
    lru_scratch_.push_back(c);
  }
  return lru_scratch_;
}

}  // namespace rrs
