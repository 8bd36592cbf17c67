#include "core/cache.h"

#include <algorithm>

#include "core/checkpoint.h"
#include "util/check.h"

namespace rrs {

CacheAssignment::CacheAssignment(int num_resources, int replication)
    : replication_(replication) {
  RRS_REQUIRE(num_resources >= 0, "negative resource count");
  RRS_REQUIRE(replication >= 1, "replication must be >= 1");
  RRS_REQUIRE(num_resources % replication == 0,
              "num_resources (" << num_resources
                                << ") must be divisible by replication ("
                                << replication << ")");
  physical_.assign(static_cast<std::size_t>(num_resources), kBlack);
  phase_start_ = physical_;
  dirty_flag_.assign(static_cast<std::size_t>(num_resources), 0);
  down_flag_.assign(static_cast<std::size_t>(num_resources), 0);
  // Keep low-numbered locations on top of the stack so the layout matches
  // the paper's "first half of the cache" narration for fresh inserts.
  for (int i = num_resources; i-- > 0;) free_locations_.push_back(i);
}

void CacheAssignment::ensure_colors(ColorId num_colors) {
  if (static_cast<std::size_t>(num_colors) > slot_of_.size()) {
    slot_of_.resize(static_cast<std::size_t>(num_colors), -1);
  }
}

bool CacheAssignment::location_down(int location) const {
  RRS_REQUIRE(location >= 0 && location < num_resources(),
              "location out of range");
  return down_flag_[static_cast<std::size_t>(location)] != 0;
}

ColorId CacheAssignment::fail_location(int location) {
  RRS_CHECK(!in_phase_);
  RRS_CHECK_MSG(!location_down(location),
                "fail of already-down location " << location);
  const auto loc = static_cast<std::size_t>(location);
  ColorId evicted = kBlack;
  auto free_it =
      std::find(free_locations_.begin(), free_locations_.end(), location);
  if (free_it != free_locations_.end()) {
    free_locations_.erase(free_it);
  } else {
    // Claimed: evict the occupying color (its siblings are freed without
    // recoloring), then pull the failed location back out of the pool.
    const auto claim_it =
        std::find(locations_.begin(), locations_.end(), location);
    RRS_CHECK(claim_it != locations_.end());
    const auto slot = static_cast<std::size_t>(claim_it - locations_.begin()) /
                      static_cast<std::size_t>(replication_);
    evicted = cached_[slot];
    erase_from_set(evicted);
    free_it =
        std::find(free_locations_.begin(), free_locations_.end(), location);
    RRS_CHECK(free_it != free_locations_.end());
    free_locations_.erase(free_it);
  }
  down_flag_[loc] = 1;
  ++num_down_;
  // Contents are lost; outside a phase phase_start_ mirrors physical_.
  physical_[loc] = kBlack;
  phase_start_[loc] = kBlack;
  return evicted;
}

void CacheAssignment::repair_location(int location) {
  RRS_CHECK(!in_phase_);
  RRS_CHECK_MSG(location_down(location),
                "repair of up location " << location);
  down_flag_[static_cast<std::size_t>(location)] = 0;
  --num_down_;
  // Rejoins the pool physically black: re-imaging it is a normal Delta
  // recoloring, never a free reclaim.
  free_locations_.push_back(location);
}

ColorId CacheAssignment::color_at(int location) const {
  RRS_REQUIRE(location >= 0 && location < num_resources(),
              "location out of range");
  return physical_[static_cast<std::size_t>(location)];
}

void CacheAssignment::begin_phase() {
  RRS_CHECK(!in_phase_);
  in_phase_ = true;
  dirty_.clear();
}

void CacheAssignment::insert(ColorId color) {
  RRS_CHECK(in_phase_);
  ensure_colors(color + 1);
  RRS_CHECK_MSG(!contains(color), "insert of already-cached color " << color);
  RRS_CHECK_MSG(!full(), "cache full inserting color " << color);

  const auto slot = static_cast<std::int32_t>(cached_.size());
  for (int r = 0; r < replication_; ++r) {
    // Prefer a free location still physically colored `color`: reclaiming it
    // costs nothing.
    int chosen = -1;
    for (std::size_t i = free_locations_.size(); i-- > 0;) {
      if (physical_[static_cast<std::size_t>(free_locations_[i])] == color) {
        chosen = free_locations_[i];
        free_locations_.erase(free_locations_.begin() +
                              static_cast<std::ptrdiff_t>(i));
        break;
      }
    }
    if (chosen < 0) {
      RRS_CHECK(!free_locations_.empty());
      chosen = free_locations_.back();
      free_locations_.pop_back();
    }
    const auto loc = static_cast<std::size_t>(chosen);
    if (physical_[loc] != color) {
      if (!dirty_flag_[loc]) {
        dirty_flag_[loc] = 1;
        dirty_.push_back(chosen);
        phase_start_[loc] = physical_[loc];
      }
      physical_[loc] = color;
    }
    locations_.push_back(chosen);
  }
  slot_of_[idx(color)] = slot;
  cached_.push_back(color);
}

void CacheAssignment::erase(ColorId color) {
  RRS_CHECK(in_phase_);
  RRS_CHECK_MSG(contains(color), "erase of non-cached color " << color);
  erase_from_set(color);
}

void CacheAssignment::erase_from_set(ColorId color) {
  const auto slot = static_cast<std::size_t>(slot_of_[idx(color)]);
  const auto rep = static_cast<std::size_t>(replication_);
  for (std::size_t i = 0; i < rep; ++i) {
    free_locations_.push_back(locations_[slot * rep + i]);
  }
  // Swap-remove: the last slot's color and location block move into the
  // vacated slot.
  const std::size_t last = cached_.size() - 1;
  const ColorId moved = cached_[last];
  cached_[slot] = moved;
  slot_of_[idx(moved)] = static_cast<std::int32_t>(slot);
  for (std::size_t i = 0; i < rep; ++i) {
    locations_[slot * rep + i] = locations_[last * rep + i];
  }
  cached_.pop_back();
  locations_.resize(last * rep);
  slot_of_[idx(color)] = -1;
}

void CacheAssignment::checkpoint(CheckpointWriter& w) const {
  RRS_CHECK_MSG(!in_phase_, "checkpoint inside a reconfiguration phase");
  w.i64(num_resources());
  w.i64(replication_);
  for (const ColorId c : physical_) w.i64(c);
  for (const char d : down_flag_) w.boolean(d != 0);
  w.u64(free_locations_.size());
  for (const int loc : free_locations_) w.i64(loc);
  w.u64(cached_.size());
  const auto rep = static_cast<std::size_t>(replication_);
  for (std::size_t slot = 0; slot < cached_.size(); ++slot) {
    w.i64(cached_[slot]);
    for (std::size_t i = 0; i < rep; ++i) w.i64(locations_[slot * rep + i]);
  }
}

void CacheAssignment::restore_checkpoint(CheckpointReader& r) {
  RRS_CHECK_MSG(!in_phase_ && cached_.empty() && num_down_ == 0,
                "checkpoint restore into a non-fresh cache assignment");
  const int n = num_resources();
  RRS_REQUIRE(r.i64() == n && r.i64() == replication_,
              "checkpoint cache geometry mismatch (this engine has n="
                  << n << ", replication=" << replication_ << ")");
  const auto colors = static_cast<std::int64_t>(slot_of_.size());
  for (auto& c : physical_) {
    const std::int64_t v = r.i64();
    RRS_REQUIRE(v >= kBlack && v < colors,
                "checkpoint cache physical color " << v << " outside [-1, "
                                                   << colors << ")");
    c = static_cast<ColorId>(v);
  }
  phase_start_ = physical_;
  // Location accounting: every location must land in exactly one of the
  // free stack, a cached slot's claim block, or the down set.
  std::vector<char> seen(static_cast<std::size_t>(n), 0);
  for (std::size_t loc = 0; loc < down_flag_.size(); ++loc) {
    down_flag_[loc] = r.boolean() ? 1 : 0;
    if (down_flag_[loc] != 0) {
      ++num_down_;
      seen[loc] = 1;
      RRS_REQUIRE(physical_[loc] == kBlack,
                  "checkpoint cache: down location " << loc
                                                     << " not blank");
    }
  }
  const std::uint64_t free_count = r.u64();
  RRS_REQUIRE(free_count <= static_cast<std::uint64_t>(n),
              "checkpoint cache free-stack size " << free_count);
  free_locations_.clear();
  for (std::uint64_t i = 0; i < free_count; ++i) {
    const std::int64_t loc = r.i64();
    RRS_REQUIRE(loc >= 0 && loc < n && seen[static_cast<std::size_t>(loc)] == 0,
                "checkpoint cache free location " << loc);
    seen[static_cast<std::size_t>(loc)] = 1;
    free_locations_.push_back(static_cast<int>(loc));
  }
  const std::uint64_t slots = r.u64();
  RRS_REQUIRE(slots * static_cast<std::uint64_t>(replication_) <=
                  static_cast<std::uint64_t>(n),
              "checkpoint cache slot count " << slots);
  const auto rep = static_cast<std::size_t>(replication_);
  for (std::uint64_t slot = 0; slot < slots; ++slot) {
    const std::int64_t color = r.i64();
    RRS_REQUIRE(color >= 0 && color < colors,
                "checkpoint cache cached color " << color << " outside [0, "
                                                 << colors << ")");
    const auto c = static_cast<ColorId>(color);
    RRS_REQUIRE(!contains(c), "checkpoint cache: color " << c
                                                         << " cached twice");
    slot_of_[idx(c)] = static_cast<std::int32_t>(slot);
    cached_.push_back(c);
    for (std::size_t i = 0; i < rep; ++i) {
      const std::int64_t loc = r.i64();
      RRS_REQUIRE(
          loc >= 0 && loc < n && seen[static_cast<std::size_t>(loc)] == 0,
          "checkpoint cache claimed location " << loc);
      seen[static_cast<std::size_t>(loc)] = 1;
      locations_.push_back(static_cast<int>(loc));
    }
  }
  RRS_REQUIRE(std::all_of(seen.begin(), seen.end(),
                          [](char s) { return s != 0; }),
              "checkpoint cache: free/claimed/down sets do not cover every "
              "location");
}

std::span<const Recoloring> CacheAssignment::finish_phase() {
  RRS_CHECK(in_phase_);
  in_phase_ = false;
  events_.clear();
  for (const int loc : dirty_) {
    const auto l = static_cast<std::size_t>(loc);
    dirty_flag_[l] = 0;
    if (physical_[l] != phase_start_[l]) {
      events_.push_back({loc, phase_start_[l], physical_[l]});
    }
    phase_start_[l] = physical_[l];
  }
  // Locations are unique within a phase, so this order is total.
  std::sort(events_.begin(), events_.end(),
            [](const Recoloring& a, const Recoloring& b) {
              return a.location < b.location;
            });
  return events_;
}

}  // namespace rrs
