// The resource pool viewed as a color cache (Section 3.1 of the paper).
//
// The paper treats the n resources as cache locations and colors as pages;
// the Section 3 algorithms keep each cached color in `replication` locations
// (2 for the online algorithms, which replicate the first half of the cache;
// 1 for Seq-EDF).  CacheAssignment separates the *logical* cached-color set
// (what the policy maintains) from the *physical* per-location colors (what
// costs Delta to change): evicting a color frees its locations without
// recoloring them, and re-inserting a color whose old locations are still
// free costs nothing.
//
// The logical set is a color->slot table: a color is cached iff its slot is
// set, so membership is one load.  Claimed locations live in one flat
// slot-major array (slot s owns the `replication` entries starting at
// s * replication), so the whole logical state is three flat arrays with
// no per-color heap nodes.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/types.h"

namespace rrs {

class CheckpointReader;
class CheckpointWriter;

/// One physical recoloring: `location` changed from `from` (kBlack when
/// it was unconfigured) to `to`.
struct Recoloring {
  int location;
  ColorId from;
  ColorId to;
};

/// One change to the logical cached set: `color` inserted, or erased.
struct MembershipChange {
  ColorId color;
  bool inserted;
};

/// Mapping of cache locations (resources) to colors, with a logical
/// cached-color set on top.  All mutations happen between begin_phase() and
/// finish_phase(); finish_phase() reports the physical recolorings, each of
/// which costs Delta.
class CacheAssignment {
 public:
  /// `num_resources` locations, each cached color held in `replication`
  /// locations.  Requires num_resources % replication == 0.
  CacheAssignment(int num_resources, int replication);

  [[nodiscard]] int num_resources() const {
    return static_cast<int>(physical_.size());
  }
  [[nodiscard]] int replication() const { return replication_; }

  /// Maximum number of distinct cached colors over the locations currently
  /// in service (= (n - num_down()) / replication; n / replication with no
  /// failures).
  [[nodiscard]] int max_distinct() const {
    return (num_resources() - num_down_) / replication_;
  }

  /// Locations currently failed (capacity churn; see fail_location).
  [[nodiscard]] int num_down() const { return num_down_; }

  /// True iff `location` is currently failed.
  [[nodiscard]] bool location_down(int location) const;

  /// True iff `color` is in the logical cached set.  One slot load.
  [[nodiscard]] bool contains(ColorId color) const {
    return color >= 0 && idx(color) < slot_of_.size() &&
           slot_of_[idx(color)] >= 0;
  }

  /// The logical cached set, in unspecified order.
  [[nodiscard]] const std::vector<ColorId>& cached_colors() const {
    return cached_;
  }

  [[nodiscard]] int num_cached() const {
    return static_cast<int>(cached_.size());
  }
  [[nodiscard]] bool full() const { return num_cached() == max_distinct(); }

  /// Physical color currently configured at `location` (kBlack initially).
  [[nodiscard]] ColorId color_at(int location) const;

  /// Marks the start of a reconfiguration phase (resets the dirty set and
  /// the membership log).
  void begin_phase();

  /// The inserts and erases since the last begin_phase(), in call order.
  [[nodiscard]] std::span<const MembershipChange> membership_changes() const {
    return changes_;
  }

  /// Adds `color` to the cached set, claiming `replication` free locations
  /// (preferring locations already physically colored `color`).
  /// Requires !contains(color) and !full().
  void insert(ColorId color);

  /// Removes `color` from the cached set, freeing its locations without
  /// recoloring them.  Requires contains(color).
  void erase(ColorId color);

  /// Ends the phase: returns a Recoloring for every location whose
  /// physical color changed since begin_phase(), sorted by location.  Each
  /// entry is one reconfiguration costing Delta(from -> to).  The span
  /// aliases an internal buffer valid until the next finish_phase().
  [[nodiscard]] std::span<const Recoloring> finish_phase();

  /// Ensures per-color tables cover ColorIds < num_colors.
  void ensure_colors(ColorId num_colors);

  /// Takes `location` out of service (capacity churn).  If a cached color
  /// occupies it, that color is evicted — its sibling locations are freed
  /// without recoloring, exactly like erase() — and returned; otherwise
  /// returns kBlack.  The location's contents are lost (its physical color
  /// becomes kBlack) and it leaves the free pool until repaired; surviving
  /// colors keep their membership.  Must be called outside a phase;
  /// requires !location_down(location).
  ColorId fail_location(int location);

  /// Returns a failed `location` to service: it rejoins the free pool,
  /// still physically black — a repaired resource comes back blank, so
  /// re-imaging it costs Delta like any other recoloring (reclaiming it is
  /// never free).  Must be called outside a phase; requires
  /// location_down(location).
  void repair_location(int location);

  // --- checkpoint/restore (crash-safe service mode) ---

  /// Serializes physical occupancy, down set, the exact free-location
  /// stack (its order decides which locations later inserts claim, so it
  /// is load-bearing for bit-identical resumption), and the logical
  /// cached set slot by slot.
  void checkpoint(CheckpointWriter& w) const;

  /// Restores checkpoint() state into this assignment, which must be
  /// freshly constructed with the same geometry and given the run's color
  /// count by ensure_colors().  Validates that the free / claimed / down
  /// location sets partition [0, n) exactly and that every cached and
  /// physical color lies below that count.
  void restore_checkpoint(CheckpointReader& r);

 private:
  [[nodiscard]] static std::size_t idx(ColorId c) {
    return static_cast<std::size_t>(c);
  }

  void erase_from_set(ColorId color);  // erase() minus the phase check

  int replication_;
  std::vector<ColorId> physical_;     // location -> color
  std::vector<ColorId> phase_start_;  // snapshot of touched locations
  std::vector<int> dirty_;            // locations touched this phase
  std::vector<char> dirty_flag_;      // location -> touched?
  std::vector<int> free_locations_;   // stack of unclaimed locations
  std::vector<char> down_flag_;       // location -> failed?
  int num_down_ = 0;

  // Logical set: cached_[slot] holds the color occupying slot `slot`, and
  // its claimed locations are locations_[slot * replication_ ...].  A color
  // is a member iff slot_of_[color] >= 0.
  std::vector<ColorId> cached_;
  std::vector<int> locations_;         // slot-major claimed locations
  std::vector<std::int32_t> slot_of_;  // color -> slot, or -1

  std::vector<Recoloring> events_;  // finish_phase() buffer
  std::vector<MembershipChange> changes_;  // this phase's inserts/erases
  bool in_phase_ = false;
};

}  // namespace rrs
