// Pending-job bookkeeping shared by the engine and the offline machinery.
//
// Tracks, per color, the not-yet-executed not-yet-dropped jobs, ordered by
// deadline.  Within one color deadlines are nondecreasing in arrival order
// (one fixed delay bound per color), so a FIFO per color suffices.
//
// Storage is run-length: one flat pool holds *runs* — jobs of one color
// with consecutive ids, one deadline and one length, which is what one
// batch of arrivals is — colors thread intrusive FIFO index lists of runs
// through the pool, and expiry across colors is found through a bucketed
// calendar ring keyed by deadline round.  Deadlines are bounded by
// `now + max D_l`, so a ring of at least max D_l buckets holds every live
// deadline in a distinct bucket and the per-round expiry sweep inspects
// exactly one bucket.  The calendar stores *hints* ({color, deadline}
// pairs, one per distinct deadline per color, so one per batch): a hint
// whose jobs were already executed drains nothing, exactly like the lazy
// heap entries it replaces — but a sweep touches only the buckets of the
// rounds it covers instead of paying a log-factor pop per hint.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/job.h"
#include "core/types.h"
#include "util/check.h"

namespace rrs {

class CheckpointReader;
class CheckpointWriter;

/// Multiset of pending jobs, keyed by color, ordered by deadline per color.
///
/// Expiry sweeps must use nondecreasing rounds (the engine sweeps every
/// round in order); a sweep at or before the last swept round is a no-op.
class PendingJobs {
 public:
  /// Prepares bookkeeping for colors [0, num_colors); discards any state.
  void reset(ColorId num_colors);

  /// Adds one round's arrivals in order (amortized O(1) per job).  Jobs of
  /// one color with consecutive ids, one deadline and one length join one
  /// run, so a batch costs one slot and at most one calendar hint.
  void add(std::span<const Job> jobs);
  void add(const Job& job) { add(std::span<const Job>(&job, 1)); }

  /// Number of pending jobs of `color`.
  [[nodiscard]] std::int64_t count(ColorId color) const {
    return queues_[idx(color)].count;
  }

  /// True iff `color` has no pending jobs (the paper's "idle").
  [[nodiscard]] bool idle(ColorId color) const {
    return queues_[idx(color)].head < 0;
  }

  /// Total pending jobs across all colors.
  [[nodiscard]] std::int64_t total() const { return total_; }

  /// Deadline of the earliest-deadline pending job of `color`.
  /// Requires count(color) > 0.
  [[nodiscard]] Round earliest_deadline(ColorId color) const;

  /// Removes and returns the earliest-deadline pending job of `color`
  /// (i.e. executes it).  Requires count(color) > 0.  Equivalent to
  /// execute_earliest() for unit-length jobs; multi-unit jobs must go
  /// through execute_earliest() so partial progress is tracked.
  JobId pop_earliest(ColorId color) {
    ColorQueue& q = queues_[idx(color)];
    RRS_CHECK(q.head >= 0);
    Run& run = run_at(q.head);
    const JobId id = run.first_id;
    if (run.count > 1) {
      ++run.first_id;
      --run.count;
      run.front_left = run.length;
    } else {
      const std::int32_t slot = q.head;
      q.head = run.next;
      if (q.head < 0) q.tail = -1;
      release_slot(slot);
    }
    --q.count;
    --total_;
    return id;
  }

  /// One execution unit applied to a job.
  struct ExecResult {
    JobId id = 0;
    bool completed = false;  ///< final unit: the job left the multiset
    Round deadline = 0;
    Round left = 0;  ///< units the job still needs (0 iff completed)
  };

  /// Applies one execution unit to the earliest-deadline pending job of
  /// `color`, removing it when its remaining length hits zero.  Requires
  /// count(color) > 0.  At most the front job of a color is ever partially
  /// executed: progress always goes to the front (EDF within color), and a
  /// front job that expires is dropped at full weight, so partial progress
  /// never outlives the front position.
  ExecResult execute_earliest(ColorId color) {
    const std::int32_t head = queues_[idx(color)].head;
    RRS_CHECK(head >= 0);
    Run& run = run_at(head);
    const Round deadline = run.deadline;
    if (run.front_left > 1) {
      --run.front_left;
      return {run.first_id, false, deadline, run.front_left};
    }
    return {pop_earliest(color), true, deadline, 0};
  }

  /// Remaining execution units of the earliest-deadline pending job of
  /// `color`.  Requires count(color) > 0.
  [[nodiscard]] Round earliest_remaining(ColorId color) const;

  /// Result of an expiry sweep.
  struct DropResult {
    std::int64_t total = 0;
    /// (color, count) pairs for colors that dropped >= 1 job, ascending
    /// color order not guaranteed.
    std::vector<std::pair<ColorId, std::int64_t>> by_color;
    /// Ids of every dropped job, unordered.
    std::vector<JobId> job_ids;
    /// Color of each dropped job, parallel to `job_ids` (so consumers
    /// never need the full job table — streaming runs have none).
    std::vector<ColorId> job_colors;

    /// Empties the result, keeping allocated capacity for reuse.
    void clear() {
      total = 0;
      by_color.clear();
      job_ids.clear();
      job_colors.clear();
    }
  };

  /// Drops every pending job with deadline <= `round` (the round-`round`
  /// drop phase) into `out`, which is cleared first; its buffers are
  /// reused, so a caller-held DropResult makes the per-round sweep
  /// allocation-free.  Sweeps inspect only the calendar buckets of rounds
  /// (last swept, round]; `round` at or below the last swept round is a
  /// no-op.
  void drop_expired(Round round, DropResult& out);

  // --- per-color export/restore (checkpoints use these) ---

  /// One exported pending job: identity, absolute deadline, remaining
  /// execution units.
  struct ExportedJob {
    JobId id = 0;
    Round deadline = 0;
    Round remaining = 1;
  };

  /// Appends `color`'s pending jobs to `out` in FIFO (deadline) order.
  void export_color(ColorId color, std::vector<ExportedJob>& out) const;

  /// Re-adds an exported job under `color` (the receiving store's local
  /// id), joining the color's last run when it continues it.  Restore
  /// jobs in their exported order so per-color deadlines stay
  /// nondecreasing.
  void restore(ColorId color, const ExportedJob& job);

  // --- checkpoint/restore (crash-safe service mode) ---

  /// Serializes the sweep cursor and every color's FIFO (ids, deadlines,
  /// partial progress) job by job into the writer's current section, so
  /// the format does not depend on how jobs are grouped into runs.
  void checkpoint(CheckpointWriter& w) const;

  /// Restores state written by checkpoint() into this store, which must
  /// be freshly reset() with the same color count; `delay_bounds` and
  /// `lengths` hold each color's D_c and length.  Checkpoints are taken
  /// after a round's drop phase, so every job of color c must be due in
  /// (cursor, cursor + D_c] with 1 to length(c) units left.  The
  /// calendar is rebuilt from the restored jobs; hint-set differences
  /// against the original store are unobservable (stale hints drain
  /// nothing).
  void restore_checkpoint(CheckpointReader& r,
                          std::span<const Round> delay_bounds,
                          std::span<const Round> lengths);

 private:
  /// `count` jobs of one color with ids from `first_id`, one deadline and
  /// `length` units each, except that the first (the only job ever part
  /// executed) has `front_left` units left.
  struct Run {
    Round deadline = 0;
    JobId first_id = 0;
    std::int64_t count = 0;
    Round length = 1;
    Round front_left = 1;
    std::int32_t next = -1;  ///< next run of the color, or the free list
  };

  struct ColorQueue {
    std::int32_t head = -1;  ///< slot of the earliest-deadline run
    std::int32_t tail = -1;  ///< slot of the latest-deadline run
    std::int64_t count = 0;
    /// Largest deadline with an outstanding calendar hint for this color
    /// (-1 if none): adds of an already-hinted deadline skip the calendar.
    Round last_bucketed = -1;
  };

  /// Calendar hint: color may hold jobs expiring at `deadline`.
  struct CalendarEntry {
    ColorId color;
    Round deadline;
  };

  [[nodiscard]] static std::size_t idx(ColorId color) {
    return static_cast<std::size_t>(color);
  }

  [[nodiscard]] std::int32_t acquire_slot();
  void release_slot(std::int32_t slot);
  Run& run_at(std::int32_t slot) {
    return runs_[static_cast<std::size_t>(slot)];
  }
  [[nodiscard]] const Run& run_at(std::int32_t slot) const {
    return runs_[static_cast<std::size_t>(slot)];
  }

  /// Appends `count` jobs of `length` units with ids from `first_id` to
  /// `color`'s FIFO, extending its last run when they continue it.
  void push_back_run(ColorId color, JobId first_id, std::int64_t count,
                     Round deadline, Round length);

  /// Records the hint {color, deadline} in the ring bucket of
  /// max(deadline, cursor_ + 1), growing the ring when the deadline lies
  /// beyond the current cycle.
  void bucket_entry(ColorId color, Round deadline);

  /// Re-buckets every outstanding hint into a ring of >= `min_span`
  /// power-of-two buckets.
  void grow_ring(Round min_span);

  /// Drains every job of `entry.color` with deadline <= `round` into
  /// `out`.
  void drain_expired(const CalendarEntry& entry, Round round,
                     DropResult& out);

  // Run pool: each run links to the next run of its color; freed slots
  // reuse the link as a free list.
  std::vector<Run> runs_;
  std::int32_t free_head_ = -1;

  std::vector<ColorQueue> queues_;  // color -> FIFO of runs in the pool

  // Expiry calendar: power-of-two ring of hint buckets, indexed by
  // deadline & (ring size - 1).  cursor_ is the last swept round; hints
  // whose deadline lies beyond the covered rounds of a sweep belong to a
  // later ring cycle and are kept in place.
  std::vector<std::vector<CalendarEntry>> ring_;
  std::size_t ring_mask_ = 0;
  Round cursor_ = -1;
  std::int64_t hints_ = 0;  ///< outstanding calendar hints across buckets

  std::int64_t total_ = 0;
};

}  // namespace rrs
