#include "core/pending.h"

#include <algorithm>
#include <limits>

#include "core/checkpoint.h"
#include "util/check.h"

namespace rrs {

namespace {

/// Smallest power of two >= `value` (value >= 1).
[[nodiscard]] std::size_t ring_size_for(Round value) {
  std::size_t size = 64;  // floor: tiny rings re-grow immediately
  while (size < static_cast<std::size_t>(value)) size *= 2;
  return size;
}

}  // namespace

void PendingJobs::reset(ColorId num_colors) {
  RRS_REQUIRE(num_colors >= 0, "negative color count");
  runs_.clear();
  free_head_ = -1;
  queues_.assign(static_cast<std::size_t>(num_colors), {});
  ring_.clear();
  ring_mask_ = 0;
  cursor_ = -1;
  hints_ = 0;
  total_ = 0;
}

std::int32_t PendingJobs::acquire_slot() {
  if (free_head_ >= 0) {
    const std::int32_t slot = free_head_;
    free_head_ = run_at(slot).next;
    return slot;
  }
  const auto slot = static_cast<std::int64_t>(runs_.size());
  RRS_CHECK_MSG(slot <= INT32_MAX, "pending run pool exceeds 2^31 runs");
  runs_.emplace_back();
  return static_cast<std::int32_t>(slot);
}

void PendingJobs::release_slot(std::int32_t slot) {
  run_at(slot).next = free_head_;
  free_head_ = slot;
}

void PendingJobs::add(std::span<const Job> jobs) {
  for (std::size_t i = 0; i < jobs.size();) {
    const Job& first = jobs[i];
    const Round deadline = first.deadline();
    std::size_t j = i + 1;
    while (j < jobs.size() && jobs[j].color == first.color &&
           jobs[j].id == first.id + static_cast<JobId>(j - i) &&
           jobs[j].deadline() == deadline && jobs[j].length == first.length) {
      ++j;
    }
    push_back_run(first.color, first.id, static_cast<std::int64_t>(j - i),
                  deadline, first.length);
    i = j;
  }
}

void PendingJobs::restore(ColorId color, const ExportedJob& job) {
  // A part-executed front job becomes a run as long as what is left of it.
  push_back_run(color, job.id, 1, job.deadline, job.remaining);
}

void PendingJobs::export_color(ColorId color,
                               std::vector<ExportedJob>& out) const {
  for (std::int32_t s = queues_[idx(color)].head; s >= 0; s = run_at(s).next) {
    const Run& run = run_at(s);
    for (std::int64_t i = 0; i < run.count; ++i) {
      out.push_back({run.first_id + i, run.deadline,
                     i == 0 ? run.front_left : run.length});
    }
  }
}

void PendingJobs::push_back_run(ColorId color, JobId first_id,
                                std::int64_t count, Round deadline,
                                Round length) {
  ColorQueue& q = queues_[idx(color)];
  Run* const tail = q.tail >= 0 ? &run_at(q.tail) : nullptr;
  RRS_CHECK_MSG(tail == nullptr || tail->deadline <= deadline,
                "per-color deadlines must be nondecreasing (color " << color
                                                                    << ")");
  RRS_CHECK_MSG(length >= 1, "job length must be >= 1 (job " << first_id
                                                             << ")");
  if (tail != nullptr && tail->deadline == deadline &&
      tail->length == length && tail->first_id + tail->count == first_id) {
    tail->count += count;
  } else {
    // acquire_slot() may grow the pool, so link through indices only.
    const std::int32_t slot = acquire_slot();
    run_at(slot) = {deadline, first_id, count, length, length, -1};
    if (q.tail >= 0) {
      run_at(q.tail).next = slot;
    } else {
      q.head = slot;
    }
    q.tail = slot;
  }
  q.count += count;
  total_ += count;
  // Deadlines are nondecreasing per color, so one hint per distinct
  // deadline suffices; the latest hinted deadline is the largest.
  if (q.last_bucketed != deadline) {
    bucket_entry(color, deadline);
    q.last_bucketed = deadline;
  }
}

Round PendingJobs::earliest_deadline(ColorId color) const {
  const ColorQueue& q = queues_[idx(color)];
  RRS_CHECK(q.head >= 0);
  return run_at(q.head).deadline;
}

Round PendingJobs::earliest_remaining(ColorId color) const {
  const ColorQueue& q = queues_[idx(color)];
  RRS_CHECK(q.head >= 0);
  return run_at(q.head).front_left;
}

void PendingJobs::checkpoint(CheckpointWriter& w) const {
  w.i64(cursor_);
  w.i64(static_cast<std::int64_t>(queues_.size()));
  std::vector<ExportedJob> jobs;
  for (std::size_t c = 0; c < queues_.size(); ++c) {
    jobs.clear();
    export_color(static_cast<ColorId>(c), jobs);
    w.u64(jobs.size());
    for (const ExportedJob& job : jobs) {
      w.i64(job.id);
      w.i64(job.deadline);
      w.i64(job.remaining);
    }
  }
}

void PendingJobs::restore_checkpoint(CheckpointReader& r,
                                     std::span<const Round> delay_bounds,
                                     std::span<const Round> lengths) {
  RRS_CHECK_MSG(total_ == 0 && cursor_ == -1,
                "checkpoint restore into a non-fresh pending store");
  RRS_CHECK(delay_bounds.size() == queues_.size() &&
            lengths.size() == queues_.size());
  const std::int64_t cursor = r.i64();
  RRS_REQUIRE(cursor >= -1, "checkpoint pending cursor " << cursor);
  // Set before any job is re-added, so each hint buckets relative to it.
  cursor_ = cursor;
  const std::int64_t colors = r.i64();
  RRS_REQUIRE(colors == static_cast<std::int64_t>(queues_.size()),
              "checkpoint pending color count " << colors << " != "
                                                << queues_.size());
  for (std::size_t c = 0; c < queues_.size(); ++c) {
    const std::uint64_t count = r.u64();
    Round prev = std::numeric_limits<Round>::min();
    for (std::uint64_t i = 0; i < count; ++i) {
      ExportedJob job;
      job.id = r.i64();
      job.deadline = r.i64();
      job.remaining = r.i64();
      // Written as differences so no corrupt value can overflow.
      RRS_REQUIRE(job.deadline >= prev && job.deadline > cursor &&
                      job.deadline - delay_bounds[c] <= cursor &&
                      job.remaining >= 1,
                  "checkpoint pending job " << job.id << " of color " << c
                                            << " due at " << job.deadline
                                            << " malformed at cursor "
                                            << cursor);
      RRS_REQUIRE(job.remaining <= lengths[c],
                  "checkpoint pending job " << job.id << " of color " << c
                                            << " has " << job.remaining
                                            << " units left, past its length "
                                            << lengths[c]);
      prev = job.deadline;
      restore(static_cast<ColorId>(c), job);
    }
  }
}

void PendingJobs::bucket_entry(ColorId color, Round deadline) {
  // Past-deadline adds land in the next sweepable bucket so the following
  // sweep still finds them.
  const Round target = std::max(deadline, cursor_ + 1);
  if (ring_.empty() ||
      static_cast<std::size_t>(target - cursor_) > ring_.size()) {
    grow_ring(target - cursor_);
  }
  ring_[static_cast<std::size_t>(target) & ring_mask_].push_back(
      {color, deadline});
  ++hints_;
}

void PendingJobs::grow_ring(Round min_span) {
  const std::size_t new_size =
      std::max(ring_size_for(min_span), ring_.size() * 2);
  std::vector<std::vector<CalendarEntry>> old = std::move(ring_);
  ring_.assign(new_size, {});
  ring_mask_ = new_size - 1;
  for (std::vector<CalendarEntry>& bucket : old) {
    for (const CalendarEntry& entry : bucket) {
      const Round target = std::max(entry.deadline, cursor_ + 1);
      ring_[static_cast<std::size_t>(target) & ring_mask_].push_back(entry);
    }
  }
}

void PendingJobs::drain_expired(const CalendarEntry& entry, Round round,
                                DropResult& out) {
  ColorQueue& q = queues_[idx(entry.color)];
  // The hint is consumed; a later add with the same deadline (possible
  // only for past-deadline adds) must re-bucket.
  if (q.last_bucketed == entry.deadline) q.last_bucketed = -1;
  std::int64_t dropped_here = 0;
  while (q.head >= 0 && run_at(q.head).deadline <= round) {
    const std::int32_t slot = q.head;
    const Run& run = run_at(slot);
    for (JobId id = run.first_id; id < run.first_id + run.count; ++id) {
      out.job_ids.push_back(id);
      out.job_colors.push_back(entry.color);
    }
    dropped_here += run.count;
    q.head = run.next;
    release_slot(slot);
  }
  if (dropped_here > 0) {
    if (q.head < 0) q.tail = -1;
    q.count -= dropped_here;
    out.by_color.emplace_back(entry.color, dropped_here);
    out.total += dropped_here;
    total_ -= dropped_here;
  }
}

void PendingJobs::drop_expired(Round round, DropResult& out) {
  out.clear();
  if (round <= cursor_) return;  // already swept (sweeps are monotone)
  if (total_ == 0) {
    // Nothing can expire.  Discard any stale hints (left behind by
    // executed jobs) wholesale so the cursor can jump the entire gap —
    // after a fast-forwarded span the sweep would otherwise still walk a
    // ring's worth of buckets.  Every cleared color's last_bucketed must
    // be reset, or a later add at or below the discarded hint's deadline
    // would skip re-bucketing and never be swept.
    if (hints_ > 0) {
      for (std::vector<CalendarEntry>& bucket : ring_) bucket.clear();
      for (ColorQueue& q : queues_) q.last_bucketed = -1;
      hints_ = 0;
    }
    cursor_ = round;
    return;
  }
  if (ring_.empty()) {
    cursor_ = round;
    return;
  }
  // Sweep the buckets of rounds (cursor_, round]; past a full ring cycle
  // every bucket has been visited once.
  const Round gap = round - cursor_;
  const Round buckets =
      std::min(gap, static_cast<Round>(ring_.size()));
  for (Round b = 0; b < buckets; ++b) {
    std::vector<CalendarEntry>& bucket =
        ring_[static_cast<std::size_t>(cursor_ + 1 + b) & ring_mask_];
    std::size_t kept = 0;
    for (std::size_t i = 0; i < bucket.size(); ++i) {
      const CalendarEntry entry = bucket[i];
      if (entry.deadline > round) {
        // A later ring cycle's hint: not due yet, keep it in place.
        bucket[kept++] = entry;
        continue;
      }
      drain_expired(entry, round, out);
      --hints_;
    }
    bucket.resize(kept);
  }
  cursor_ = round;
}

}  // namespace rrs
