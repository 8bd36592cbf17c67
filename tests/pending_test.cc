// Unit tests for core/pending: deadline-ordered pending job bookkeeping
// over the SoA slot pool and the bucketed expiry calendar.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <sstream>
#include <vector>

#include "core/checkpoint.h"
#include "core/pending.h"
#include "util/check.h"
#include "util/rng.h"

namespace rrs {
namespace {

Job make_job(JobId id, ColorId color, Round arrival, Round delay) {
  Job job;
  job.id = id;
  job.color = color;
  job.arrival = arrival;
  job.delay_bound = delay;
  return job;
}

/// Sweep helper for tests that only care about the result of one sweep.
PendingJobs::DropResult drop_at(PendingJobs& pending, Round round) {
  PendingJobs::DropResult out;
  pending.drop_expired(round, out);
  return out;
}

TEST(PendingJobs, AddCountIdleTotal) {
  PendingJobs pending;
  pending.reset(2);
  EXPECT_TRUE(pending.idle(0));
  EXPECT_EQ(pending.total(), 0);
  pending.add(make_job(0, 0, 0, 4));
  pending.add(make_job(1, 0, 0, 4));
  pending.add(make_job(2, 1, 0, 8));
  EXPECT_EQ(pending.count(0), 2);
  EXPECT_EQ(pending.count(1), 1);
  EXPECT_FALSE(pending.idle(0));
  EXPECT_EQ(pending.total(), 3);
}

TEST(PendingJobs, PopEarliestIsFifoPerColor) {
  PendingJobs pending;
  pending.reset(1);
  pending.add(make_job(0, 0, 0, 4));
  pending.add(make_job(1, 0, 2, 4));
  EXPECT_EQ(pending.earliest_deadline(0), 4);
  EXPECT_EQ(pending.pop_earliest(0), 0);
  EXPECT_EQ(pending.earliest_deadline(0), 6);
  EXPECT_EQ(pending.pop_earliest(0), 1);
  EXPECT_TRUE(pending.idle(0));
}

TEST(PendingJobs, DropExpiredByDeadline) {
  PendingJobs pending;
  pending.reset(2);
  pending.add(make_job(0, 0, 0, 2));  // deadline 2
  pending.add(make_job(1, 0, 2, 2));  // deadline 4
  pending.add(make_job(2, 1, 0, 8));  // deadline 8

  const auto at2 = drop_at(pending, 2);
  EXPECT_EQ(at2.total, 1);
  ASSERT_EQ(at2.by_color.size(), 1u);
  EXPECT_EQ(at2.by_color[0].first, 0);
  EXPECT_EQ(at2.by_color[0].second, 1);
  EXPECT_EQ(at2.job_ids, std::vector<JobId>{0});
  EXPECT_EQ(pending.total(), 2);

  const auto at10 = drop_at(pending, 10);
  EXPECT_EQ(at10.total, 2);
  EXPECT_EQ(pending.total(), 0);
}

TEST(PendingJobs, DropExpiredNothingToDo) {
  PendingJobs pending;
  pending.reset(1);
  pending.add(make_job(0, 0, 4, 4));
  const auto result = drop_at(pending, 3);
  EXPECT_EQ(result.total, 0);
  EXPECT_TRUE(result.by_color.empty());
}

TEST(PendingJobs, DropAfterPopDoesNotDoubleCount) {
  PendingJobs pending;
  pending.reset(1);
  pending.add(make_job(0, 0, 0, 2));
  pending.add(make_job(1, 0, 0, 2));
  EXPECT_EQ(pending.pop_earliest(0), 0);
  const auto result = drop_at(pending, 2);
  EXPECT_EQ(result.total, 1);  // only job 1 remains to drop
  EXPECT_EQ(pending.total(), 0);
}

TEST(PendingJobs, ResetClearsEverything) {
  PendingJobs pending;
  pending.reset(1);
  pending.add(make_job(0, 0, 0, 2));
  pending.reset(3);
  EXPECT_EQ(pending.total(), 0);
  EXPECT_TRUE(pending.idle(0));
  EXPECT_EQ(drop_at(pending, 100).total, 0);
}

TEST(PendingJobs, NonMonotoneDeadlinesWithinColorRejected) {
  PendingJobs pending;
  pending.reset(1);
  pending.add(make_job(0, 0, 4, 4));  // deadline 8
  EXPECT_THROW(pending.add(make_job(1, 0, 0, 4)), InvariantError);
}

TEST(PendingJobs, PopFromIdleColorRejected) {
  PendingJobs pending;
  pending.reset(1);
  EXPECT_THROW((void)pending.pop_earliest(0), InvariantError);
  EXPECT_THROW((void)pending.earliest_deadline(0), InvariantError);
}

TEST(PendingJobs, ManyColorsInterleaved) {
  PendingJobs pending;
  pending.reset(64);
  for (ColorId c = 0; c < 64; ++c) {
    for (int i = 0; i < 3; ++i) {
      pending.add(make_job(c * 3 + i, c, i * 2, 16));
    }
  }
  EXPECT_EQ(pending.total(), 192);
  const auto dropped = drop_at(pending, 17);  // deadlines 16/18/20
  EXPECT_EQ(dropped.total, 64);
  EXPECT_EQ(pending.total(), 128);
  for (ColorId c = 0; c < 64; ++c) {
    EXPECT_EQ(pending.count(c), 2);
    EXPECT_EQ(pending.earliest_deadline(c), 18);
  }
}

TEST(PendingJobs, SweepBufferIsClearedAndReused) {
  PendingJobs pending;
  pending.reset(1);
  pending.add(make_job(0, 0, 0, 1));
  pending.add(make_job(1, 0, 1, 1));
  PendingJobs::DropResult out;
  pending.drop_expired(1, out);
  EXPECT_EQ(out.total, 1);
  pending.drop_expired(2, out);  // must clear the previous sweep's content
  EXPECT_EQ(out.total, 1);
  EXPECT_EQ(out.job_ids, std::vector<JobId>{1});
}

TEST(PendingJobs, StaleHintsAfterPopDrainNothing) {
  // Executing every job of a hinted deadline leaves a stale calendar hint;
  // the sweep that consumes it must drop nothing and not disturb later
  // jobs of the same color.
  PendingJobs pending;
  pending.reset(2);
  pending.add(make_job(0, 0, 0, 4));  // deadline 4 (hinted)
  pending.add(make_job(1, 0, 2, 4));  // deadline 6 (hinted)
  pending.add(make_job(2, 1, 0, 4));  // deadline 4 (hinted)
  EXPECT_EQ(pending.pop_earliest(0), 0);  // deadline-4 hint for color 0 stale
  EXPECT_EQ(pending.pop_earliest(1), 2);  // deadline-4 hint for color 1 stale

  const auto at4 = drop_at(pending, 4);
  EXPECT_EQ(at4.total, 0);
  EXPECT_TRUE(at4.by_color.empty());
  EXPECT_EQ(pending.count(0), 1);

  const auto at6 = drop_at(pending, 6);
  EXPECT_EQ(at6.total, 1);
  EXPECT_EQ(at6.job_ids, std::vector<JobId>{1});
  EXPECT_EQ(pending.total(), 0);
}

TEST(PendingJobs, InterleavedPopAndDropAcrossSweeps) {
  // Pops between sweeps must never resurrect or double-drop jobs even when
  // several deadlines of one color share sweep coverage.
  PendingJobs pending;
  pending.reset(1);
  for (int i = 0; i < 6; ++i) {
    pending.add(make_job(i, 0, i, 3));  // deadlines 3..8
  }
  EXPECT_EQ(pending.pop_earliest(0), 0);           // deadline 3 executed
  EXPECT_EQ(drop_at(pending, 4).total, 1);         // job 1 (deadline 4)
  EXPECT_EQ(pending.pop_earliest(0), 2);           // deadline 5 executed
  EXPECT_EQ(pending.pop_earliest(0), 3);           // deadline 6 executed
  const auto at7 = drop_at(pending, 7);            // job 4 (deadline 7)
  EXPECT_EQ(at7.total, 1);
  EXPECT_EQ(at7.job_ids, std::vector<JobId>{4});
  EXPECT_EQ(pending.count(0), 1);
  EXPECT_EQ(pending.earliest_deadline(0), 8);
}

TEST(PendingJobs, SweepsAtOrBeforeCursorAreNoOps) {
  PendingJobs pending;
  pending.reset(1);
  pending.add(make_job(0, 0, 0, 8));
  EXPECT_EQ(drop_at(pending, 5).total, 0);  // cursor -> 5
  // Re-sweeping covered rounds is a documented no-op, not an error.
  EXPECT_EQ(drop_at(pending, 5).total, 0);
  EXPECT_EQ(drop_at(pending, 3).total, 0);
  EXPECT_EQ(pending.total(), 1);
  EXPECT_EQ(drop_at(pending, 8).total, 1);
}

TEST(PendingJobs, DelayBoundOneExpiresNextRound) {
  // D_l = 1: a job arriving in round k is droppable in round k+1, the
  // tightest calendar bucket distance possible.
  PendingJobs pending;
  pending.reset(1);
  PendingJobs::DropResult out;
  for (Round k = 0; k < 40; ++k) {
    pending.drop_expired(k, out);
    EXPECT_EQ(out.total, k > 0 ? 1 : 0) << "round " << k;
    pending.add(make_job(k, 0, k, 1));  // deadline k + 1
    EXPECT_EQ(pending.count(0), 1);
  }
}

TEST(PendingJobs, FarFutureDeadlinesSurviveRingGrowth) {
  // A deadline far beyond the current ring span forces the calendar to
  // grow and re-bucket; nearby jobs must still expire on time and the far
  // job must only fall at its own deadline.
  PendingJobs pending;
  pending.reset(2);
  pending.add(make_job(0, 0, 0, 3));        // deadline 3
  pending.add(make_job(1, 1, 0, 100'000));  // deadline 100000 (grows ring)
  pending.add(make_job(2, 0, 1, 3));        // deadline 4

  EXPECT_EQ(drop_at(pending, 3).total, 1);
  EXPECT_EQ(drop_at(pending, 4).total, 1);
  EXPECT_EQ(drop_at(pending, 99'999).total, 0);
  const auto at_far = drop_at(pending, 100'000);
  EXPECT_EQ(at_far.total, 1);
  EXPECT_EQ(at_far.job_ids, std::vector<JobId>{1});
  EXPECT_EQ(pending.total(), 0);
}

TEST(PendingJobs, RingWraparoundKeepsLaterCycleEntries) {
  // Two deadlines that collide in the same ring bucket (one full cycle
  // apart): sweeping the earlier round must keep the later-cycle hint.
  PendingJobs pending;
  pending.reset(2);
  // Default ring is 64 buckets; deadlines 10 and 74 share bucket 10.
  pending.add(make_job(0, 0, 0, 10));  // deadline 10
  pending.add(make_job(1, 1, 0, 74));  // deadline 74, same bucket

  const auto at10 = drop_at(pending, 10);
  EXPECT_EQ(at10.total, 1);
  EXPECT_EQ(at10.job_ids, std::vector<JobId>{0});
  EXPECT_EQ(pending.count(1), 1);

  EXPECT_EQ(drop_at(pending, 73).total, 0);
  EXPECT_EQ(drop_at(pending, 74).total, 1);
  EXPECT_EQ(pending.total(), 0);
}

TEST(PendingJobs, LargeSweepGapCoversWholeRing) {
  // A sweep jumping far past every live deadline (gap >> ring size) must
  // drop everything in one call.
  PendingJobs pending;
  pending.reset(4);
  for (ColorId c = 0; c < 4; ++c) {
    pending.add(make_job(c, c, 0, 5 + c));
  }
  EXPECT_EQ(drop_at(pending, 1'000'000).total, 4);
  EXPECT_EQ(pending.total(), 0);
  // The store stays usable after the jump: new arrivals beyond the cursor.
  pending.add(make_job(9, 0, 1'000'000, 7));
  EXPECT_EQ(drop_at(pending, 1'000'007).total, 1);
}

// --- multi-unit job lengths ------------------------------------------------

Job make_long_job(JobId id, ColorId color, Round arrival, Round delay,
                  Round length) {
  Job job = make_job(id, color, arrival, delay);
  job.length = length;
  return job;
}

TEST(PendingJobs, ExecuteEarliestTracksRemainingUnits) {
  PendingJobs pending;
  pending.reset(1);
  pending.add(make_long_job(0, 0, 0, 8, 3));
  EXPECT_EQ(pending.earliest_remaining(0), 3);

  PendingJobs::ExecResult first = pending.execute_earliest(0);
  EXPECT_EQ(first.id, 0);
  EXPECT_FALSE(first.completed);
  EXPECT_EQ(pending.earliest_remaining(0), 2);
  EXPECT_EQ(pending.count(0), 1);  // partially executed jobs stay pending

  (void)pending.execute_earliest(0);
  PendingJobs::ExecResult last = pending.execute_earliest(0);
  EXPECT_EQ(last.id, 0);
  EXPECT_TRUE(last.completed);
  EXPECT_TRUE(pending.idle(0));
  EXPECT_EQ(pending.total(), 0);
}

TEST(PendingJobs, ExecuteEarliestMatchesPopForUnitLengths) {
  PendingJobs pending;
  pending.reset(1);
  pending.add(make_job(0, 0, 0, 4));
  pending.add(make_job(1, 0, 1, 4));
  const PendingJobs::ExecResult r = pending.execute_earliest(0);
  EXPECT_EQ(r.id, 0);
  EXPECT_TRUE(r.completed);  // unit length: one unit completes the job
  EXPECT_EQ(pending.pop_earliest(0), 1);
}

TEST(PendingJobs, PartialProgressStaysWithTheFrontJob) {
  PendingJobs pending;
  pending.reset(1);
  pending.add(make_long_job(0, 0, 0, 4, 2));
  pending.add(make_long_job(1, 0, 1, 4, 2));
  // Units flow to the front (earliest-deadline) job until it completes.
  EXPECT_FALSE(pending.execute_earliest(0).completed);
  EXPECT_EQ(pending.execute_earliest(0).id, 0);
  EXPECT_EQ(pending.earliest_remaining(0), 2);  // now job 1 is the front
  EXPECT_FALSE(pending.execute_earliest(0).completed);
  EXPECT_TRUE(pending.execute_earliest(0).completed);
}

TEST(PendingJobs, PartiallyExecutedFrontJobStillExpires) {
  PendingJobs pending;
  pending.reset(1);
  pending.add(make_long_job(0, 0, 0, 2, 3));
  (void)pending.execute_earliest(0);  // 1 of 3 units applied
  const PendingJobs::DropResult dropped = drop_at(pending, 2);
  EXPECT_EQ(dropped.total, 1);  // expires as a whole job despite progress
  ASSERT_EQ(dropped.job_ids.size(), 1u);
  EXPECT_EQ(dropped.job_ids[0], 0);
  EXPECT_TRUE(pending.idle(0));
}

TEST(PendingJobs, EmptySetSweepJumpsInConstantTime) {
  // With nothing pending, a sweep may jump the cursor arbitrarily far
  // without walking the ring (the fast-forward path does exactly this).
  PendingJobs pending;
  pending.reset(1);
  pending.add(make_job(0, 0, 0, 4));
  EXPECT_EQ(pending.pop_earliest(0), 0);
  EXPECT_EQ(drop_at(pending, 1'000'000'000).total, 0);
  pending.add(make_job(1, 0, 1'000'000'000, 4));
  const auto dropped = drop_at(pending, 1'000'000'004);
  EXPECT_EQ(dropped.total, 1);
  EXPECT_EQ(dropped.job_ids, std::vector<JobId>{1});
}

TEST(PendingJobs, EmptySetJumpResetsStaleHints) {
  // The empty-set jump discards outstanding calendar hints.  A later job
  // re-using a discarded hint's deadline must be re-bucketed — if it were
  // not, it would never be swept.
  PendingJobs pending;
  pending.reset(1);
  pending.add(make_job(0, 0, 0, 8));      // deadline 8, hint bucketed
  EXPECT_EQ(pending.pop_earliest(0), 0);  // set empty; the hint is stale
  EXPECT_EQ(drop_at(pending, 5).total, 0);  // jump discards the hint
  pending.add(make_job(1, 0, 5, 3));      // deadline 8 again
  const auto dropped = drop_at(pending, 8);
  EXPECT_EQ(dropped.total, 1);
  EXPECT_EQ(dropped.job_ids, std::vector<JobId>{1});
  EXPECT_TRUE(pending.idle(0));
}

/// Reference model: per-color deque of jobs, one entry per job with its
/// own remaining units, linear-scan expiry.
class NaivePending {
 public:
  explicit NaivePending(ColorId num_colors)
      : queues_(static_cast<std::size_t>(num_colors)) {}

  void add(const Job& job) {
    queues_[static_cast<std::size_t>(job.color)].push_back(
        {job.id, job.deadline(), job.length});
  }

  JobId pop_earliest(ColorId color) {
    auto& q = queue(color);
    const JobId id = q.front().id;
    q.pop_front();
    return id;
  }

  PendingJobs::ExecResult execute_earliest(ColorId color) {
    auto& q = queue(color);
    if (q.front().remaining > 1) {
      --q.front().remaining;
      return {q.front().id, false};
    }
    return {pop_earliest(color), true};
  }

  [[nodiscard]] std::int64_t count(ColorId color) const {
    return static_cast<std::int64_t>(
        queues_[static_cast<std::size_t>(color)].size());
  }

  [[nodiscard]] const std::deque<PendingJobs::ExportedJob>& jobs(
      ColorId color) const {
    return queues_[static_cast<std::size_t>(color)];
  }

  /// Returns (total dropped, ids dropped sorted) for deadline <= round.
  std::pair<std::int64_t, std::vector<JobId>> drop_expired(Round round) {
    std::int64_t total = 0;
    std::vector<JobId> ids;
    for (auto& q : queues_) {
      while (!q.empty() && q.front().deadline <= round) {
        ids.push_back(q.front().id);
        q.pop_front();
        ++total;
      }
    }
    std::sort(ids.begin(), ids.end());
    return {total, std::move(ids)};
  }

  /// Color of pending job `id` (linear scan).
  [[nodiscard]] ColorId color_of(JobId id) const {
    for (std::size_t c = 0; c < queues_.size(); ++c) {
      for (const PendingJobs::ExportedJob& job : queues_[c]) {
        if (job.id == id) return static_cast<ColorId>(c);
      }
    }
    return kBlack;
  }

 private:
  std::deque<PendingJobs::ExportedJob>& queue(ColorId color) {
    return queues_[static_cast<std::size_t>(color)];
  }

  std::vector<std::deque<PendingJobs::ExportedJob>> queues_;
};

class PendingDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PendingDifferential, MatchesNaiveReferenceUnderRandomOps) {
  // Random interleaving of adds, pops, and monotone sweeps (with gaps that
  // exercise wraparound and growth) must match the linear-scan reference
  // exactly: same drop totals, same dropped ids, same per-color counts.
  constexpr ColorId kColors = 8;
  Rng rng(GetParam());
  PendingJobs pending;
  pending.reset(kColors);
  NaivePending naive(kColors);
  PendingJobs::DropResult out;

  std::vector<Round> last_deadline(kColors, 0);
  JobId next_id = 0;
  Round now = 0;
  for (int step = 0; step < 2000; ++step) {
    const std::int64_t action = rng.uniform(0, 9);
    if (action < 5) {  // add
      const auto color = static_cast<ColorId>(rng.uniform(0, kColors - 1));
      // Delay chosen so the deadline stays nondecreasing within the color
      // and occasionally lands far out (ring growth / wraparound).
      const Round min_delay =
          std::max<Round>(1, last_deadline[static_cast<std::size_t>(color)] -
                                 now);
      Round delay = min_delay + rng.uniform(0, 12);
      if (rng.bernoulli(0.02)) delay += 300;  // past the default ring span
      const Job job = make_job(next_id++, color, now, delay);
      last_deadline[static_cast<std::size_t>(color)] = job.deadline();
      pending.add(job);
      naive.add(job);
    } else if (action < 8) {  // pop
      const auto color = static_cast<ColorId>(rng.uniform(0, kColors - 1));
      if (!pending.idle(color)) {
        EXPECT_EQ(pending.pop_earliest(color), naive.pop_earliest(color));
      }
    } else {  // sweep, strictly forward; sometimes a large gap
      now += rng.bernoulli(0.1) ? rng.uniform(50, 400) : rng.uniform(1, 4);
      pending.drop_expired(now, out);
      const auto [naive_total, naive_ids] = naive.drop_expired(now);
      EXPECT_EQ(out.total, naive_total) << "round " << now;
      std::vector<JobId> got = out.job_ids;
      std::sort(got.begin(), got.end());
      EXPECT_EQ(got, naive_ids) << "round " << now;
      std::int64_t by_color_sum = 0;
      for (const auto& [color, cnt] : out.by_color) by_color_sum += cnt;
      EXPECT_EQ(by_color_sum, out.total);
    }
    for (ColorId c = 0; c < kColors; ++c) {
      ASSERT_EQ(pending.count(c), naive.count(c)) << "step " << step;
    }
  }
}

/// Per-color state of `pending` against the reference: counts, the front
/// job's deadline and remaining units, and the exported FIFO job by job.
void expect_same_state(const PendingJobs& pending, const NaivePending& naive,
                       ColorId colors, Round now) {
  std::int64_t total = 0;
  for (ColorId c = 0; c < colors; ++c) {
    ASSERT_EQ(pending.count(c), naive.count(c)) << "round " << now;
    total += naive.count(c);
    std::vector<PendingJobs::ExportedJob> got;
    pending.export_color(c, got);
    const auto& want = naive.jobs(c);
    ASSERT_EQ(got.size(), want.size()) << "round " << now;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].id, want[i].id) << "round " << now;
      EXPECT_EQ(got[i].deadline, want[i].deadline) << "round " << now;
      EXPECT_EQ(got[i].remaining, want[i].remaining) << "round " << now;
    }
    if (!want.empty()) {
      EXPECT_EQ(pending.earliest_deadline(c), want.front().deadline);
      EXPECT_EQ(pending.earliest_remaining(c), want.front().remaining);
    }
  }
  EXPECT_EQ(pending.total(), total) << "round " << now;
}

TEST_P(PendingDifferential, BatchShapedArrivalsMatchNaiveReference) {
  // Arrivals come the way generators emit them: per color and round one
  // batch of consecutive ids sharing a deadline and a length (1-3), added
  // as one span per round (the engine's call) or job by job, plus batches
  // that continue or break the previous one's id run.  Executions leave
  // partial progress on front jobs, sweeps drop runs whose front job is
  // part-way through, and export -> restore round trips rebuild the store
  // from its checkpoint.  Everything must match the per-job reference.
  constexpr ColorId kColors = 6;
  Rng rng(GetParam() * 7919 + 3);
  std::vector<Round> delays;
  std::vector<Round> lengths;
  for (ColorId c = 0; c < kColors; ++c) {
    delays.push_back(rng.uniform(1, 12));
    lengths.push_back(rng.uniform(1, 3));
  }
  PendingJobs pending;
  pending.reset(kColors);
  NaivePending naive(kColors);
  PendingJobs::DropResult out;
  JobId next_id = 0;
  for (Round now = 0; now < 400; ++now) {
    pending.drop_expired(now, out);
    for (std::size_t i = 0; i < out.job_ids.size(); ++i) {
      EXPECT_EQ(out.job_colors[i], naive.color_of(out.job_ids[i]))
          << "round " << now;
    }
    const auto [naive_total, naive_ids] = naive.drop_expired(now);
    EXPECT_EQ(out.total, naive_total) << "round " << now;
    std::vector<JobId> got = out.job_ids;
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, naive_ids) << "round " << now;

    std::vector<Job> arrivals;
    const auto batch = [&](ColorId c, std::int64_t count) {
      const auto i = static_cast<std::size_t>(c);
      for (std::int64_t j = 0; j < count; ++j) {
        arrivals.push_back(
            make_long_job(next_id++, c, now, delays[i], lengths[i]));
      }
    };
    for (ColorId c = 0; c < kColors; ++c) {
      if (!rng.bernoulli(0.5)) continue;
      batch(c, rng.uniform(1, 5));
      if (rng.bernoulli(0.15)) batch(c, rng.uniform(1, 2));  // continues
      if (rng.bernoulli(0.15)) {
        ++next_id;  // an id gap starts a new run at the same deadline
        batch(c, 1);
      }
    }
    if (rng.bernoulli(0.5)) {
      pending.add(arrivals);
    } else {
      for (const Job& job : arrivals) pending.add(job);
    }
    for (const Job& job : arrivals) naive.add(job);

    for (int unit = 0; unit < 5; ++unit) {
      const auto c = static_cast<ColorId>(rng.uniform(0, kColors - 1));
      if (pending.idle(c)) continue;
      const PendingJobs::ExecResult want = naive.execute_earliest(c);
      const PendingJobs::ExecResult got_exec = pending.execute_earliest(c);
      EXPECT_EQ(got_exec.id, want.id) << "round " << now;
      EXPECT_EQ(got_exec.completed, want.completed) << "round " << now;
    }
    if (rng.bernoulli(0.05)) {
      const auto c = static_cast<ColorId>(rng.uniform(0, kColors - 1));
      if (!pending.idle(c)) {
        EXPECT_EQ(pending.pop_earliest(c), naive.pop_earliest(c));
      }
    }

    if (rng.bernoulli(0.08)) {
      CheckpointWriter w;
      w.begin_section(1);
      pending.checkpoint(w);
      w.end_section();
      std::stringstream bytes;
      w.finish(bytes);
      CheckpointReader r(bytes);
      PendingJobs restored;
      restored.reset(kColors);
      r.open_section(1);
      restored.restore_checkpoint(r, delays, lengths);
      r.close_section();
      pending = std::move(restored);
    }
    expect_same_state(pending, naive, kColors, now);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PendingDifferential,
                         ::testing::Range(std::uint64_t{1},
                                          std::uint64_t{9}));

}  // namespace
}  // namespace rrs
