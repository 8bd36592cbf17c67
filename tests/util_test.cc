// Unit tests for src/util: bit helpers, RNG, stamped map, thread pool,
// check macros.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <iostream>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "core/types.h"
#include "util/bits.h"
#include "util/check.h"
#include "util/lockstep_scan.h"
#include "util/rng.h"
#include "util/stamped_map.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace rrs {
namespace {

TEST(Bits, IsPow2) {
  EXPECT_FALSE(is_pow2(0));
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(2));
  EXPECT_FALSE(is_pow2(3));
  EXPECT_TRUE(is_pow2(4));
  EXPECT_FALSE(is_pow2(6));
  EXPECT_TRUE(is_pow2(Round{1} << 40));
  EXPECT_FALSE(is_pow2((Round{1} << 40) + 1));
  EXPECT_FALSE(is_pow2(-4));
}

TEST(Bits, FloorPow2) {
  EXPECT_EQ(floor_pow2(1), 1);
  EXPECT_EQ(floor_pow2(2), 2);
  EXPECT_EQ(floor_pow2(3), 2);
  EXPECT_EQ(floor_pow2(4), 4);
  EXPECT_EQ(floor_pow2(1023), 512);
  EXPECT_EQ(floor_pow2(1024), 1024);
}

TEST(Bits, CeilPow2) {
  EXPECT_EQ(ceil_pow2(1), 1);
  EXPECT_EQ(ceil_pow2(3), 4);
  EXPECT_EQ(ceil_pow2(4), 4);
  EXPECT_EQ(ceil_pow2(5), 8);
  EXPECT_EQ(ceil_pow2(1025), 2048);
}

TEST(Bits, FloorLog2) {
  EXPECT_EQ(floor_log2(1), 0);
  EXPECT_EQ(floor_log2(2), 1);
  EXPECT_EQ(floor_log2(3), 1);
  EXPECT_EQ(floor_log2(1024), 10);
  EXPECT_EQ(floor_log2(1025), 10);
}

TEST(Bits, Multiples) {
  EXPECT_EQ(floor_multiple(0, 8), 0);
  EXPECT_EQ(floor_multiple(7, 8), 0);
  EXPECT_EQ(floor_multiple(8, 8), 8);
  EXPECT_EQ(floor_multiple(17, 8), 16);
  EXPECT_EQ(ceil_multiple(0, 8), 0);
  EXPECT_EQ(ceil_multiple(1, 8), 8);
  EXPECT_EQ(ceil_multiple(8, 8), 8);
  EXPECT_EQ(ceil_multiple(17, 8), 24);
  for (std::int64_t m = 1; m <= 70; ++m) {
    for (std::int64_t x = 0; x <= 300; ++x) {
      EXPECT_EQ(floor_multiple(x, m), x - x % m) << x << " " << m;
      EXPECT_EQ(ceil_multiple(x, m), x + (m - x % m) % m) << x << " " << m;
    }
  }
}

TEST(Bits, InvalidInputsThrow) {
  EXPECT_THROW((void)floor_pow2(0), InvariantError);
  EXPECT_THROW((void)floor_log2(0), InvariantError);
  EXPECT_THROW((void)floor_multiple(-1, 4), InvariantError);
  EXPECT_THROW((void)floor_multiple(4, 0), InvariantError);
}

TEST(Rng, DeterministicBySeed) {
  Rng a(42), b(42), c(43);
  std::vector<std::uint64_t> xs, ys, zs;
  for (int i = 0; i < 64; ++i) {
    xs.push_back(a());
    ys.push_back(b());
    zs.push_back(c());
  }
  EXPECT_EQ(xs, ys);
  EXPECT_NE(xs, zs);
}

TEST(Rng, UniformRangeInclusive) {
  Rng rng(7);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t v = rng.uniform(3, 7);
    ASSERT_GE(v, 3);
    ASSERT_LE(v, 7);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all values hit over 2000 draws
}

TEST(Rng, UniformSingleton) {
  Rng rng(7);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform(5, 5), 5);
}

TEST(Rng, PowerOfTwoSpansDrawLikeTheDivisionPath) {
  // The mask shortcut for power-of-two spans must return exactly what
  // rejection sampling with remainders returns, draw for draw.
  for (const std::int64_t span : {1LL, 2LL, 8LL, 64LL, 1LL << 40}) {
    const auto uspan = static_cast<std::uint64_t>(span);
    Rng fast(11);
    Rng raw(11);
    for (int i = 0; i < 2000; ++i) {
      const std::uint64_t limit = Rng::max() - Rng::max() % uspan;
      std::uint64_t draw = raw();
      while (draw >= limit) draw = raw();
      ASSERT_EQ(fast.uniform(3, 3 + span - 1),
                3 + static_cast<std::int64_t>(draw % uspan))
          << "span " << span << " draw " << i;
    }
  }
}

TEST(Rng, Uniform01InRange) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform01();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
  }
}

TEST(Rng, PoissonMeanRoughlyCorrect) {
  Rng rng(11);
  const double mean = 3.0;
  std::int64_t total = 0;
  const int samples = 20000;
  for (int i = 0; i < samples; ++i) total += rng.poisson(mean);
  const double observed = static_cast<double>(total) / samples;
  EXPECT_NEAR(observed, mean, 0.1);
}

TEST(Rng, PoissonZeroMean) {
  Rng rng(1);
  const auto before = rng.state_words();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.poisson(0.0), 0);
  EXPECT_EQ(rng.state_words(), before);  // a zero mean draws nothing
}

TEST(Rng, PeekIsTheNextOutputAndKeepsTheState) {
  for (const std::uint64_t seed : {1ULL, 42ULL, 0xdeadbeefULL}) {
    Rng rng(seed);
    for (int i = 0; i < 1000; ++i) {
      const auto before = rng.state_words();
      const std::uint64_t next = rng.peek();
      ASSERT_EQ(rng.state_words(), before) << "seed " << seed;
      ASSERT_EQ(rng(), next) << "seed " << seed << " draw " << i;
    }
  }
}

/// The inverse of an odd `a` modulo 2^64 (Newton's iteration doubles the
/// correct low bits each step, from 3).
constexpr std::uint64_t inverse_mod_2_64(std::uint64_t a) {
  std::uint64_t x = a;
  for (int i = 0; i < 5; ++i) x *= 2 - a * x;
  return x;
}
static_assert(inverse_mod_2_64(9) * 9 == 1 && inverse_mod_2_64(5) * 5 == 1);

/// A generator whose next output is exactly `out`: xoshiro256**'s output
/// rotl(s1 * 5, 7) * 9 is invertible modulo 2^64, so s1 follows from it;
/// the other three words are those of Rng(seed).
Rng rng_with_next_output(std::uint64_t out, std::uint64_t seed) {
  const std::uint64_t r = out * inverse_mod_2_64(9);
  std::array<std::uint64_t, 4> words = Rng(seed).state_words();
  words[1] = ((r >> 7) | (r << 57)) * inverse_mod_2_64(5);
  Rng rng;
  rng.set_state_words(words);
  return rng;
}

const double kPoissonTestMeans[] = {
    1e-6, 1e-4, 0.0002, 0.0005, 0.01, 0.2, 1.0, 2.0, 8.0, 37.0, 100.0, 700.0,
};

TEST(Rng, PoissonZeroMaxIsTheExactZeroBoundary) {
  // Random states land in the one-value window around zero_max with
  // probability 2^-53, so only constructed states can catch an off-by-one.
  for (const double mean : kPoissonTestMeans) {
    const PoissonMean m(mean);
    const double scaled = std::ldexp(std::exp(-mean), 53);
    EXPECT_EQ(m.zero_max, static_cast<std::uint64_t>(std::floor(scaled)))
        << "mean " << mean;
    for (const std::uint64_t low : {std::uint64_t{0}, std::uint64_t{0x7ff}}) {
      for (const std::uint64_t seed : {3ULL, 4ULL}) {
        Rng at = rng_with_next_output((m.zero_max << 11) | low, seed);
        ASSERT_EQ(at.peek() >> 11, m.zero_max);
        EXPECT_EQ(at.poisson(m), 0) << "mean " << mean << " at zero_max";
        Rng past = rng_with_next_output(((m.zero_max + 1) << 11) | low, seed);
        ASSERT_EQ(past.peek() >> 11, m.zero_max + 1);
        EXPECT_GE(past.poisson(m), 1) << "mean " << mean << " at zero_max + 1";
      }
    }
  }
}

TEST(Rng, PoissonIsZeroExactlyWhenThePeekIsAtMostZeroMax) {
  for (const double mean : kPoissonTestMeans) {
    const PoissonMean m(mean);
    Rng rng(static_cast<std::uint64_t>(mean * 1e6) + 17);
    int zeros = 0;
    for (int i = 0; i < 4000; ++i) {
      const bool zero_next = (rng.peek() >> 11) <= m.zero_max;
      const std::int64_t count = rng.poisson(m);
      ASSERT_EQ(count == 0, zero_next) << "mean " << mean << " draw " << i;
      zeros += zero_next ? 1 : 0;
    }
    if (mean <= 0.01) {
      EXPECT_GT(zeros, 3900) << "mean " << mean;
    }
    if (mean >= 8.0) {
      EXPECT_LT(zeros, 10) << "mean " << mean;
    }
  }
}

TEST(PoissonMean, DrawableMeansHaveANormalBound) {
  EXPECT_TRUE(PoissonMean::drawable(0.0));
  EXPECT_TRUE(PoissonMean::drawable(1e-300));
  EXPECT_TRUE(PoissonMean::drawable(708.39));
  EXPECT_FALSE(PoissonMean::drawable(708.4));  // exp(-mean) is subnormal
  EXPECT_FALSE(PoissonMean::drawable(745.2));  // exp(-mean) is 0
  EXPECT_FALSE(PoissonMean::drawable(2000.0));
  EXPECT_FALSE(PoissonMean::drawable(-1e-9));
  EXPECT_FALSE(PoissonMean::drawable(std::numeric_limits<double>::infinity()));
  EXPECT_FALSE(PoissonMean::drawable(std::nan("")));
  EXPECT_THROW(PoissonMean(800.0), InvariantError);
  // A mean whose bound rounds to 1 draws one word and returns 0.
  const PoissonMean tiny(1e-300);
  EXPECT_EQ(tiny.zero_max, std::uint64_t{1} << 53);
  Rng rng(5);
  EXPECT_EQ(rng.poisson(tiny), 0);
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(2);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

// --- LockstepScan: every kernel form against a per-round scalar scan. ---

struct TestLane {
  Rng stream;
  std::uint64_t zero_max = 0;
};

constexpr std::uint64_t kNeverLoud = (std::uint64_t{1} << 53) - 1;
const int kLaneCounts[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 16};

/// The scan each form must reproduce: test every lane's next output, and
/// step every lane when all of them are quiet.
std::int64_t reference_scan(std::vector<TestLane>& lanes, std::int64_t limit) {
  std::int64_t r = 0;
  for (; r < limit; ++r) {
    const bool quiet = std::all_of(
        lanes.begin(), lanes.end(), [](const TestLane& lane) {
          return (lane.stream.peek() >> 11) <= lane.zero_max;
        });
    if (!quiet) break;
    for (TestLane& lane : lanes) (void)lane.stream();
  }
  return r;
}

/// The forms this host can run; names the ones it skips.
std::vector<const LockstepScan::Variant*> runnable_forms() {
  std::vector<const LockstepScan::Variant*> forms;
  for (const LockstepScan::Variant& form : LockstepScan::variants()) {
    if (form.supported) {
      forms.push_back(&form);
    } else {
      std::cout << "[ SKIPPED  ] scan form " << form.name
                << ": this host cannot run it\n";
    }
  }
  return forms;
}

/// Runs each form on a copy of `lanes` and expects the reference's count
/// and all four state words of every lane; returns the reference count.
std::int64_t expect_forms_match(
    const std::vector<const LockstepScan::Variant*>& forms,
    const std::vector<TestLane>& lanes, std::int64_t limit,
    const std::string& what) {
  std::vector<TestLane> want = lanes;
  const std::int64_t steps = reference_scan(want, limit);
  for (const LockstepScan::Variant* form : forms) {
    std::vector<TestLane> got = lanes;
    LockstepScan scan;
    for (TestLane& lane : got) scan.add(lane.stream, lane.zero_max);
    EXPECT_EQ(scan.run(*form, limit), steps) << form->name << ", " << what;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].stream.state_words(), want[i].stream.state_words())
          << form->name << ", " << what << ": lane " << i;
    }
  }
  return steps;
}

/// The xoshiro256** state one step before `next`.  The step is invertible:
/// word 3 gives s3 ^ s1, word 0 then gives s0, and words 1 and 2 give
/// s1 ^ (s1 << 17), which the sum of its shifts by 17, 34 and 51 undoes.
std::array<std::uint64_t, 4> unstep(const std::array<std::uint64_t, 4>& next) {
  const std::uint64_t s3_s1 = (next[3] >> 45) | (next[3] << 19);
  const std::uint64_t s0 = next[0] ^ s3_s1;
  const std::uint64_t y = next[1] ^ next[2];
  const std::uint64_t s1 = y ^ (y << 17) ^ (y << 34) ^ (y << 51);
  return {s0, s1, next[1] ^ s1 ^ s0, s3_s1 ^ s1};
}

/// A stream whose output in round `q` is exactly `out` and whose outputs
/// before it are quiet under `zero_max`.
Rng stream_with_output_at(std::uint64_t out, std::int64_t q,
                          std::uint64_t zero_max) {
  for (std::uint64_t seed = 1; seed <= 1000; ++seed) {
    std::array<std::uint64_t, 4> words =
        rng_with_next_output(out, seed).state_words();
    for (std::int64_t r = 0; r < q; ++r) words = unstep(words);
    Rng stream;
    stream.set_state_words(words);
    Rng ahead = stream;
    bool quiet = true;
    for (std::int64_t r = 0; r < q; ++r) {
      quiet = quiet && (ahead.peek() >> 11) <= zero_max;
      (void)ahead();
    }
    EXPECT_EQ(ahead.peek(), out) << "unstep is not the inverse step";
    if (quiet) return stream;
  }
  ADD_FAILURE() << "no stream quiet before round " << q;
  return Rng();
}

TEST(LockstepScan, PortableFormComesFirstAndAlwaysRuns) {
  const std::span<const LockstepScan::Variant> forms =
      LockstepScan::variants();
  ASSERT_FALSE(forms.empty());
  EXPECT_STREQ(forms[0].name, "portable");
  EXPECT_TRUE(forms[0].supported);
#if defined(__x86_64__)
  EXPECT_EQ(forms.size(), 3U);
#else
  EXPECT_EQ(forms.size(), 1U);
#endif
}

TEST(LockstepScan, NoLanesAreQuietEveryRound) {
  LockstepScan scan;
  EXPECT_EQ(scan.run(0), 0);
  EXPECT_EQ(scan.run(1'000'000), 1'000'000);
  Rng stream(3);
  const auto before = stream.state_words();
  scan.add(stream, 0);
  scan.clear();
  EXPECT_EQ(scan.run(77), 77);
  EXPECT_EQ(stream.state_words(), before);
  EXPECT_THROW(scan.add(stream, (std::uint64_t{1} << 53) + 1),
               InvariantError);
}

TEST(LockstepScan, EveryFormMatchesAPerRoundScan) {
  const auto forms = runnable_forms();
  // Lane i's bound is cycle[i % 3]: trickle means stop the scan within a
  // few hundred rounds, the others never or at once.
  struct Bounds {
    const char* name;
    std::array<std::uint64_t, 3> cycle;
  };
  const Bounds kBounds[] = {
      {"trickle",
       {PoissonMean(0.0005).zero_max, PoissonMean(0.0002).zero_max,
        PoissonMean(0.01).zero_max}},
      {"never loud", {kNeverLoud, kNeverLoud, kNeverLoud}},
      {"zero", {0, 0, 0}},
  };
  for (const int n : kLaneCounts) {
    for (const std::int64_t limit : {0, 1, 63, 64, 65, 100'000}) {
      for (const Bounds& bounds : kBounds) {
        std::vector<TestLane> lanes;
        for (int i = 0; i < n; ++i) {
          lanes.push_back({Rng(static_cast<std::uint64_t>(1000 * n + i)),
                           bounds.cycle[static_cast<std::size_t>(i % 3)]});
        }
        const std::int64_t steps = expect_forms_match(
            forms, lanes, limit,
            std::to_string(n) + " lanes, limit " + std::to_string(limit) +
                ", bounds " + bounds.name);
        if (bounds.cycle[0] == kNeverLoud) {
          EXPECT_EQ(steps, limit);
        }
      }
    }
  }
}

TEST(LockstepScan, EveryFormStopsAtTheExactZeroBoundary) {
  // One lane's output in round q sits exactly at its bound (quiet) or one
  // past it (loud), in every position among lanes that are never loud.
  const auto forms = runnable_forms();
  const std::uint64_t kLowBits[] = {0, 0x7ff};
  struct Boundary {
    std::uint64_t zero_max;
    std::vector<std::int64_t> rounds;
  };
  const std::vector<Boundary> boundaries = {
      {0, {0}},
      {PoissonMean(0.0005).zero_max, {0, 1, 63, 64, 65}},
      {kNeverLoud - 1, {0, 1, 63, 64, 65}},
  };
  for (const Boundary& boundary : boundaries) {
    for (const int n : kLaneCounts) {
      for (int p = 0; p < n; ++p) {
        for (const std::int64_t q : boundary.rounds) {
          for (const std::uint64_t low : kLowBits) {
            for (const bool loud : {false, true}) {
              std::vector<TestLane> lanes;
              for (int i = 0; i < n; ++i) {
                lanes.push_back(
                    {Rng(static_cast<std::uint64_t>(100 + i)), kNeverLoud});
              }
              const std::uint64_t out =
                  ((boundary.zero_max + (loud ? 1 : 0)) << 11) | low;
              lanes[static_cast<std::size_t>(p)] = {
                  stream_with_output_at(out, q, boundary.zero_max),
                  boundary.zero_max};
              const std::string what =
                  std::to_string(n) + " lanes, lane " + std::to_string(p) +
                  (loud ? " loud" : " quiet") + " in round " +
                  std::to_string(q) + " at bound " +
                  std::to_string(boundary.zero_max);
              const std::int64_t steps =
                  expect_forms_match(forms, lanes, q + 3, what);
              if (loud) {
                EXPECT_EQ(steps, q) << what;
              } else {
                EXPECT_GT(steps, q) << what;
              }
            }
          }
        }
      }
    }
  }
}

TEST(StampedMap, SetGetClear) {
  StampedMap<int> map;
  map.ensure_size(10);
  EXPECT_FALSE(map.contains(3));
  map.set(3, 42);
  EXPECT_TRUE(map.contains(3));
  EXPECT_EQ(map.at(3), 42);
  map.clear();
  EXPECT_FALSE(map.contains(3));
  map.set(3, 7);
  EXPECT_EQ(map.at(3), 7);
}

TEST(StampedMap, OutOfRangeContainsIsFalse) {
  StampedMap<int> map;
  map.ensure_size(4);
  EXPECT_FALSE(map.contains(100));
}

TEST(StampedMap, GrowsPreservingEntries) {
  StampedMap<int> map;
  map.ensure_size(2);
  map.set(1, 5);
  map.ensure_size(100);
  EXPECT_TRUE(map.contains(1));
  EXPECT_EQ(map.at(1), 5);
  map.set(99, 9);
  EXPECT_EQ(map.at(99), 9);
}

TEST(ThreadPool, RunsAllTasks) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 100; ++i) {
      pool.submit([&count] { count.fetch_add(1); });
    }
  }  // destruction drains the queue
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(3);
  std::vector<int> hits(257, 0);
  pool.parallel_for(hits.size(),
                    [&hits](std::size_t i) { hits[i] = 1; });
  for (const int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, ParallelForPropagatesException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(8,
                                 [](std::size_t i) {
                                   if (i == 5) throw std::runtime_error("x");
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, FreeFunctionParallelForInlineForSmallCounts) {
  std::vector<int> hits(1, 0);
  parallel_for(1, [&hits](std::size_t i) { hits[i] = 1; });
  EXPECT_EQ(hits[0], 1);
  parallel_for(0, [](std::size_t) { FAIL() << "must not run"; });
}

TEST(Stopwatch, MonotonicNonNegative) {
  Stopwatch watch;
  EXPECT_GE(watch.seconds(), 0.0);
  const double first = watch.seconds();
  EXPECT_GE(watch.seconds(), first);
  watch.reset();
  EXPECT_GE(watch.seconds(), 0.0);
}

TEST(Check, MacrosThrowTypedErrors) {
  EXPECT_THROW(RRS_CHECK(false), InvariantError);
  EXPECT_THROW(RRS_CHECK_MSG(false, "boom " << 3), InvariantError);
  EXPECT_THROW(RRS_REQUIRE(false, "bad input " << 7), InputError);
  EXPECT_NO_THROW(RRS_CHECK(true));
  EXPECT_NO_THROW(RRS_REQUIRE(true, "fine"));
}

TEST(Check, MessageContainsContext) {
  try {
    RRS_REQUIRE(false, "value was " << 41);
    FAIL();
  } catch (const InputError& e) {
    EXPECT_NE(std::string(e.what()).find("value was 41"), std::string::npos);
  }
}

}  // namespace
}  // namespace rrs
