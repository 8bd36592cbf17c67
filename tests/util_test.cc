// Unit tests for src/util: bit helpers, RNG, stamped map, thread pool,
// check macros.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cmath>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "core/types.h"
#include "util/bits.h"
#include "util/check.h"
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
