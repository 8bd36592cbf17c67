// Deterministic, seedable random number generation for workload synthesis.
//
// All workload generators take an explicit 64-bit seed so every experiment
// in bench/ and every property test in tests/ is exactly reproducible.
// We use xoshiro256** (public domain, Blackman & Vigna) seeded through
// SplitMix64, rather than std::mt19937, because its state is trivially
// copyable and its output is identical across standard library
// implementations.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>

#include "util/check.h"

namespace rrs {

/// SplitMix64 step; used to expand a single seed into generator state.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// A Poisson mean and the bound exp(-mean) that Rng::poisson's sampler
/// draws against, computed once: a generator that draws one mean every
/// round pays no exp() per draw.
struct PoissonMean {
  PoissonMean() = default;
  explicit PoissonMean(double m) : mean(m), bound(std::exp(-m)) {
    RRS_CHECK_MSG(drawable(m), "Poisson mean " << m);
    zero_max = static_cast<std::uint64_t>(std::ldexp(bound, 53));
  }

  /// True when Rng::poisson draws mean `m` exactly: exp(-m) is a normal
  /// double, so 0 <= m <= 708.39.  Past that, the bound is subnormal or 0
  /// and Knuth's product stops only when it underflows (a mean of 800
  /// samples about 745).
  [[nodiscard]] static bool drawable(double m) {
    return m >= 0.0 && std::isnormal(std::exp(-m));
  }

  double mean = 0.0;
  double bound = 1.0;  ///< exp(-mean)
  /// floor(bound * 2^53): poisson() returns 0 exactly when its first
  /// uniform's 53 bits, (output >> 11), are at most this.
  std::uint64_t zero_max = std::uint64_t{1} << 53;
};

/// xoshiro256** PRNG.  Satisfies std::uniform_random_bit_generator.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit constexpr Rng(std::uint64_t seed = 0x5eed5eed5eed5eedULL) {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  constexpr result_type operator()() {
    const std::uint64_t result = peek();
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// The output the next operator()() returns, without stepping.
  [[nodiscard]] constexpr result_type peek() const {
    return rotl(state_[1] * 5, 7) * 9;
  }

  /// Uniform integer in [lo, hi] inclusive.  Requires lo <= hi.
  [[nodiscard]] std::int64_t uniform(std::int64_t lo, std::int64_t hi) {
    RRS_CHECK(lo <= hi);
    const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
    if (span == 0) return static_cast<std::int64_t>((*this)());
    // Unbiased rejection sampling (Lemire's method without multiplication
    // tricks; the rejection loop terminates quickly for all spans).  For a
    // power-of-two span both remainders are masks: same draws, no division.
    const bool pow2 = (span & (span - 1)) == 0;
    const std::uint64_t limit =
        pow2 ? max() - (span - 1) : max() - max() % span;
    std::uint64_t draw;
    do {
      draw = (*this)();
    } while (draw >= limit);
    return lo + static_cast<std::int64_t>(pow2 ? draw & (span - 1)
                                               : draw % span);
  }

  /// Uniform double in [0, 1).
  [[nodiscard]] double uniform01() {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli draw with success probability p.
  [[nodiscard]] bool bernoulli(double p) { return uniform01() < p; }

  /// Poisson draw by Knuth's algorithm, adequate for the small means
  /// (< 64) used by workload generators: multiplies uniform draws until
  /// the product falls to m.bound, taking count + 1 draws for a result of
  /// count.  A mean of 0 takes none.  The first product is 1.0 times the
  /// first uniform, so the result is 0 exactly when
  /// `(peek() >> 11) <= m.zero_max`.
  [[nodiscard]] std::int64_t poisson(const PoissonMean& m) {
    if (m.mean == 0.0) return 0;
    double threshold = 1.0;
    std::int64_t count = -1;
    do {
      ++count;
      threshold *= uniform01();
    } while (threshold > m.bound);
    return count;
  }

  /// The same draw for a mean drawn once (one exp() per call).
  [[nodiscard]] std::int64_t poisson(double mean) {
    return poisson(PoissonMean(mean));
  }

  /// The full generator state, for checkpointing.  Restoring the exact
  /// words resumes the output sequence bit-identically.
  [[nodiscard]] constexpr std::array<std::uint64_t, 4> state_words() const {
    return {state_[0], state_[1], state_[2], state_[3]};
  }

  constexpr void set_state_words(const std::array<std::uint64_t, 4>& words) {
    for (int i = 0; i < 4; ++i) state_[i] = words[static_cast<std::size_t>(i)];
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4]{};
};

}  // namespace rrs
