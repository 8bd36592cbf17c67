// Small power-of-two helpers used throughout the delay-bound machinery.
//
// The paper's core results (Sections 3-5) assume every delay bound D_l is a
// power of two; Section 5.3 reduces arbitrary bounds to this case.  These
// helpers centralize the bit manipulation those reductions need.
#pragma once

#include <bit>
#include <cstdint>

#include "util/check.h"

namespace rrs {

/// True iff `x` is a power of two (so 0 -> false).
[[nodiscard]] constexpr bool is_pow2(std::int64_t x) noexcept {
  return x > 0 && (x & (x - 1)) == 0;
}

/// Largest power of two that is <= x.  Requires x >= 1.
[[nodiscard]] constexpr std::int64_t floor_pow2(std::int64_t x) {
  RRS_CHECK(x >= 1);
  return std::int64_t{1}
         << (63 - std::countl_zero(static_cast<std::uint64_t>(x)));
}

/// Smallest power of two that is >= x.  Requires x >= 1.
[[nodiscard]] constexpr std::int64_t ceil_pow2(std::int64_t x) {
  RRS_CHECK(x >= 1);
  const std::int64_t f = floor_pow2(x);
  return f == x ? f : f * 2;
}

/// Floor of log2(x).  Requires x >= 1.
[[nodiscard]] constexpr int floor_log2(std::int64_t x) {
  RRS_CHECK(x >= 1);
  return 63 - std::countl_zero(static_cast<std::uint64_t>(x));
}

/// Round `x` down to the nearest multiple of `m`.  Requires m >= 1, x >= 0.
[[nodiscard]] constexpr std::int64_t floor_multiple(std::int64_t x,
                                                    std::int64_t m) {
  RRS_CHECK(m >= 1 && x >= 0);
  return (x / m) * m;
}

/// Round `x` up to the nearest multiple of `m`.  Requires m >= 1, x >= 0.
[[nodiscard]] constexpr std::int64_t ceil_multiple(std::int64_t x,
                                                   std::int64_t m) {
  RRS_CHECK(m >= 1 && x >= 0);
  return ((x + m - 1) / m) * m;
}

}  // namespace rrs
