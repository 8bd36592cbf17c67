#include "util/lockstep_scan.h"

#include <array>
#include <cstddef>

#include "util/check.h"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace rrs {
namespace {

using Group = LockstepScan::Group;

// --- The portable form: the loop the SIMD forms run, a lane at a time. ---

constexpr std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

/// True when some lane of `g` is not quiet (its output is Rng::peek()'s).
bool loud(const Group& g) {
  for (std::size_t i = 0; i < 4; ++i) {
    const std::uint64_t out = rotl(g.s[1][i] * 5, 7) * 9;
    if ((out >> 11) > g.zero_max[i]) return true;
  }
  return false;
}

/// Rng::operator()'s step on every lane of `g`.
void step(Group& g) {
  for (std::size_t i = 0; i < 4; ++i) {
    const std::uint64_t t = g.s[1][i] << 17;
    g.s[2][i] ^= g.s[0][i];
    g.s[3][i] ^= g.s[1][i];
    g.s[1][i] ^= g.s[2][i];
    g.s[0][i] ^= g.s[3][i];
    g.s[2][i] ^= t;
    g.s[3][i] = rotl(g.s[3][i], 45);
  }
}

std::int64_t scan_portable(std::span<Group> groups, std::int64_t limit) {
  std::int64_t r = 0;
  for (; r < limit; ++r) {
    bool any = false;
    for (const Group& g : groups) any = any || loud(g);
    if (any) break;
    for (Group& g : groups) step(g);
  }
  return r;
}

#if defined(__x86_64__)

// --- The x86-64 forms: one group per 256-bit register. ---
//
// A group is read as five vectors: its four state words, then its bounds.
// The scan keeps one or two groups (4 or 8 lanes) in registers and works
// on memory past that.  The output test compares (out >> 11) < 2^53 with
// a bound of at most 2^53, so AVX2's signed compare is exact.

constexpr std::size_t kVectors = 5;
static_assert(sizeof(Group) == kVectors * sizeof(__m256i));

template <int K>
[[gnu::target("avx2")]] inline __m256i rotl_avx2(__m256i x) {
  return _mm256_or_si256(_mm256_slli_epi64(x, K),
                         _mm256_srli_epi64(x, 64 - K));
}

/// All ones in the lanes of group `v` that are not quiet.
[[gnu::target("avx2")]] inline __m256i loud_avx2(const __m256i* v) {
  const __m256i x5 = _mm256_add_epi64(_mm256_slli_epi64(v[1], 2), v[1]);
  const __m256i r = rotl_avx2<7>(x5);
  const __m256i out = _mm256_add_epi64(_mm256_slli_epi64(r, 3), r);
  return _mm256_cmpgt_epi64(_mm256_srli_epi64(out, 11), v[4]);
}

[[gnu::target("avx2")]] inline void step_avx2(__m256i* v) {
  const __m256i t = _mm256_slli_epi64(v[1], 17);
  v[2] = _mm256_xor_si256(v[2], v[0]);
  v[3] = _mm256_xor_si256(v[3], v[1]);
  v[1] = _mm256_xor_si256(v[1], v[2]);
  v[0] = _mm256_xor_si256(v[0], v[3]);
  v[2] = _mm256_xor_si256(v[2], t);
  v[3] = rotl_avx2<45>(v[3]);
}

[[gnu::target("avx2"), gnu::always_inline]] inline std::int64_t loop_avx2(
    __m256i* v, std::size_t groups, std::int64_t limit) {
  std::int64_t r = 0;
  for (; r < limit; ++r) {
    __m256i any = loud_avx2(v);
    for (std::size_t g = 1; g < groups; ++g) {
      any = _mm256_or_si256(any, loud_avx2(v + kVectors * g));
    }
    if (_mm256_testz_si256(any, any) == 0) break;
    for (std::size_t g = 0; g < groups; ++g) step_avx2(v + kVectors * g);
  }
  return r;
}

template <std::size_t G>
[[gnu::target("avx2")]] std::int64_t in_registers_avx2(__m256i* v,
                                                       std::int64_t limit) {
  __m256i local[G * kVectors];
  for (std::size_t i = 0; i < G * kVectors; ++i) local[i] = v[i];
  const std::int64_t r = loop_avx2(local, G, limit);
  for (std::size_t i = 0; i < G * kVectors; ++i) v[i] = local[i];
  return r;
}

[[gnu::target("avx2")]] std::int64_t scan_avx2(std::span<Group> groups,
                                               std::int64_t limit) {
  auto* v = reinterpret_cast<__m256i*>(groups.data());
  switch (groups.size()) {
    case 1:
      return in_registers_avx2<1>(v, limit);
    case 2:
      return in_registers_avx2<2>(v, limit);
    default:
      return loop_avx2(v, groups.size(), limit);
  }
}

// AVX-512VL on the same 256-bit registers: vprolq for both rotates, and an
// unsigned compare into a mask register, tested without a reduction.

/// The lanes of group `v` that are not quiet.
[[gnu::target("avx512f,avx512vl")]] inline __mmask8 loud_avx512(
    const __m256i* v) {
  const __m256i x5 = _mm256_add_epi64(_mm256_slli_epi64(v[1], 2), v[1]);
  const __m256i r = _mm256_rol_epi64(x5, 7);
  const __m256i out = _mm256_add_epi64(_mm256_slli_epi64(r, 3), r);
  return _mm256_cmpgt_epu64_mask(_mm256_srli_epi64(out, 11), v[4]);
}

[[gnu::target("avx512f,avx512vl")]] inline void step_avx512(__m256i* v) {
  const __m256i t = _mm256_slli_epi64(v[1], 17);
  v[2] = _mm256_xor_si256(v[2], v[0]);
  v[3] = _mm256_xor_si256(v[3], v[1]);
  v[1] = _mm256_xor_si256(v[1], v[2]);
  v[0] = _mm256_xor_si256(v[0], v[3]);
  v[2] = _mm256_xor_si256(v[2], t);
  v[3] = _mm256_rol_epi64(v[3], 45);
}

[[gnu::target("avx512f,avx512vl"), gnu::always_inline]] inline std::int64_t
loop_avx512(__m256i* v, std::size_t groups, std::int64_t limit) {
  std::int64_t r = 0;
  for (; r < limit; ++r) {
    __mmask8 any = loud_avx512(v);
    for (std::size_t g = 1; g < groups; ++g) {
      any = static_cast<__mmask8>(any | loud_avx512(v + kVectors * g));
    }
    if (any != 0) break;
    for (std::size_t g = 0; g < groups; ++g) step_avx512(v + kVectors * g);
  }
  return r;
}

template <std::size_t G>
[[gnu::target("avx512f,avx512vl")]] std::int64_t in_registers_avx512(
    __m256i* v, std::int64_t limit) {
  __m256i local[G * kVectors];
  for (std::size_t i = 0; i < G * kVectors; ++i) local[i] = v[i];
  const std::int64_t r = loop_avx512(local, G, limit);
  for (std::size_t i = 0; i < G * kVectors; ++i) v[i] = local[i];
  return r;
}

[[gnu::target("avx512f,avx512vl")]] std::int64_t scan_avx512vl(
    std::span<Group> groups, std::int64_t limit) {
  auto* v = reinterpret_cast<__m256i*>(groups.data());
  switch (groups.size()) {
    case 1:
      return in_registers_avx512<1>(v, limit);
    case 2:
      return in_registers_avx512<2>(v, limit);
    default:
      return loop_avx512(v, groups.size(), limit);
  }
}

#endif  // __x86_64__

}  // namespace

std::span<const LockstepScan::Variant> LockstepScan::variants() {
  static const std::vector<Variant> all = [] {
    std::vector<Variant> forms{{"portable", true, scan_portable}};
#if defined(__x86_64__)
    __builtin_cpu_init();
    forms.push_back(
        {"avx2", __builtin_cpu_supports("avx2") != 0, scan_avx2});
    forms.push_back({"avx512vl",
                     __builtin_cpu_supports("avx512f") != 0 &&
                         __builtin_cpu_supports("avx512vl") != 0,
                     scan_avx512vl});
#endif
    return forms;
  }();
  return all;
}

void LockstepScan::add(Rng& stream, std::uint64_t zero_max) {
  RRS_CHECK_MSG(zero_max <= std::uint64_t{1} << 53,
                "lane bound " << zero_max << " exceeds 2^53");
  lanes_.push_back(Lane{&stream, zero_max});
}

std::int64_t LockstepScan::run(std::int64_t limit) {
  static const Variant* const fastest = [] {
    const Variant* pick = nullptr;
    for (const Variant& form : variants()) {
      if (form.supported) pick = &form;
    }
    return pick;
  }();
  return run(*fastest, limit);
}

std::int64_t LockstepScan::run(const Variant& variant, std::int64_t limit) {
  RRS_CHECK_MSG(variant.supported,
                "scan form " << variant.name << " is not supported here");
  RRS_CHECK(limit >= 0);
  if (lanes_.empty()) return limit;
  groups_.assign((lanes_.size() + 3) / 4, Group{});
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    Group& g = groups_[i / 4];
    const std::array<std::uint64_t, 4> words = lanes_[i].stream->state_words();
    for (std::size_t w = 0; w < 4; ++w) g.s[w][i % 4] = words[w];
    g.zero_max[i % 4] = lanes_[i].zero_max;
  }
  const std::int64_t stepped = variant.kernel(groups_, limit);
  for (std::size_t i = 0; stepped > 0 && i < lanes_.size(); ++i) {
    const Group& g = groups_[i / 4];
    lanes_[i].stream->set_state_words(
        {g.s[0][i % 4], g.s[1][i % 4], g.s[2][i % 4], g.s[3][i % 4]});
  }
  return stepped;
}

}  // namespace rrs
