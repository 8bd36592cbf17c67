// Steps many xoshiro256** streams together while all of them stay quiet.
//
// A trickle generator's quiet-round skip (workload/generator_source.h)
// asks, round after round, whether every lane's next output word is a
// zero draw, `(Rng::peek() >> 11) <= zero_max`, and steps every lane one
// word when it is.  The lanes are independent streams, so four of them
// fit one 256-bit register.  LockstepScan gathers their states
// struct-of-arrays, four lanes to a group, runs that loop on all groups
// at once and scatters the states back.  Each lane moves exactly as it
// would if it were stepped alone, so no draw changes.  A padding lane has
// the all-zero state: its output is 0 and its step keeps it 0, so it
// never stops the scan.
//
// The kernel has a portable form, always compiled.  On x86-64 there are
// also an AVX2 form and an AVX-512VL form (256-bit registers), each
// compiled for its instruction set through a function target attribute,
// so no build flag is involved.  run() uses the last form in variants()
// that the host supports, chosen once per process.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/rng.h"

namespace rrs {

class LockstepScan {
 public:
  /// Four lanes, word-major: `s[w][i]` is state word w of lane i, and
  /// `zero_max[i]` is the largest `peek() >> 11` at which lane i is quiet.
  struct alignas(32) Group {
    std::uint64_t s[4][4]{};
    std::uint64_t zero_max[4]{};
  };

  /// One form of the kernel.  It steps every lane of `groups` one word per
  /// round, for at most `limit` rounds, and stops before the first round
  /// in which some lane's `(peek() >> 11) > zero_max`.  It returns the
  /// rounds stepped.
  using Kernel = std::int64_t (*)(std::span<Group> groups,
                                  std::int64_t limit);

  struct Variant {
    const char* name;
    bool supported;  ///< this host can run it
    Kernel kernel;
  };

  /// Every form compiled into this build, portable first.
  [[nodiscard]] static std::span<const Variant> variants();

  /// Drops the lanes of the previous scan.
  void clear() { lanes_.clear(); }

  /// Adds a lane: `stream` steps while `(stream.peek() >> 11) <= zero_max`.
  /// `zero_max` is at most 2^53 (PoissonMean::zero_max); the stream must
  /// outlive the next run().
  void add(Rng& stream, std::uint64_t zero_max);

  /// Steps the lanes over the quiet rounds among the next `limit`, with the
  /// fastest form the host supports, and returns how many it stepped: the
  /// first round in which some lane is not quiet, or `limit`.  With no
  /// lanes every round is quiet.
  [[nodiscard]] std::int64_t run(std::int64_t limit);

  /// The same scan with the given form, which the host must support.
  [[nodiscard]] std::int64_t run(const Variant& variant, std::int64_t limit);

 private:
  struct Lane {
    Rng* stream;
    std::uint64_t zero_max;
  };
  std::vector<Lane> lanes_;
  std::vector<Group> groups_;  ///< run()'s gathered states
};

}  // namespace rrs
