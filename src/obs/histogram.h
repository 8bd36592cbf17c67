#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <limits>
#include <span>
#include <utility>

#include "core/types.h"
#include "util/check.h"

namespace rrs {

/// Fixed-bucket log2 histogram over nonnegative integer samples.
///
/// Bucket layout: bucket 0 holds the value 0, bucket i (i >= 1) holds
/// [2^(i-1), 2^i - 1] — i.e. bucket_of(v) == std::bit_width(v).  64 buckets
/// cover the full nonnegative Round range, so record() never saturates.
///
/// Everything is plain integer arithmetic: merge() is elementwise addition,
/// which makes merging exact, commutative, and associative by construction.
/// count/sum/min/max are tracked exactly (not from buckets), so streaming
/// aggregates can be compared bit-for-bit against post-hoc instruments.
class Histogram {
 public:
  static constexpr int kNumBuckets = 64;

  /// Bucket index for a nonnegative value.
  [[nodiscard]] static constexpr int bucket_of(Round v) {
    if (v <= 0) return 0;
    return static_cast<int>(std::bit_width(static_cast<std::uint64_t>(v)));
  }

  /// Inclusive upper bound of a bucket (bucket 0 -> 0, bucket i -> 2^i - 1).
  [[nodiscard]] static constexpr Round bucket_upper(int bucket) {
    return bucket <= 0 ? 0 : (Round{1} << bucket) - 1;
  }

  /// O(1), allocation-free.  `v` must be nonnegative.
  void record(Round v) {
    RRS_CHECK(v >= 0);
    ++buckets_[static_cast<std::size_t>(bucket_of(v))];
    ++count_;
    sum_ += v;
    if (v < min_) min_ = v;
    if (v > max_) max_ = v;
  }

  /// Exact elementwise merge; commutative and associative.
  void merge(const Histogram& other) {
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
      buckets_[i] += other.buckets_[i];
    }
    count_ += other.count_;
    sum_ += other.sum_;
    if (other.min_ < min_) min_ = other.min_;
    if (other.max_ > max_) max_ = other.max_;
  }

  void reset() { *this = Histogram{}; }

  [[nodiscard]] std::int64_t count() const { return count_; }
  [[nodiscard]] std::int64_t sum() const { return sum_; }
  [[nodiscard]] bool empty() const { return count_ == 0; }
  /// Exact min/max of recorded samples; 0 when empty.
  [[nodiscard]] Round min() const { return count_ == 0 ? 0 : min_; }
  [[nodiscard]] Round max() const { return count_ == 0 ? 0 : max_; }
  [[nodiscard]] double mean() const {
    if (count_ == 0) return 0.0;
    return static_cast<double>(sum_) / static_cast<double>(count_);
  }

  [[nodiscard]] std::int64_t bucket(int i) const {
    RRS_CHECK(i >= 0 && i < kNumBuckets);
    return buckets_[static_cast<std::size_t>(i)];
  }

  /// Nearest-rank percentile resolved to the bucket upper bound: the
  /// smallest bucket boundary b such that at least ceil(p*count/100)
  /// samples are <= b.  Exact for the min/max buckets, within one bucket
  /// (a factor of 2) elsewhere.  Returns 0 on an empty histogram.
  [[nodiscard]] Round percentile(int p) const {
    RRS_CHECK(p >= 1 && p <= 100);
    if (count_ == 0) return 0;
    const std::int64_t rank = (count_ * p + 99) / 100;  // ceil, >= 1
    std::int64_t seen = 0;
    for (int i = 0; i < kNumBuckets; ++i) {
      seen += buckets_[static_cast<std::size_t>(i)];
      if (seen >= rank) return i == bucket_of(max_) ? max_ : bucket_upper(i);
    }
    return max_;  // unreachable: seen == count_ >= rank after the loop
  }

  /// Reconstructs a histogram from serialized parts, validating internal
  /// consistency.  Throws InputError on any inconsistency (used by the
  /// snapshot reader so corrupt inputs are rejected, never absorbed).
  static Histogram from_parts(
      std::int64_t count, std::int64_t sum, Round min, Round max,
      std::span<const std::pair<int, std::int64_t>> buckets) {
    Histogram h;
    RRS_REQUIRE(count >= 0 && sum >= 0, "histogram: negative count/sum");
    if (count == 0) {
      RRS_REQUIRE(sum == 0 && min == 0 && max == 0 && buckets.empty(),
                  "histogram: empty count with nonempty payload");
      return h;
    }
    RRS_REQUIRE(min >= 0 && min <= max, "histogram: min/max out of order");
    std::int64_t total = 0;
    int prev = -1;
    for (const auto& [index, n] : buckets) {
      RRS_REQUIRE(index >= 0 && index < kNumBuckets,
                  "histogram: bucket index out of range");
      RRS_REQUIRE(index > prev, "histogram: bucket indices not increasing");
      RRS_REQUIRE(n > 0, "histogram: nonpositive bucket count");
      RRS_REQUIRE(total <= std::numeric_limits<std::int64_t>::max() - n,
                  "histogram: bucket counts overflow");
      prev = index;
      total += n;
      h.buckets_[static_cast<std::size_t>(index)] = n;
    }
    RRS_REQUIRE(total == count, "histogram: bucket counts do not sum to count");
    RRS_REQUIRE(!buckets.empty(), "histogram: count > 0 with no buckets");
    RRS_REQUIRE(bucket_of(min) == buckets.front().first,
                "histogram: min not in lowest bucket");
    RRS_REQUIRE(bucket_of(max) == buckets.back().first,
                "histogram: max not in highest bucket");
    // Overflow-safe mean bound: floor(sum/count) must land in [min, max].
    RRS_REQUIRE(sum / count >= min && sum / count <= max,
                "histogram: mean outside [min, max]");
    h.count_ = count;
    h.sum_ = sum;
    h.min_ = min;
    h.max_ = max;
    return h;
  }

  friend bool operator==(const Histogram&, const Histogram&) = default;

 private:
  std::array<std::int64_t, kNumBuckets> buckets_{};
  std::int64_t count_ = 0;
  std::int64_t sum_ = 0;
  Round min_ = std::numeric_limits<Round>::max();
  Round max_ = -1;
};

}  // namespace rrs
