#include "obs/stream_stats.h"

#include <cstddef>
#include <utility>
#include <vector>

#include "core/checkpoint.h"

namespace rrs {

namespace {

void put(CheckpointWriter& w, std::int64_t v) { w.i64(v); }

void get(CheckpointReader& r, std::int64_t& v) { v = r.i64(); }

/// Histograms serialize as exact aggregates plus a sparse bucket list; the
/// reader round-trips through Histogram::from_parts so every internal
/// consistency check applies to checkpointed data too.
void put(CheckpointWriter& w, const Histogram& h) {
  w.i64(h.count());
  w.i64(h.sum());
  w.i64(h.min());
  w.i64(h.max());
  std::uint64_t nonzero = 0;
  for (int i = 0; i < Histogram::kNumBuckets; ++i) {
    if (h.bucket(i) > 0) ++nonzero;
  }
  w.u64(nonzero);
  for (int i = 0; i < Histogram::kNumBuckets; ++i) {
    if (h.bucket(i) > 0) {
      w.u32(static_cast<std::uint32_t>(i));
      w.i64(h.bucket(i));
    }
  }
}

void get(CheckpointReader& r, Histogram& h) {
  const std::int64_t count = r.i64();
  const std::int64_t sum = r.i64();
  const Round min = r.i64();
  const Round max = r.i64();
  const std::uint64_t nonzero = r.u64();
  RRS_REQUIRE(nonzero <= static_cast<std::uint64_t>(Histogram::kNumBuckets),
              "checkpoint histogram has too many buckets");
  std::vector<std::pair<int, std::int64_t>> buckets;
  buckets.reserve(static_cast<std::size_t>(nonzero));
  for (std::uint64_t i = 0; i < nonzero; ++i) {
    const std::uint32_t index = r.u32();
    RRS_REQUIRE(index < static_cast<std::uint32_t>(Histogram::kNumBuckets),
                "checkpoint histogram bucket index out of range");
    buckets.emplace_back(static_cast<int>(index), r.i64());
  }
  h = Histogram::from_parts(count, sum, min, max, buckets);
}

}  // namespace

void StreamStats::checkpoint(CheckpointWriter& w) const {
  const auto write = [&w](const auto&, const auto& value) { put(w, value); };
  w.i64(last_reconfig_round_);
  for_each_field(write, *this);
  w.u64(per_color_.size());
  for (const ColorObs& obs : per_color_) for_each_field(write, obs);
}

void StreamStats::restore_checkpoint(CheckpointReader& r) {
  const auto read = [&r](const auto&, auto& value) { get(r, value); };
  last_reconfig_round_ = r.i64();
  RRS_REQUIRE(last_reconfig_round_ >= -1,
              "checkpoint reconfig cursor out of range");
  for_each_field(read, *this);
  RRS_REQUIRE(r.u64() == per_color_.size(),
              "checkpoint stream-stats color count mismatch");
  for (ColorObs& obs : per_color_) for_each_field(read, obs);
}

}  // namespace rrs
