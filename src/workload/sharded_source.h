// Splits one ArrivalSource into per-shard streams without materializing.
//
// A ShardedSource wraps a single-consumer ArrivalSource and exposes K
// single-consumer ArrivalSource views, one per shard of a ShardPlan: view
// s yields exactly the jobs of shard s's colors, relabeled to the shard's
// dense local ColorIds (the identity when K == 1), in the underlying
// round/order.  Global job ids are preserved, so the union of the shard
// streams is the original stream.
//
// The demux fabric: a dedicated producer thread pulls the underlying
// source in chunks of `chunk_rounds` rounds, demultiplexes each chunk into
// K per-shard chunks, and pushes them into per-shard bounded SPSC ring
// buffers (util/spsc_ring.h).  The consumer path is lock-free — a shard
// stream serves its rounds out of its current chunk and refills with one
// acquire-load ring pop, never touching a mutex or the underlying source.
// With `backpressure` on (concurrent consumers), the producer blocks with
// capped exponential backoff when a ring is full, so memory stays bounded
// at max_buffered_chunks per shard; a stall watchdog counts consecutive
// producer waits during which the blocked ring's consumer made no
// progress, and aborts with an InvariantError carrying per-shard ring
// diagnostics once a consumer looks dead.  With backpressure off (serial
// consumption — e.g. one worker thread draining shard 0 fully before
// shard 1), each ring is sized to the whole round range up front so the
// producer never blocks and no wait can deadlock the single thread.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/arrival_source.h"
#include "core/shard_plan.h"

namespace rrs {

class TraceRing;

/// Knobs for the demux fabric.
struct ShardedSourceOptions {
  /// Rounds pulled from the underlying source per produced chunk.
  Round chunk_rounds = 256;
  /// Ring capacity (buffered chunks) per shard when backpressure is on.
  /// Rounded up to a power of two.
  std::size_t max_buffered_chunks = 64;
  /// Apply backpressure (the producer blocks on a full ring) when the
  /// shard streams are consumed concurrently.  Turn off when they are
  /// consumed serially (e.g. one worker thread): the rings are then sized
  /// to the full round range so the producer never has to wait on a
  /// consumer that will only run later.
  bool backpressure = true;
  /// Stall watchdog: with backpressure on, this many consecutive producer
  /// backoff waits during which the blocked ring's consumer popped nothing
  /// means that consumer has stalled or died (a live one would have
  /// drained something across ~8s of waits at the default) — the producer
  /// then fails the run with an InvariantError carrying per-shard ring
  /// occupancy instead of hanging CI.  0 disables; no effect without
  /// backpressure (the producer never waits).
  std::size_t stall_chunk_limit = 4096;
  /// Optional trace sink (not owned) for the stall watchdog: right before
  /// it throws, the producer pushes one kFabricStall event (round = the
  /// blocked chunk's first round, detail = the stalled ring's index,
  /// value = that ring's occupancy) so post-mortem trace dumps show where
  /// the fabric died.  Only the producer thread touches it, and only at
  /// failure time — do not share it with a concurrently written ring.
  TraceRing* stall_trace = nullptr;
};

/// K single-consumer shard views over one underlying ArrivalSource.
class ShardedSource {
 public:
  /// Splits `source` (pulled for rounds [0, arrival_end)) per `plan`.
  /// `source` must be unpulled, must outlive this object, and must not be
  /// pulled by anyone else while the fabric is alive (the demux thread
  /// owns it).  `arrival_end` must be finite and within the source's
  /// horizon.
  ShardedSource(ArrivalSource& source, const ShardPlan& plan,
                Round arrival_end, ShardedSourceOptions options = {});
  /// Stops and joins the demux thread.
  ~ShardedSource();

  ShardedSource(const ShardedSource&) = delete;
  ShardedSource& operator=(const ShardedSource&) = delete;

  [[nodiscard]] int num_shards() const;

  /// The shard-`shard` view: a finite ArrivalSource with horizon
  /// `arrival_end`, the shard's colors relabeled densely, and the global
  /// metadata (delta) passed through.  Single consumer, sequential pull
  /// starting at round 0.
  [[nodiscard]] ArrivalSource& stream(int shard);

  /// Queue-depth gauge: the most chunks ever buffered in `shard`'s ring at
  /// once.  Timing-dependent (consumer scheduling changes it run to run),
  /// so this is a diagnostic — it must never feed deterministic run stats.
  [[nodiscard]] std::int64_t peak_buffered_chunks(int shard) const;

  /// Total chunks pushed across all shard rings so far.  Deterministic
  /// for a fixed (source, plan, chunk_rounds) once the run completes.
  [[nodiscard]] std::int64_t chunks_produced() const;

 private:
  class Fabric;
  class Stream;

  std::shared_ptr<Fabric> fabric_;
  std::vector<std::unique_ptr<Stream>> streams_;
};

}  // namespace rrs
