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
// K per-shard chunks without holding any lock, and queues each part on its
// shard's deque.  One mutex guards the K queues; a shard stream takes its
// next chunk under it and serves rounds out of that chunk without touching
// the lock or the underlying source again.  With `backpressure` on, the
// producer waits on a condition variable while a shard's queue holds
// max_buffered_chunks, so memory stays bounded; with it off the queues are
// unbounded.  A stream waits only while its own queue is empty.  close()
// wakes both sides: the producer returns, and a stream that needs a chunk
// that is not queued throws InvariantError, so one dead consumer fails the
// others at once instead of leaving them waiting.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/arrival_source.h"
#include "core/shard_plan.h"

namespace rrs {

/// Knobs for the demux fabric.
struct ShardedSourceOptions {
  /// Rounds pulled from the underlying source per produced chunk.
  Round chunk_rounds = 256;
  /// Queue capacity (buffered chunks) per shard when backpressure is on.
  std::size_t max_buffered_chunks = 64;
  /// Apply backpressure (the producer waits on a full queue).  Turn off
  /// when the shard streams are consumed serially (e.g. one thread walks
  /// shard 0 to the end before shard 1): the producer then never waits on
  /// a consumer that will only run later, and the queues hold whatever
  /// has not been consumed yet.
  bool backpressure = true;
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
  /// Closes the fabric and joins the demux thread.
  ~ShardedSource();

  ShardedSource(const ShardedSource&) = delete;
  ShardedSource& operator=(const ShardedSource&) = delete;

  [[nodiscard]] int num_shards() const;

  /// The shard-`shard` view: a finite ArrivalSource with horizon
  /// `arrival_end`, the shard's colors relabeled densely, and the global
  /// metadata (delta) passed through.  Single consumer, sequential pull
  /// starting at round 0.
  [[nodiscard]] ArrivalSource& stream(int shard);

  /// Queue-depth gauge: the most chunks ever buffered in `shard`'s queue
  /// at once.  Timing-dependent (consumer scheduling changes it run to run),
  /// so this is a diagnostic — it must never feed deterministic run stats.
  [[nodiscard]] std::int64_t peak_buffered_chunks(int shard) const;

  /// Total chunks queued across all shards so far.  Deterministic
  /// for a fixed (source, plan, chunk_rounds) once the run completes.
  [[nodiscard]] std::int64_t chunks_produced() const;

  /// Stops the fabric: the producer returns, and from then on a stream
  /// that needs a chunk that is not queued throws InvariantError.  The
  /// sharded runner calls it when a shard dies, so the other shards fail
  /// at once instead of waiting on a producer stuck behind the dead
  /// shard's queue.  Idempotent and safe from any thread.
  void close();

 private:
  class Fabric;
  class Stream;

  std::unique_ptr<Fabric> fabric_;
  std::vector<std::unique_ptr<Stream>> streams_;
};

}  // namespace rrs
