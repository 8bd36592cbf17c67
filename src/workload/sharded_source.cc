#include "workload/sharded_source.h"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <exception>
#include <mutex>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "util/check.h"

namespace rrs {

namespace {

/// `chunk_rounds` consecutive rounds of one shard's arrivals, flattened:
/// round first_round + r spans jobs [begin[r], begin[r + 1]).
struct Chunk {
  Round first_round = 0;
  Round rounds = 0;
  std::vector<Job> jobs;
  std::vector<std::uint32_t> begin;
};

}  // namespace

/// Owns the underlying source and the demux thread; pulls chunks off the
/// source sequentially and queues one part per shard.  `mu_` guards the
/// queues, the gauges and the flags; the producer waits on `space_`, the
/// streams on `ready_`.
class ShardedSource::Fabric {
 public:
  Fabric(ArrivalSource& source, const ShardPlan& plan, Round arrival_end,
         const ShardedSourceOptions& options)
      : source_(&source),
        shard_of_color_(plan.shard_of_color),
        local_of_color_(plan.shard_of_color.size()),
        arrival_end_(arrival_end),
        chunk_rounds_(options.chunk_rounds),
        max_buffered_(options.max_buffered_chunks),
        backpressure_(options.backpressure),
        queues_(static_cast<std::size_t>(plan.num_shards)),
        peaks_(queues_.size(), 0) {
    RRS_REQUIRE(chunk_rounds_ >= 1,
                "chunk_rounds must be >= 1, got " << chunk_rounds_);
    RRS_REQUIRE(max_buffered_ >= 1, "max_buffered_chunks must be >= 1");
    for (const auto& colors : plan.shard_colors) {
      for (std::size_t i = 0; i < colors.size(); ++i) {
        local_of_color_[static_cast<std::size_t>(colors[i])] =
            static_cast<ColorId>(i);
      }
    }
  }

  /// Starts the demux thread.  Separate from the constructor so the
  /// shard streams can snapshot the parent's metadata (including its lazy
  /// cost-model cache) before another thread starts pulling it.
  void start() { demux_ = std::thread([this] { produce_all(); }); }

  ~Fabric() {
    close();
    if (demux_.joinable()) demux_.join();
  }

  void close() {
    {
      const std::scoped_lock lock(mu_);
      closed_ = true;
    }
    space_.notify_all();
    ready_.notify_all();
  }

  /// Queue-depth gauge; see ShardedSource::peak_buffered_chunks.
  [[nodiscard]] std::int64_t peak_buffered(std::size_t shard) const {
    const std::scoped_lock lock(mu_);
    return peaks_[shard];
  }

  [[nodiscard]] std::int64_t chunks_produced() const {
    const std::scoped_lock lock(mu_);
    return chunks_produced_;
  }

  /// Hands shard `shard` its next chunk, which must start at `first`,
  /// waiting while the shard's queue is empty.  A stream that runs dry
  /// rethrows the producer's exception if the producer failed, and throws
  /// InvariantError once the fabric is closed or past its last chunk.
  Chunk take_chunk(int shard, Round first) {
    std::deque<Chunk>& queue = queues_[static_cast<std::size_t>(shard)];
    std::unique_lock lock(mu_);
    ready_.wait(lock, [&] { return !queue.empty() || closed_ || done_; });
    if (queue.empty()) {
      if (error_) std::rethrow_exception(error_);
      RRS_CHECK_MSG(!closed_, "shard " << shard << " needs round " << first
                                       << " but the fabric is closed");
      // The producer queued every chunk in [0, arrival_end); an empty
      // queue here means this consumer pulled past the horizon.
      RRS_CHECK_MSG(false, "shard " << shard << " pulled round " << first
                                    << " past the produced range [0, "
                                    << arrival_end_ << ")");
    }
    Chunk chunk = std::move(queue.front());
    queue.pop_front();
    lock.unlock();
    space_.notify_one();
    RRS_CHECK(chunk.first_round == first);
    return chunk;
  }

 private:
  /// Demux thread body: pull chunk_rounds_ rounds at a time from the
  /// underlying source, stage one chunk per shard, queue each.  An
  /// exception is kept in error_ for the streams to rethrow.
  void produce_all() {
    std::exception_ptr error;
    try {
      for (Round cursor = 0; cursor < arrival_end_;) {
        const Round rounds = std::min(chunk_rounds_, arrival_end_ - cursor);
        std::vector<Chunk> staged(queues_.size());
        for (auto& chunk : staged) {
          chunk.first_round = cursor;
          chunk.rounds = rounds;
          chunk.begin.reserve(static_cast<std::size_t>(rounds) + 1);
          chunk.begin.push_back(0);
        }
        for (Round r = 0; r < rounds; ++r) {
          for (const Job& job : source_->arrivals_in_round(cursor + r)) {
            const auto c = static_cast<std::size_t>(job.color);
            Job local = job;
            local.color = local_of_color_[c];
            staged[static_cast<std::size_t>(shard_of_color_[c])]
                .jobs.push_back(local);
          }
          for (auto& chunk : staged) {
            chunk.begin.push_back(
                static_cast<std::uint32_t>(chunk.jobs.size()));
          }
        }
        cursor += rounds;
        for (std::size_t s = 0; s < queues_.size(); ++s) {
          if (!push(s, std::move(staged[s]))) return;
        }
      }
    } catch (...) {
      error = std::current_exception();
    }
    {
      const std::scoped_lock lock(mu_);
      error_ = error;
      done_ = true;
    }
    ready_.notify_all();
  }

  /// Queues `chunk` for shard `s`, first waiting (with backpressure on)
  /// while that queue is full, then wakes the waiting streams.  Returns
  /// false once the fabric is closed.
  bool push(std::size_t s, Chunk&& chunk) {
    {
      std::unique_lock lock(mu_);
      space_.wait(lock, [&] {
        return closed_ || !backpressure_ || queues_[s].size() < max_buffered_;
      });
      if (closed_) return false;
      queues_[s].push_back(std::move(chunk));
      ++chunks_produced_;
      peaks_[s] = std::max(peaks_[s],
                           static_cast<std::int64_t>(queues_[s].size()));
    }
    ready_.notify_all();
    return true;
  }

  ArrivalSource* source_;
  std::vector<int> shard_of_color_;
  std::vector<ColorId> local_of_color_;  // global color -> id in its shard
  Round arrival_end_;
  Round chunk_rounds_;
  std::size_t max_buffered_;
  bool backpressure_;

  mutable std::mutex mu_;
  std::condition_variable space_;  ///< a queue shrank, or closed
  std::condition_variable ready_;  ///< a chunk was queued, or done/closed
  std::vector<std::deque<Chunk>> queues_;
  std::vector<std::int64_t> peaks_;
  std::int64_t chunks_produced_ = 0;
  bool closed_ = false;
  bool done_ = false;  ///< the producer returned (error_ says how)
  std::exception_ptr error_;
  std::thread demux_;
};

/// The shard-s view: serves rounds out of its current chunk, taking the
/// next one from its queue when the chunk runs out.
class ShardedSource::Stream final : public ArrivalSource {
 public:
  Stream(Fabric& fabric, const ArrivalSource& parent, const ShardPlan& plan,
         int shard, Round arrival_end)
      : fabric_(&fabric),
        shard_(shard),
        arrival_end_(arrival_end),
        delta_(parent.delta()) {
    const auto& colors = plan.shard_colors[static_cast<std::size_t>(shard)];
    delay_bounds_.reserve(colors.size());
    drop_costs_.reserve(colors.size());
    lengths_.reserve(colors.size());
    for (const ColorId c : colors) {
      delay_bounds_.push_back(parent.delay_bound(c));
      drop_costs_.push_back(parent.drop_cost(c));
      lengths_.push_back(parent.length(c));
    }
    // Local color i is global colors[i]: the restricted model re-indexes
    // the parent's drop/length/Delta entries to the shard's id space, so
    // every shard charges exactly what the serial run would.
    model_ = parent.cost_model().restricted(colors);
  }

  [[nodiscard]] Cost delta() const override { return delta_; }
  [[nodiscard]] ColorId num_colors() const override {
    return static_cast<ColorId>(delay_bounds_.size());
  }
  [[nodiscard]] Round delay_bound(ColorId color) const override {
    return delay_bounds_[checked(color)];
  }
  [[nodiscard]] Cost drop_cost(ColorId color) const override {
    return drop_costs_[checked(color)];
  }
  [[nodiscard]] Round length(ColorId color) const override {
    return lengths_[checked(color)];
  }
  [[nodiscard]] const CostModel& cost_model() const override {
    return model_;
  }
  [[nodiscard]] Round horizon() const override { return arrival_end_; }

  [[nodiscard]] std::span<const Job> arrivals_in_round(Round k) override {
    RRS_REQUIRE(k == next_round_ ||
                    (k > next_round_ && k <= known_empty_until_),
                "shard streams are sequential: expected round "
                    << next_round_ << " (scanned to " << known_empty_until_
                    << "), got " << k);
    next_round_ = k + 1;
    if (k >= arrival_end_) return {};
    // Rounds below the scan frontier were consumed (and found empty) by
    // next_event_round(); their chunks may already be gone.
    if (k < known_empty_until_) return {};
    if (k >= chunk_.first_round + chunk_.rounds || chunk_.rounds == 0) {
      chunk_ = fabric_->take_chunk(shard_, k);
    }
    const auto r = static_cast<std::size_t>(k - chunk_.first_round);
    return std::span<const Job>(chunk_.jobs)
        .subspan(chunk_.begin[r], chunk_.begin[r + 1] - chunk_.begin[r]);
  }

  /// Walks the chunk stream forward looking for the first round in
  /// [k, limit) with arrivals for this shard.  Scanned-and-empty rounds
  /// are remembered (known_empty_until_) so later pulls inside the span
  /// serve empty without touching the consumed chunks; the first nonempty
  /// round's chunk stays current, so its pull takes the normal path.
  [[nodiscard]] Round next_event_round(Round k, Round limit) override {
    RRS_REQUIRE(limit >= k && k >= next_round_,
                "next_event_round(" << k << ", " << limit
                                    << ") behind cursor " << next_round_);
    if (k >= arrival_end_) return limit;
    Round j = std::max(k, known_empty_until_);
    const Round cap = std::min(limit, arrival_end_);
    while (j < cap) {
      if (chunk_.rounds == 0 || j >= chunk_.first_round + chunk_.rounds) {
        chunk_ = fabric_->take_chunk(shard_, j);
      }
      const auto r = static_cast<std::size_t>(j - chunk_.first_round);
      if (chunk_.begin[r + 1] > chunk_.begin[r]) break;
      ++j;
    }
    known_empty_until_ = std::max(known_empty_until_, j);
    // Past arrival_end_ the stream is empty by construction, so a scan
    // that drained the served range clears the caller's whole window.
    if (j >= arrival_end_) return limit;
    return std::min(j, limit);
  }

  [[nodiscard]] std::string summary() const override {
    std::ostringstream os;
    os << "shard " << shard_ << ": " << num_colors() << " colors, "
       << arrival_end_ << " rounds, Delta=" << delta_ << " (fabric stream)";
    return os.str();
  }

 private:
  [[nodiscard]] std::size_t checked(ColorId color) const {
    RRS_REQUIRE(color >= 0 &&
                    static_cast<std::size_t>(color) < delay_bounds_.size(),
                "local color " << color << " out of range [0, "
                               << delay_bounds_.size() << ")");
    return static_cast<std::size_t>(color);
  }

  Fabric* fabric_;
  int shard_;
  Round arrival_end_;
  Round next_round_ = 0;
  Round known_empty_until_ = 0;  ///< scan frontier: rounds below are empty
  Cost delta_;
  std::vector<Round> delay_bounds_;
  std::vector<Cost> drop_costs_;
  std::vector<Round> lengths_;
  CostModel model_;  // parent model restricted to this shard's colors
  Chunk chunk_;
};

ShardedSource::ShardedSource(ArrivalSource& source, const ShardPlan& plan,
                             Round arrival_end, ShardedSourceOptions options) {
  RRS_REQUIRE(arrival_end >= 0 && arrival_end != kInfiniteHorizon,
              "a sharded split needs a finite arrival_end, got "
                  << arrival_end);
  RRS_REQUIRE(!source.finite() || arrival_end <= source.horizon(),
              "arrival_end " << arrival_end << " exceeds the source horizon "
                             << source.horizon());
  RRS_REQUIRE(plan.num_colors() == source.num_colors(),
              "plan covers " << plan.num_colors() << " colors but the source "
                             << "has " << source.num_colors());
  fabric_ = std::make_unique<Fabric>(source, plan, arrival_end, options);
  // Streams snapshot the parent's metadata (delay bounds, cost model);
  // only after that does the demux thread start pulling the parent.
  streams_.reserve(static_cast<std::size_t>(plan.num_shards));
  for (int s = 0; s < plan.num_shards; ++s) {
    streams_.push_back(
        std::make_unique<Stream>(*fabric_, source, plan, s, arrival_end));
  }
  fabric_->start();
}

ShardedSource::~ShardedSource() = default;

int ShardedSource::num_shards() const {
  return static_cast<int>(streams_.size());
}

ArrivalSource& ShardedSource::stream(int shard) {
  RRS_REQUIRE(shard >= 0 && shard < num_shards(),
              "shard " << shard << " out of range [0, " << num_shards()
                       << ")");
  return *streams_[static_cast<std::size_t>(shard)];
}

std::int64_t ShardedSource::peak_buffered_chunks(int shard) const {
  RRS_REQUIRE(shard >= 0 && shard < num_shards(),
              "shard " << shard << " out of range [0, " << num_shards()
                       << ")");
  return fabric_->peak_buffered(static_cast<std::size_t>(shard));
}

std::int64_t ShardedSource::chunks_produced() const {
  return fabric_->chunks_produced();
}

void ShardedSource::close() { fabric_->close(); }

}  // namespace rrs
