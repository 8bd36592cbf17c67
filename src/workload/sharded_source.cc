#include "workload/sharded_source.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "obs/trace_ring.h"
#include "util/check.h"
#include "util/spsc_ring.h"

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
/// source sequentially and fans them out into per-shard SPSC rings.
class ShardedSource::Fabric {
 public:
  Fabric(ArrivalSource& source, const ShardPlan& plan, Round arrival_end,
         const ShardedSourceOptions& options)
      : source_(&source),
        shard_of_color_(plan.shard_of_color),
        local_of_color_(plan.shard_of_color.size()),
        arrival_end_(arrival_end),
        chunk_rounds_(options.chunk_rounds),
        backpressure_(options.backpressure),
        stall_limit_(options.stall_chunk_limit),
        stall_trace_(options.stall_trace),
        peaks_(static_cast<std::size_t>(plan.num_shards)) {
    RRS_REQUIRE(chunk_rounds_ >= 1,
                "chunk_rounds must be >= 1, got " << chunk_rounds_);
    RRS_REQUIRE(options.max_buffered_chunks >= 1,
                "max_buffered_chunks must be >= 1");
    for (const auto& colors : plan.shard_colors) {
      for (std::size_t i = 0; i < colors.size(); ++i) {
        local_of_color_[static_cast<std::size_t>(colors[i])] =
            static_cast<ColorId>(i);
      }
    }
    total_chunks_ = static_cast<std::size_t>(
        (arrival_end_ + chunk_rounds_ - 1) / chunk_rounds_);
    // Without backpressure the consumers run serially (one may drain its
    // whole range before another starts), so the ring must hold the whole
    // spread — exactly what the old deque-based splitter buffered.
    const std::size_t capacity = backpressure_
                                     ? options.max_buffered_chunks
                                     : std::max<std::size_t>(total_chunks_, 1);
    rings_.reserve(static_cast<std::size_t>(plan.num_shards));
    for (int s = 0; s < plan.num_shards; ++s) {
      rings_.push_back(std::make_unique<SpscRing<Chunk>>(capacity));
    }
    for (auto& peak : peaks_) peak.store(0, std::memory_order_relaxed);
  }

  /// Starts the demux thread.  Separate from the constructor so the
  /// shard streams can snapshot the parent's metadata (including its lazy
  /// cost-model cache) before another thread starts pulling it.
  void start() { demux_ = std::thread([this] { produce_all(); }); }

  ~Fabric() {
    stop_.store(true, std::memory_order_release);
    if (demux_.joinable()) demux_.join();
  }

  /// Queue-depth gauge; see ShardedSource::peak_buffered_chunks.
  [[nodiscard]] std::int64_t peak_buffered(std::size_t shard) const {
    return peaks_[shard].load(std::memory_order_relaxed);
  }

  [[nodiscard]] std::int64_t chunks_produced() const {
    return chunks_produced_.load(std::memory_order_relaxed);
  }

  /// Hands shard `shard` its next chunk, which must start at `first`.
  /// Blocks (lock-free spin with short sleeps) until the demux thread has
  /// pushed it; rethrows the producer's exception if the fabric failed.
  Chunk take_chunk(int shard, Round first) {
    SpscRing<Chunk>& ring = *rings_[static_cast<std::size_t>(shard)];
    Chunk chunk;
    std::chrono::microseconds nap(50);
    constexpr std::chrono::microseconds kMaxNap(500);
    for (;;) {
      if (ring.try_pop(chunk)) {
        RRS_CHECK(chunk.first_round == first);
        return chunk;
      }
      if (failed_.load(std::memory_order_acquire)) {
        std::rethrow_exception(error_);
      }
      if (done_.load(std::memory_order_acquire) && ring.size() == 0) {
        // The producer pushed every chunk in [0, arrival_end); an empty
        // ring here means this consumer pulled past the horizon.
        RRS_CHECK_MSG(false, "shard " << shard << " pulled round " << first
                                      << " past the produced range [0, "
                                      << arrival_end_ << ")");
      }
      std::this_thread::yield();
      std::this_thread::sleep_for(nap);
      nap = std::min(nap * 2, kMaxNap);
    }
  }

 private:
  /// Demux thread body: pull chunk_rounds_ rounds at a time from the
  /// underlying source, stage one chunk per shard, push each into its
  /// ring.  Any exception (including the stall watchdog's) is parked in
  /// error_ for the consumers to rethrow.
  void produce_all() {
    try {
      for (Round cursor = 0; cursor < arrival_end_;) {
        if (stop_.load(std::memory_order_acquire)) return;
        const Round rounds = std::min(chunk_rounds_, arrival_end_ - cursor);
        std::vector<Chunk> staged(rings_.size());
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
        for (std::size_t s = 0; s < rings_.size(); ++s) {
          if (!push_blocking(s, std::move(staged[s]))) return;
          chunks_produced_.fetch_add(1, std::memory_order_relaxed);
          const auto occ = static_cast<std::int64_t>(
              rings_[s]->produced() - rings_[s]->consumed());
          std::int64_t peak = peaks_[s].load(std::memory_order_relaxed);
          while (occ > peak && !peaks_[s].compare_exchange_weak(
                                   peak, occ, std::memory_order_relaxed)) {
          }
        }
      }
    } catch (...) {
      error_ = std::current_exception();
      failed_.store(true, std::memory_order_release);
      return;
    }
    done_.store(true, std::memory_order_release);
  }

  /// Pushes into ring `s`, blocking with capped exponential backoff while
  /// it is full.  Counts consecutive waits during which the ring's
  /// consumer popped nothing; at stall_limit_ such waits the consumer is
  /// declared dead and the watchdog throws.  Returns false on shutdown.
  bool push_blocking(std::size_t s, Chunk&& chunk) {
    SpscRing<Chunk>& ring = *rings_[s];
    if (ring.try_push(std::move(chunk))) return true;
    std::chrono::microseconds backoff(100);
    constexpr std::chrono::microseconds kMaxBackoff(2'000);
    std::size_t fruitless = 0;
    for (;;) {
      const std::uint64_t consumed_before = ring.consumed();
      std::this_thread::sleep_for(backoff);
      backoff = std::min(backoff * 2, kMaxBackoff);
      if (stop_.load(std::memory_order_acquire)) return false;
      if (ring.try_push(std::move(chunk))) return true;
      if (ring.consumed() != consumed_before) {
        fruitless = 0;  // the consumer is alive, merely slower than us
      } else if (stall_limit_ != 0 && ++fruitless >= stall_limit_) {
        if (stall_trace_ != nullptr) {
          stall_trace_->push({chunk.first_round, TraceKind::kFabricStall,
                              static_cast<int>(s),
                              static_cast<std::int64_t>(ring.size())});
        }
        std::ostringstream os;
        os << "sharded-source stall watchdog: shard " << s
           << " has not consumed across " << fruitless
           << " producer waits (stall_chunk_limit " << stall_limit_
           << "); its consumer looks stalled or dead.  Rings "
              "(occupancy/capacity, produced/consumed):";
        for (std::size_t q = 0; q < rings_.size(); ++q) {
          os << " [" << q << "]=" << rings_[q]->size() << "/"
             << rings_[q]->capacity() << ", " << rings_[q]->produced() << "/"
             << rings_[q]->consumed();
        }
        os << "; produced " << chunks_produced() << "/"
           << total_chunks_ * rings_.size() << " chunks";
        throw InvariantError(os.str());
      }
    }
  }

  ArrivalSource* source_;
  std::vector<int> shard_of_color_;
  std::vector<ColorId> local_of_color_;  // global color -> id in its shard
  Round arrival_end_;
  Round chunk_rounds_;
  bool backpressure_;
  std::size_t stall_limit_;
  TraceRing* stall_trace_;
  std::size_t total_chunks_ = 0;

  std::vector<std::unique_ptr<SpscRing<Chunk>>> rings_;
  std::vector<std::atomic<std::int64_t>> peaks_;
  std::atomic<std::int64_t> chunks_produced_{0};
  std::atomic<bool> stop_{false};
  std::atomic<bool> done_{false};
  std::atomic<bool> failed_{false};
  std::exception_ptr error_;
  std::thread demux_;
};

/// The shard-s view: serves rounds out of its current chunk, refilling
/// from its ring when the chunk runs out.
class ShardedSource::Stream final : public ArrivalSource {
 public:
  Stream(std::shared_ptr<Fabric> fabric, const ArrivalSource& parent,
         const ShardPlan& plan, int shard, Round arrival_end)
      : fabric_(std::move(fabric)),
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

  std::shared_ptr<Fabric> fabric_;
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
  fabric_ = std::make_shared<Fabric>(source, plan, arrival_end, options);
  // Streams snapshot the parent's metadata (delay bounds, cost model);
  // only after that does the demux thread start pulling the parent.
  streams_.reserve(static_cast<std::size_t>(plan.num_shards));
  for (int s = 0; s < plan.num_shards; ++s) {
    streams_.push_back(
        std::make_unique<Stream>(fabric_, source, plan, s, arrival_end));
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

}  // namespace rrs
