#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "core/types.h"

namespace rrs {

/// Categories of engine events worth keeping in the flight recorder.
enum class TraceKind : std::uint8_t {
  kDropBurst,      // detail = #colors affected, value = jobs dropped
  kReconfig,       // detail = mini-round, value = reconfig events committed
  kChurnFail,      // detail = resource id, value = color lost (or kBlack)
  kChurnRepair,    // detail = resource id, value = 0
  kSnapshot,       // detail = 0, value = pending-job gauge
};

[[nodiscard]] const char* trace_kind_name(TraceKind kind);

/// One recent-event record.  Deliberately small and POD-like: pushing is a
/// couple of stores, so tracing stays cheap enough to leave on.
struct TraceEvent {
  Round round = 0;
  TraceKind kind = TraceKind::kDropBurst;
  std::int32_t detail = 0;
  std::int64_t value = 0;

  friend bool operator==(const TraceEvent&, const TraceEvent&) = default;
};

/// Bounded ring buffer of recent engine events.  O(1) push, fixed capacity
/// allocated up front; old events are overwritten silently (total_pushed()
/// tells how many were ever recorded).  Dumpable on InvariantError or on
/// demand.
class TraceRing {
 public:
  explicit TraceRing(std::size_t capacity = 256);

  void push(const TraceEvent& event) {
    ring_[next_] = event;
    next_ = (next_ + 1) % ring_.size();
    if (size_ < ring_.size()) ++size_;
    ++total_pushed_;
  }

  void clear();

  /// The newest retained event, or nullptr when empty: the observer folds
  /// one phase's drops or reconfigurations into a single entry through it.
  [[nodiscard]] TraceEvent* newest() {
    return size_ == 0 ? nullptr
                      : &ring_[(next_ + ring_.size() - 1) % ring_.size()];
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t capacity() const { return ring_.size(); }
  [[nodiscard]] std::int64_t total_pushed() const { return total_pushed_; }

  /// Events oldest -> newest (at most capacity() of them).
  [[nodiscard]] std::vector<TraceEvent> events() const;

  /// Human-readable dump, one event per line, oldest first.
  void dump(std::ostream& os) const;

 private:
  std::vector<TraceEvent> ring_;
  std::size_t next_ = 0;
  std::size_t size_ = 0;
  std::int64_t total_pushed_ = 0;
};

}  // namespace rrs
