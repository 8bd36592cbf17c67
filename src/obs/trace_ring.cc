#include "obs/trace_ring.h"

#include <ostream>

#include "util/check.h"

namespace rrs {

const char* trace_kind_name(TraceKind kind) {
  switch (kind) {
    case TraceKind::kDropBurst:
      return "drop-burst";
    case TraceKind::kReconfig:
      return "reconfig";
    case TraceKind::kChurnFail:
      return "churn-fail";
    case TraceKind::kChurnRepair:
      return "churn-repair";
    case TraceKind::kSnapshot:
      return "snapshot";
  }
  return "unknown";
}

TraceRing::TraceRing(std::size_t capacity) : ring_(capacity) {
  RRS_REQUIRE(capacity >= 1, "TraceRing: capacity must be >= 1");
}

void TraceRing::clear() {
  next_ = 0;
  size_ = 0;
  total_pushed_ = 0;
}

std::vector<TraceEvent> TraceRing::events() const {
  std::vector<TraceEvent> out;
  out.reserve(size_);
  const std::size_t start = (next_ + ring_.size() - size_) % ring_.size();
  for (std::size_t i = 0; i < size_; ++i) {
    out.push_back(ring_[(start + i) % ring_.size()]);
  }
  return out;
}

void TraceRing::dump(std::ostream& os) const {
  os << "# trace ring: " << size_ << " of " << total_pushed_
     << " events retained\n";
  for (const TraceEvent& e : events()) {
    os << "round " << e.round << " " << trace_kind_name(e.kind) << " detail="
       << e.detail << " value=" << e.value << "\n";
  }
}

}  // namespace rrs
