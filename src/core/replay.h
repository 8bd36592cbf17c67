// replay(): a recorded Schedule back into the run's event stream.
//
// The one post-hoc derivation of what a run did.  The replay range-checks
// every event once, and replays only a well-formed schedule, so no sink
// sees an index outside its instance.  It keeps its own state — each
// location's physical color and the color its last failure destroyed,
// each job's executed units — prices every reconfiguration and charged
// repair through the instance's CostModel, and re-emits the events in the
// engine's order (core/run_events.h), dropping each job not completed by
// its deadline there.  Schedule::cost, validate(), compute_metrics() and
// compute_timeline() are sinks over it.
#pragma once

#include <sstream>
#include <string>
#include <vector>

#include "core/instance.h"
#include "core/run_events.h"
#include "core/schedule.h"
#include "util/check.h"

namespace rrs {

/// At most `max` error messages; later ones are counted, not kept.
struct ErrorList {
  int max = 8;
  std::vector<std::string> items;
  int found = 0;  ///< every error added, kept or not

  [[nodiscard]] bool full() const {
    return static_cast<int>(items.size()) >= max;
  }
  template <typename... Args>
  void add(const Args&... args) {
    ++found;
    if (full()) return;
    std::ostringstream os;
    (os << ... << args);
    items.push_back(os.str());
  }
};

/// Thrown by replay() for a schedule with a malformed event: a round,
/// mini-round, resource, job or color outside the instance and schedule,
/// or events out of order.  errors() names at most 8 of them.
class MalformedSchedule : public InputError {
 public:
  explicit MalformedSchedule(std::vector<std::string> errors);
  [[nodiscard]] const std::vector<std::string>& errors() const {
    return errors_;
  }

 private:
  std::vector<std::string> errors_;
};

/// Re-emits the run `schedule` records for `instance` into `sink`: each
/// round of [0, horizon) in the engine's order, then the drops due at the
/// horizon.  Throws MalformedSchedule, before emitting anything, when an
/// event is malformed.  Legality beyond range is a sink's concern.
void replay(const Instance& instance, const Schedule& schedule,
            RunSink& sink);

}  // namespace rrs
