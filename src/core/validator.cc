#include "core/validator.h"

#include <algorithm>
#include <sstream>
#include <unordered_set>

#include "util/check.h"

namespace rrs {
namespace {

/// True iff (r1, m1) <= (r2, m2) in mini-round order.
bool at_or_before(Round r1, std::int32_t m1, Round r2, std::int32_t m2) {
  return r1 < r2 || (r1 == r2 && m1 <= m2);
}

/// Totally orders events of one kind by (round, mini).
template <typename Event>
bool event_ordered(const Event& a, const Event& b) {
  return at_or_before(a.round, a.mini, b.round, b.mini);
}

class Validator {
 public:
  Validator(const Instance& instance, const Schedule& schedule,
            int max_errors)
      : inst_(instance), sched_(schedule), max_errors_(max_errors) {}

  ValidationResult run() {
    check_shape();
    // The replay indexes per-resource and per-job tables by the events'
    // fields, so it runs only once every event is in range.
    if (!fatal_ && result_.errors.empty()) replay();
    result_.ok = result_.errors.empty();
    if (result_.ok) {
      result_.cost = sched_.cost(inst_);
    }
    return std::move(result_);
  }

 private:
  template <typename... Args>
  void error(Args&&... args) {
    if (static_cast<int>(result_.errors.size()) >= max_errors_) {
      fatal_ = true;
      return;
    }
    std::ostringstream os;
    (os << ... << args);
    result_.errors.push_back(os.str());
  }

  void check_shape() {
    if (sched_.num_resources < 0) error("negative num_resources");
    if (sched_.speed < 1) error("speed must be >= 1");
    for (std::size_t i = 0; i < sched_.reconfigs.size(); ++i) {
      const auto& e = sched_.reconfigs[i];
      if (e.round < 0 || e.round >= inst_.horizon())
        error("reconfig ", i, ": round ", e.round, " outside [0, ",
              inst_.horizon(), ")");
      if (e.mini < 0 || e.mini >= sched_.speed)
        error("reconfig ", i, ": mini ", e.mini, " outside [0, ",
              sched_.speed, ")");
      if (e.resource < 0 || e.resource >= sched_.num_resources)
        error("reconfig ", i, ": resource ", e.resource, " outside [0, ",
              sched_.num_resources, ")");
      if (e.color != kBlack && (e.color < 0 || e.color >= inst_.num_colors()))
        error("reconfig ", i, ": unknown color ", e.color);
      if (i > 0 && !event_ordered(sched_.reconfigs[i - 1], e))
        error("reconfig ", i, ": events not in (round, mini) order");
      if (fatal_) return;
    }
    for (std::size_t i = 0; i < sched_.execs.size(); ++i) {
      const auto& e = sched_.execs[i];
      if (e.round < 0 || e.round >= inst_.horizon())
        error("exec ", i, ": round ", e.round, " outside horizon");
      if (e.mini < 0 || e.mini >= sched_.speed)
        error("exec ", i, ": mini ", e.mini, " outside [0, ", sched_.speed,
              ")");
      if (e.resource < 0 || e.resource >= sched_.num_resources)
        error("exec ", i, ": resource ", e.resource, " out of range");
      if (e.job < 0 ||
          e.job >= static_cast<JobId>(inst_.jobs().size()))
        error("exec ", i, ": unknown job ", e.job);
      if (i > 0 && !event_ordered(sched_.execs[i - 1], e))
        error("exec ", i, ": events not in (round, mini) order");
      if (fatal_) return;
    }
  }

  void replay() {
    std::vector<ColorId> config(
        static_cast<std::size_t>(sched_.num_resources), kBlack);
    // Units applied per job: a job may legally receive up to length(color)
    // exec events (exactly one under the paper's unit lengths).
    std::vector<Round> units(inst_.jobs().size(), 0);
    // (resource) -> last (round, mini) with an execution, to detect double
    // booking of a slot.
    std::vector<std::pair<Round, std::int32_t>> last_exec(
        static_cast<std::size_t>(sched_.num_resources), {-1, -1});

    std::size_t ri = 0;  // reconfig cursor
    for (std::size_t ei = 0; ei < sched_.execs.size() && !fatal_; ++ei) {
      const auto& e = sched_.execs[ei];
      // Apply every reconfiguration at or before this execution's
      // mini-round (within a mini-round, reconfiguration precedes
      // execution).
      while (ri < sched_.reconfigs.size() &&
             at_or_before(sched_.reconfigs[ri].round,
                          sched_.reconfigs[ri].mini, e.round, e.mini)) {
        const auto& r = sched_.reconfigs[ri];
        config[static_cast<std::size_t>(r.resource)] = r.color;
        ++ri;
      }

      const Job& job = inst_.jobs()[static_cast<std::size_t>(e.job)];
      if (units[static_cast<std::size_t>(e.job)] >= job.length) {
        error("exec of job ", e.job, " at round ", e.round,
              job.length == 1 ? ": job already executed"
                              : ": job already completed");
      }
      ++units[static_cast<std::size_t>(e.job)];
      if (e.round < job.arrival) {
        error("exec of job ", e.job, " at round ", e.round,
              ": before arrival ", job.arrival);
      }
      if (e.round >= job.deadline()) {
        error("exec of job ", e.job, " at round ", e.round,
              ": at/after deadline ", job.deadline());
      }
      if (config[static_cast<std::size_t>(e.resource)] != job.color) {
        error("exec of job ", e.job, " at round ", e.round, " mini ", e.mini,
              ": resource ", e.resource, " configured to ",
              config[static_cast<std::size_t>(e.resource)], ", job color is ",
              job.color);
      }
      auto& last = last_exec[static_cast<std::size_t>(e.resource)];
      if (last.first == e.round && last.second == e.mini) {
        error("resource ", e.resource, " executes twice in round ", e.round,
              " mini ", e.mini);
      }
      last = {e.round, e.mini};
    }
  }

  const Instance& inst_;
  const Schedule& sched_;
  const int max_errors_;
  bool fatal_ = false;
  ValidationResult result_;
};

}  // namespace

ValidationResult validate(const Instance& instance, const Schedule& schedule,
                          int max_errors) {
  return Validator(instance, schedule, max_errors).run();
}

CostBreakdown validate_or_throw(const Instance& instance,
                                const Schedule& schedule) {
  ValidationResult r = validate(instance, schedule);
  if (!r.ok) {
    std::ostringstream os;
    os << "invalid schedule:";
    for (const auto& e : r.errors) os << "\n  " << e;
    throw InputError(os.str());
  }
  return r.cost;
}

}  // namespace rrs
