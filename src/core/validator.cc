#include "core/validator.h"

#include <algorithm>
#include <utility>

#include "core/replay.h"

namespace rrs {
namespace {

/// The legality checks over a replayed run, on top of its cost.
class Checker final : public CostTally {
 public:
  Checker(int num_resources, int max_errors)
      : down_(static_cast<std::size_t>(std::max(num_resources, 0)), 0),
        last_exec_(down_.size(), {-1, -1}) {
    errors.max = max_errors;
  }

  ErrorList errors;

  void on_churn(const Churn& e) override {
    CostTally::on_churn(e);
    char& down = down_[static_cast<std::size_t>(e.location)];
    if (down == static_cast<char>(e.fail)) {
      errors.add(e.fail ? "failure of failed" : "repair of working",
                 " resource ", e.location, " at round ", e.round);
    }
    down = static_cast<char>(e.fail);
  }

  void on_reconfig(const Reconfiguration& e) override {
    CostTally::on_reconfig(e);
    if (down_[static_cast<std::size_t>(e.location)] != 0) {
      errors.add("reconfig of failed resource ", e.location, " at round ",
                 e.round);
    }
  }

  void on_exec(const ExecUnit& e) override {
    const auto at = static_cast<std::size_t>(e.location);
    const auto fail = [&](const auto&... what) {
      errors.add("exec of job ", e.job, " at round ", e.round, what...);
    };
    if (e.left < 0) {
      fail(e.length == 1 ? ": job already executed"
                         : ": job already completed");
    }
    if (e.round < e.arrival) fail(": before arrival ", e.arrival);
    if (e.round >= e.deadline) fail(": at/after deadline ", e.deadline);
    if (down_[at] != 0) {
      fail(": resource ", e.location, " is failed");
    } else if (e.configured != e.color) {
      fail(" mini ", e.mini, ": resource ", e.location, " configured to ",
           e.configured, ", job color is ", e.color);
    }
    auto& last = last_exec_[at];
    if (last.first == e.round && last.second == e.mini) {
      errors.add("resource ", e.location, " executes twice in round ",
                 e.round, " mini ", e.mini);
    }
    last = {e.round, e.mini};
  }

 private:
  std::vector<char> down_;  // resource -> failed?
  /// resource -> last (round, mini) with an execution.
  std::vector<std::pair<Round, std::int32_t>> last_exec_;
};

}  // namespace

ValidationResult validate(const Instance& instance, const Schedule& schedule,
                          int max_errors) {
  ValidationResult result;
  try {
    Checker checker(schedule.num_resources, max_errors);
    replay(instance, schedule, checker);
    result.ok = checker.errors.found == 0;
    result.errors = std::move(checker.errors.items);
    if (result.ok) result.cost = checker.cost;
  } catch (const MalformedSchedule& e) {
    result.errors = e.errors();
    result.errors.resize(
        std::min(result.errors.size(),
                 static_cast<std::size_t>(std::max(max_errors, 0))));
  }
  return result;
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
