#include "core/replay.h"

#include <numeric>
#include <utility>

namespace rrs {
namespace {

/// The malformed events of `s`, at most 8: the range checks every
/// consumer of a recorded schedule relies on, made once.
std::vector<std::string> malformed_events(const Instance& inst,
                                          const Schedule& s) {
  ErrorList errors;
  if (s.num_resources < 0) errors.add("negative num_resources");
  if (s.speed < 1) errors.add("speed must be >= 1");
  const auto slot = [&](const char* kind, std::size_t i, Round round,
                        std::int32_t mini, std::int32_t resource) {
    if (round < 0 || round >= inst.horizon())
      errors.add(kind, i, ": round ", round, " outside [0, ", inst.horizon(),
                 ")");
    if (mini < 0 || mini >= s.speed)
      errors.add(kind, i, ": mini ", mini, " outside [0, ", s.speed, ")");
    if (resource < 0 || resource >= s.num_resources)
      errors.add(kind, i, ": resource ", resource, " outside [0, ",
                 s.num_resources, ")");
  };
  const auto unordered = [](const auto& a, const auto& b) {
    return a.round > b.round || (a.round == b.round && a.mini > b.mini);
  };
  for (std::size_t i = 0; i < s.reconfigs.size() && !errors.full(); ++i) {
    const ReconfigEvent& e = s.reconfigs[i];
    slot("reconfig ", i, e.round, e.mini, e.resource);
    if (e.color < kBlack || e.color >= inst.num_colors())
      errors.add("reconfig ", i, ": unknown color ", e.color);
    if (i > 0 && unordered(s.reconfigs[i - 1], e))
      errors.add("reconfig ", i, ": events not in (round, mini) order");
  }
  for (std::size_t i = 0; i < s.execs.size() && !errors.full(); ++i) {
    const ExecEvent& e = s.execs[i];
    slot("exec ", i, e.round, e.mini, e.resource);
    if (e.job < 0 || e.job >= static_cast<JobId>(inst.jobs().size()))
      errors.add("exec ", i, ": unknown job ", e.job);
    if (i > 0 && unordered(s.execs[i - 1], e))
      errors.add("exec ", i, ": events not in (round, mini) order");
  }
  for (std::size_t i = 0; i < s.churn.size() && !errors.full(); ++i) {
    slot("churn ", i, s.churn[i].round, 0, s.churn[i].resource);
    if (i > 0 && s.churn[i - 1].round > s.churn[i].round)
      errors.add("churn ", i, ": events not in round order");
  }
  return std::move(errors.items);
}

std::string joined(const std::vector<std::string>& errors) {
  std::string out = "malformed schedule:";
  for (const std::string& e : errors) out += "\n  " + e;
  return out;
}

}  // namespace

MalformedSchedule::MalformedSchedule(std::vector<std::string> errors)
    : InputError(joined(errors)), errors_(std::move(errors)) {}

void replay(const Instance& instance, const Schedule& schedule,
            RunSink& sink) {
  std::vector<std::string> errors = malformed_events(instance, schedule);
  if (!errors.empty()) throw MalformedSchedule(std::move(errors));

  const CostModel& model = instance.cost_model();
  const std::vector<Job>& jobs = instance.jobs();
  const auto n = static_cast<std::size_t>(schedule.num_resources);
  std::vector<ColorId> physical(n, kBlack);
  std::vector<ColorId> lost(n, kBlack);  // destroyed by the last failure
  std::vector<Round> units(jobs.size(), 0);
  // Job ids bucketed by deadline (a counting sort; every deadline is at
  // most the horizon): round k's drop phase looks at
  // due[due_from[k], due_from[k + 1]).
  std::vector<std::size_t> due_from(
      static_cast<std::size_t>(instance.horizon()) + 2, 0);
  for (const Job& job : jobs) {
    ++due_from[static_cast<std::size_t>(job.deadline()) + 1];
  }
  std::partial_sum(due_from.begin(), due_from.end(), due_from.begin());
  std::vector<std::size_t> due(jobs.size());
  std::vector<std::size_t> fill(due_from.begin(), due_from.end() - 1);
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    due[fill[static_cast<std::size_t>(jobs[j].deadline())]++] = j;
  }

  const std::vector<ReconfigEvent>& reconfigs = schedule.reconfigs;
  const std::vector<ExecEvent>& execs = schedule.execs;
  const std::vector<ChurnEvent>& churn = schedule.churn;
  std::size_t ci = 0, ai = 0, ri = 0, ei = 0;
  for (Round k = 0;; ++k) {
    for (; ci < churn.size() && churn[ci].round == k; ++ci) {
      const ChurnEvent& e = churn[ci];
      const auto at = static_cast<std::size_t>(e.resource);
      if (e.fail) lost[at] = std::exchange(physical[at], kBlack);
      const bool charged = !e.fail && e.charged;
      sink.on_churn({k, e.resource, e.fail, lost[at], charged,
                     !charged            ? 0
                     : lost[at] == kBlack ? model.delta()
                                          : model.cold_cost(lost[at])});
    }
    const auto now = static_cast<std::size_t>(k);
    for (std::size_t i = due_from[now]; i < due_from[now + 1]; ++i) {
      const Job& job = jobs[due[i]];
      if (units[due[i]] < job.length) {
        sink.on_drop({k, job.color, 1, job.drop_cost});
      }
    }
    if (k >= instance.horizon()) return;

    const std::size_t first = ai;
    while (ai < jobs.size() && jobs[ai].arrival == k) ++ai;
    if (ai > first) {
      sink.on_arrivals({k, std::span(jobs).subspan(first, ai - first)});
    }
    for (std::int32_t mini = 0; mini < schedule.speed; ++mini) {
      for (; ri < reconfigs.size() && reconfigs[ri].round == k &&
             reconfigs[ri].mini == mini;
           ++ri) {
        const ReconfigEvent& e = reconfigs[ri];
        ColorId& at = physical[static_cast<std::size_t>(e.resource)];
        sink.on_reconfig({k, mini, e.resource, at, e.color,
                          model.reconfig_cost(at, e.color)});
        at = e.color;
      }
      for (; ei < execs.size() && execs[ei].round == k &&
             execs[ei].mini == mini;
           ++ei) {
        const ExecEvent& e = execs[ei];
        const Job& job = jobs[static_cast<std::size_t>(e.job)];
        const Round done = ++units[static_cast<std::size_t>(e.job)];
        sink.on_exec({k, mini, e.resource, job.id, job.color,
                      physical[static_cast<std::size_t>(e.resource)],
                      job.arrival, job.deadline(), job.length, job.drop_cost,
                      job.length - done});
      }
    }
    sink.on_round_end({k, nullptr, 0});
  }
}

}  // namespace rrs
