// E8 — Section 1: the thrashing-vs-underutilization dilemma, measured.
//
// The introduction motivates dLRU-EDF with a scenario of background jobs
// (deadlines far ahead) competing with intermittent short-term bursts.
// The two single-principle schemes fail in opposite directions:
// * dLRU (pure recency) refuses to touch the stale background color and
//   drops its backlog wholesale — underutilization, a drop-heavy bill;
// * EDF (pure deadlines) pulls the background color in whenever a burst
//   slot frees up and pushes it back out on the next burst — thrashing, a
//   reconfiguration-heavy bill.
// dLRU-EDF pays a bounded multiple of the offline bracket.  (On THIS
// stochastic scenario EDF's thrashing happens to be partially worth its
// price; the inputs where each single principle is catastrophically wrong
// are the adversarial ones — see E1 and E2.  What this experiment pins
// down is the failure-mode signature of each scheme.)
#include <iostream>

#include "bench_common.h"
#include "offline/greedy_offline.h"
#include "offline/lower_bound.h"
#include "sim/runner.h"
#include "workload/intro_scenario.h"

int main() {
  using namespace rrs;
  bench::banner("E8 (Section 1)",
                "background vs short-term: thrashing, underutilization, and "
                "the combination");

  IntroScenarioParams params;
  params.seed = 3;
  params.delta = 16;
  params.num_short_colors = 4;
  params.short_delay = 16;
  params.background_delay = 4096;
  params.background_jobs = 4096;
  params.burst_probability = 0.5;
  params.burst_jobs = 8;
  params.horizon = 4096;
  const IntroScenarioInstance scenario = make_intro_scenario(params);
  const Instance& inst = scenario.instance;
  const int n = 8;
  const int m = 1;
  const Cost lb = offline_lower_bound(inst, m).best();
  const Cost ub = best_offline_heuristic_cost(inst, m);
  std::cout << "workload: " << inst.summary() << "\n"
            << "offline bracket (m=1): LB=" << lb << "  greedy UB=" << ub
            << "\n\n";

  TextTable table({"algorithm", "reconfig", "drops", "total", "vs UB(m)",
                   "failure mode"});
  CsvWriter csv({"algorithm", "reconfig", "drops", "total", "ratio_ub"});
  Cost edf_reconfig = 0, edf_drops = 0;
  Cost dlru_reconfig = 0, dlru_drops = 0;
  double combo_ratio = 0.0;
  for (const std::string name : {"edf", "dlru", "dlru-edf"}) {
    const StreamRunRecord r = run_algorithm(inst, name, n);
    const double ratio = static_cast<double>(r.cost.total()) /
                         static_cast<double>(ub);
    std::string mode = "balanced (bounded ratio)";
    if (name == "edf") {
      edf_reconfig = r.cost.reconfig_cost;
      edf_drops = r.cost.drops;
      mode = "thrashing (reconfig-heavy)";
    } else if (name == "dlru") {
      dlru_reconfig = r.cost.reconfig_cost;
      dlru_drops = r.cost.drops;
      mode = "underutilization (drop-heavy)";
    } else {
      combo_ratio = ratio;
    }
    table.add_row({r.algorithm, std::to_string(r.cost.reconfig_cost),
                   std::to_string(r.cost.drops),
                   std::to_string(r.cost.total()), fmt_ratio(ratio), mode});
    csv.add_row({r.algorithm, std::to_string(r.cost.reconfig_cost),
                 std::to_string(r.cost.drops),
                 std::to_string(r.cost.total()), fmt_double(ratio)});
  }
  table.print(std::cout);
  bench::maybe_write_csv(csv, "e8_dilemma");

  std::cout << "\npaper (Section 1): eager idle-filling thrashes, waiting "
               "underutilizes; only combining recency and deadlines is "
               "safe on all inputs (E1/E2 show the catastrophic cases).\n";
  bool ok = true;
  ok &= bench::verdict(dlru_drops > 5 * edf_drops,
                       "dLRU's failure mode is drops (underutilization)");
  ok &= bench::verdict(edf_reconfig > 5 * dlru_reconfig,
                       "EDF's failure mode is reconfigurations (thrashing)");
  ok &= bench::verdict(combo_ratio < 6.0,
                       "dLRU-EDF stays within a small constant of the "
                       "offline bracket");
  return ok ? 0 : 1;
}
