// Example: shared data center with shifting service mix.
//
// Models the paper's motivating application (Section 1): a shared data
// center hosting heterogeneous services whose workload composition changes
// over time, so processor allocations must follow demand.  Runs the full
// online pipeline (varbatch) against the straw-man schemes across a range
// of cluster sizes and prints a per-service QoS report (jobs served within
// their delay tolerance).
//
// Usage: datacenter [seed] [horizon]
#include <cstdlib>
#include <iostream>
#include <map>

#include "core/validator.h"
#include "offline/greedy_offline.h"
#include "offline/lower_bound.h"
#include "sim/metrics.h"
#include "sim/runner.h"
#include "sim/table.h"
#include "workload/datacenter.h"

int main(int argc, char** argv) {
  using namespace rrs;
  DatacenterParams params;
  params.seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 1;
  params.horizon = argc > 2 ? std::strtoll(argv[2], nullptr, 10) : 8192;
  params.delta = 32;
  const Instance inst = make_datacenter(params);
  std::cout << "datacenter workload: " << inst.summary() << "\n\n";

  // Sweep cluster sizes for the full pipeline.
  std::cout << "--- cluster-size sweep (varbatch pipeline) ---\n";
  TextTable sweep({"processors", "reconfig", "drops", "served %", "total"});
  for (const int n : {4, 8, 16, 32}) {
    const StreamRunRecord r = run_algorithm(inst, "varbatch", n);
    const double served =
        100.0 * static_cast<double>(r.executed) /
        static_cast<double>(inst.jobs().size());
    sweep.add_row({std::to_string(n), std::to_string(r.cost.reconfig_cost),
                   std::to_string(r.cost.drops), fmt_double(served, 1),
                   std::to_string(r.cost.total())});
  }
  sweep.print(std::cout);

  // Algorithm comparison at a fixed size, with per-service QoS breakdown.
  const int n = 16;
  std::cout << "\n--- algorithm comparison at " << n
            << " processors ---\n";
  TextTable comparison({"algorithm", "reconfig", "drops", "total"});
  std::map<std::string, Schedule> schedules;
  for (const std::string name : {"varbatch", "edf", "dlru"}) {
    Schedule schedule;
    const StreamRunRecord r = run_algorithm(inst, name, n, &schedule);
    (void)validate_or_throw(inst, schedule);
    comparison.add_row({r.algorithm, std::to_string(r.cost.reconfig_cost),
                        std::to_string(r.cost.drops),
                        std::to_string(r.cost.total())});
    schedules[name] = std::move(schedule);
  }
  comparison.print(std::cout);

  // Per-service QoS report for the pipeline's schedule.
  std::cout << "\n--- per-service QoS (varbatch, " << n
            << " processors) ---\n";
  std::vector<std::int64_t> served(static_cast<std::size_t>(
      inst.num_colors()));
  for (const ExecEvent& e : schedules["varbatch"].execs) {
    ++served[static_cast<std::size_t>(
        inst.jobs()[static_cast<std::size_t>(e.job)].color)];
  }
  TextTable qos({"service", "delay bound", "jobs", "served", "SLA %"});
  for (ColorId c = 0; c < inst.num_colors(); ++c) {
    const std::int64_t total = inst.jobs_of_color(c);
    const double sla =
        total > 0 ? 100.0 *
                        static_cast<double>(
                            served[static_cast<std::size_t>(c)]) /
                        static_cast<double>(total)
                  : 100.0;
    qos.add_row({"service-" + std::to_string(c),
                 std::to_string(inst.delay_bound(c)), std::to_string(total),
                 std::to_string(served[static_cast<std::size_t>(c)]),
                 fmt_double(sla, 1)});
  }
  qos.print(std::cout);

  // Latency anatomy of the pipeline's schedule.
  const ScheduleMetrics metrics =
      compute_metrics(inst, schedules["varbatch"]);
  std::cout << "\n--- latency (varbatch, " << n << " processors) ---\n"
            << "wait rounds: p50=" << metrics.wait.p50
            << " p95=" << metrics.wait.p95 << " p99=" << metrics.wait.p99
            << " max=" << metrics.wait.max << "\n"
            << "utilization: " << fmt_double(100.0 * metrics.utilization, 1)
            << "%  service rate: "
            << fmt_double(100.0 * metrics.service_rate, 1) << "%\n";

  const Cost lb = offline_lower_bound(inst, 2).best();
  const Cost ub = best_offline_heuristic_cost(inst, 2);
  std::cout << "\noffline bracket (m=2): LB=" << lb << "  greedy UB=" << ub
            << "\n";
  return 0;
}
