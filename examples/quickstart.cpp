// Quickstart: build an instance, run the paper's algorithms, compare costs.
//
// Demonstrates the three-layer public API:
//   1. describe a workload with InstanceBuilder (or a workload generator);
//   2. run any registered algorithm (dlru / edf / dlru-edf / varbatch /...)
//      with a chosen resource count;
//   3. bracket the offline optimum with certified lower bounds and greedy
//      upper bounds, and validate the produced schedule event-by-event.
#include <iostream>

#include "core/instance.h"
#include "core/validator.h"
#include "offline/greedy_offline.h"
#include "offline/lower_bound.h"
#include "sim/runner.h"
#include "sim/table.h"

int main() {
  using namespace rrs;

  // A toy multi-service workload: two latency-sensitive colors (delay 8),
  // one batch color (delay 64), reconfiguration cost 4.  Arrivals are NOT
  // aligned to delay-bound multiples, so this is the general
  // [Delta | 1 | D_l | 1] problem the paper's Theorem 3 solves.
  InstanceBuilder builder;
  builder.delta(4);
  const ColorId web = builder.add_color(8);
  const ColorId api = builder.add_color(8);
  const ColorId batch = builder.add_color(64);
  builder.add_jobs(batch, 0, 48);  // a backlog with generous deadlines
  for (Round t = 0; t < 256; ++t) {
    if (t % 3 == 0) builder.add_jobs(web, t, 2);
    if (t % 5 == 1) builder.add_jobs(api, t, 3);
    if (t % 64 == 10) builder.add_jobs(batch, t, 20);
  }
  const Instance instance = builder.build();
  std::cout << "instance: " << instance.summary() << "\n\n";

  // Run the end-to-end online algorithm (VarBatch -> Distribute ->
  // dLRU-EDF) and the two straw-man schemes, validating each schedule.
  const int n = 8;  // online resources
  const int m = 1;  // offline comparator resources
  TextTable table({"algorithm", "reconfig", "drops", "total", "valid"});
  for (const std::string name : {"varbatch", "dlru", "edf"}) {
    Schedule schedule;
    const StreamRunRecord record = run_algorithm(instance, name, n, &schedule);
    const ValidationResult check = validate(instance, schedule);
    table.add_row({record.algorithm,
                   std::to_string(record.cost.reconfig_cost),
                   std::to_string(record.cost.drops),
                   std::to_string(record.cost.total()),
                   check.ok ? "yes" : "NO"});
    if (!check.ok) {
      for (const auto& error : check.errors) {
        std::cerr << "validation error: " << error << "\n";
      }
      return 1;
    }
  }
  table.print(std::cout);

  // Bracket the offline optimum with m = 1 resource.
  const LowerBound lb = offline_lower_bound(instance, m);
  const Cost ub = best_offline_heuristic_cost(instance, m);
  std::cout << "\noffline bracket (m=" << m << "): LB=" << lb.best()
            << " (configure-or-drop " << lb.configure_or_drop
            << ", capacity " << lb.capacity << "), greedy UB=" << ub << "\n";
  return 0;
}
