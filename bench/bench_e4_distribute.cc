// E4 — Theorem 2: Distribute extends Theorem 1 to batched inputs whose
// bursts exceed the rate limit.
//
// Batched workloads with bursts of up to burst_factor * D_l jobs per batch
// violate the Section 3 rate limit; Distribute splits each burst across
// virtual colors (l, j) and runs dLRU-EDF on the result.  The bench sweeps
// the burst factor and reports: the mapped-back cost against the offline
// bracket, the cost of the virtual run (Lemma 4.2 says mapping back never
// costs more), and dLRU-EDF applied directly (no splitting) as a baseline.
#include <iostream>

#include "algs/distribute.h"
#include "bench_common.h"
#include "core/validator.h"
#include "offline/greedy_offline.h"
#include "offline/lower_bound.h"
#include "sim/runner.h"
#include "workload/random_batched.h"

int main() {
  using namespace rrs;
  bench::banner("E4 (Theorem 2)",
                "Distribute handles over-limit batched bursts at constant "
                "ratio");

  const int m = 1;
  const int n = 8 * m;
  TextTable table({"burst", "jobs", "LB(m)", "UB(m)", "distribute",
                   "virtual", "direct dLRU-EDF", "ratio<="});
  CsvWriter csv({"burst", "jobs", "lb", "ub", "distribute", "virtual",
                 "direct", "ratio_lb"});

  bool mapping_never_worse = true;
  double worst_ratio = 0.0;
  for (const double burst : {1.0, 2.0, 4.0, 8.0}) {
    RandomBatchedParams params;
    params.seed = 7;
    params.delta = 8;
    params.num_colors = 12;
    params.horizon = 2048;
    params.burst_factor = burst;
    const Instance inst = make_random_batched(params);

    const DistributeResult dist = run_distribute(inst, n);
    (void)validate_or_throw(inst, dist.schedule);
    const StreamRunRecord direct = run_algorithm(inst, "dlru-edf", n);
    const Cost lb = offline_lower_bound(inst, m).best();
    const Cost ub = best_offline_heuristic_cost(inst, m);

    mapping_never_worse &=
        dist.cost.total() <= dist.virtual_run.cost.total();
    const double ratio = lb > 0 ? static_cast<double>(dist.cost.total()) /
                                      static_cast<double>(lb)
                                : 1.0;
    worst_ratio = std::max(worst_ratio, ratio);

    table.add_row({fmt_double(burst, 1),
                   std::to_string(inst.jobs().size()), std::to_string(lb),
                   std::to_string(ub), std::to_string(dist.cost.total()),
                   std::to_string(dist.virtual_run.cost.total()),
                   std::to_string(direct.cost.total()), fmt_ratio(ratio)});
    csv.add_row({fmt_double(burst, 1), std::to_string(inst.jobs().size()),
                 std::to_string(lb), std::to_string(ub),
                 std::to_string(dist.cost.total()),
                 std::to_string(dist.virtual_run.cost.total()),
                 std::to_string(direct.cost.total()), fmt_double(ratio)});
  }
  table.print(std::cout);
  bench::maybe_write_csv(csv, "e4_distribute");

  std::cout << "\npaper: Distribute is resource competitive for batched "
               "inputs (Theorem 2); Lemma 4.2: mapped cost <= virtual "
               "cost.\n";
  bool ok = true;
  ok &= bench::verdict(mapping_never_worse,
                       "mapping back never increases cost (Lemma 4.2)");
  ok &= bench::verdict(worst_ratio < 12.0,
                       "Distribute ratio bounded across burst factors");
  return ok ? 0 : 1;
}
