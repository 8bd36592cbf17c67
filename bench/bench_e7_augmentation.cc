// E7 — resource augmentation: how much extra capacity does dLRU-EDF
// actually need?
//
// Theorem 1 is proved at n = 8m.  This bench sweeps the augmentation
// factor n/m on fixed workloads (one random rate-limited mix, plus both
// appendix adversaries) and reports cost and drops per n.  Expected shape:
// cost falls steeply while n/m is small, then flattens — the theorem's
// constant factor 8 is sufficient, and empirically less is usually enough.
#include <iostream>

#include "bench_common.h"
#include "offline/greedy_offline.h"
#include "offline/lower_bound.h"
#include "sim/runner.h"
#include "workload/adversary_dlru.h"
#include "workload/adversary_edf.h"
#include "workload/random_batched.h"

int main() {
  using namespace rrs;
  bench::banner("E7 (augmentation)",
                "dLRU-EDF cost vs augmentation factor n/m (m = 1)");

  struct Workload {
    std::string label;
    Instance instance;
  };
  std::vector<Workload> workloads;
  {
    RandomBatchedParams params;
    params.seed = 5;
    params.delta = 8;
    params.num_colors = 16;
    params.horizon = 2048;
    workloads.push_back({"random rate-limited",
                         make_random_batched(params)});
  }
  workloads.push_back(
      {"Appendix A adversary",
       make_adversary_a({.n = 8, .delta = 2, .j = 7, .k = 9}).instance});
  workloads.push_back(
      {"Appendix B adversary",
       make_adversary_b({.n = 8, .j = 4, .k = 8}).instance});

  const int m = 1;
  TextTable table({"workload", "n", "n/m", "cost", "reconfig", "drops",
                   "ratio<="});
  CsvWriter csv({"workload", "n", "cost", "reconfig", "drops", "ratio_lb"});

  bool bounded_at_8m = true;
  bool monotone = true;
  for (const Workload& w : workloads) {
    const Cost lb = offline_lower_bound(w.instance, m).best();
    Cost previous = -1;
    for (const int n : {4, 8, 16, 32}) {
      const StreamRunRecord r = run_algorithm(w.instance, "dlru-edf", n);
      const double ratio =
          lb > 0 ? static_cast<double>(r.cost.total()) /
                       static_cast<double>(lb)
                 : 1.0;
      if (n == 8 * m) bounded_at_8m &= ratio < 8.0;
      if (previous >= 0) monotone &= r.cost.total() <= previous * 2;
      previous = r.cost.total();
      table.add_row({w.label, std::to_string(n),
                     std::to_string(n / m), std::to_string(r.cost.total()),
                     std::to_string(r.cost.reconfig_cost),
                     std::to_string(r.cost.drops), fmt_ratio(ratio)});
      csv.add_row({w.label, std::to_string(n),
                   std::to_string(r.cost.total()),
                   std::to_string(r.cost.reconfig_cost),
                   std::to_string(r.cost.drops), fmt_double(ratio)});
    }
  }
  table.print(std::cout);
  bench::maybe_write_csv(csv, "e7_augmentation");

  std::cout << "\npaper: constant competitiveness needs only a constant "
               "augmentation factor (Theorem 1 proves it at n = 8m).\n"
               "Extra resources beyond 8m may keep helping on saturated "
               "workloads — the theorem bounds the ratio, not the curve.\n";
  bool ok = true;
  ok &= bench::verdict(bounded_at_8m,
                       "ratio vs certified LB(m) below a small constant at "
                       "the theorem's n = 8m");
  ok &= bench::verdict(monotone,
                       "adding resources never substantially hurts");
  return ok ? 0 : 1;
}
