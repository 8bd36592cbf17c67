// A3 — ablation: what the layered reductions cost.
//
// The paper's end-to-end algorithm stacks two reductions on dLRU-EDF:
// VarBatch delays every job to its next half-block (halving usable slack)
// and Distribute splits bursts into virtual colors.  On inputs where the
// core algorithm is directly applicable, the layers are pure overhead —
// this bench quantifies it by running, on the SAME rate-limited batched
// instances:
//   direct     dLRU-EDF as-is (what Theorem 1 analyzes),
//   distribute Distribute -> dLRU-EDF (adds virtual-color splitting),
//   varbatch   VarBatch -> Distribute -> dLRU-EDF (adds half-block delay).
// The same comparison is repeated on unbatched inputs where only varbatch
// carries a guarantee but the Section 3 policies still run mechanically.
#include <iostream>

#include "bench_common.h"
#include "sim/runner.h"
#include "workload/poisson.h"
#include "workload/random_batched.h"

int main() {
  using namespace rrs;
  bench::banner("A3 (ablation)",
                "overhead of the VarBatch / Distribute reduction layers");

  const int n = 8;
  TextTable table({"input", "algorithm", "reconfig", "drops", "total",
                   "vs direct"});
  CsvWriter csv({"input", "algorithm", "reconfig", "drops", "total"});

  double worst_overhead = 0.0;
  bool layers_never_catastrophic = true;
  for (const bool batched : {true, false}) {
    Instance inst;
    if (batched) {
      RandomBatchedParams params;
      params.seed = 31;
      params.delta = 8;
      params.num_colors = 16;
      params.horizon = 2048;
      inst = make_random_batched(params);
    } else {
      PoissonParams params;
      params.seed = 31;
      params.delta = 8;
      params.num_colors = 16;
      params.horizon = 2048;
      params.mean_rate = 0.2;
      inst = make_poisson(params);
    }
    const std::string input = batched ? "rate-limited batched" : "poisson";

    Cost direct_cost = 0;
    std::vector<std::string> algorithms{"dlru-edf"};
    if (batched) algorithms.emplace_back("distribute");
    algorithms.emplace_back("varbatch");
    for (const std::string& name : algorithms) {
      const StreamRunRecord r = run_algorithm(inst, name, n);
      std::string versus = "-";
      if (name == "dlru-edf") {
        direct_cost = r.cost.total();
      } else if (direct_cost > 0) {
        const double overhead = static_cast<double>(r.cost.total()) /
                                static_cast<double>(direct_cost);
        versus = fmt_ratio(overhead);
        worst_overhead = std::max(worst_overhead, overhead);
        layers_never_catastrophic &= overhead < 6.0;
      }
      table.add_row({input, r.algorithm,
                     std::to_string(r.cost.reconfig_cost),
                     std::to_string(r.cost.drops),
                     std::to_string(r.cost.total()), versus});
      csv.add_row({input, r.algorithm,
                   std::to_string(r.cost.reconfig_cost),
                   std::to_string(r.cost.drops),
                   std::to_string(r.cost.total())});
    }
  }
  table.print(std::cout);
  bench::maybe_write_csv(csv, "a3_reduction_overhead");

  std::cout << "\nThe reductions exist for worst-case guarantees "
               "(Theorems 2-3); on benign inputs they cost a constant "
               "factor — the price of the half-block delay and virtual "
               "splitting.  Worst measured overhead: x"
            << fmt_double(worst_overhead, 2) << "\n";
  return bench::verdict(layers_never_catastrophic,
                        "reduction layers cost at most a small constant "
                        "factor on benign inputs")
             ? 0
             : 1;
}
