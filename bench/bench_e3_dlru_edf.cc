// E3 — Theorem 1: dLRU-EDF is resource competitive on rate-limited
// [Delta | 1 | D_l | D_l] with power-of-two delay bounds.
//
// The paper gives no experiments; this bench turns the theorem into a
// measurement.  Across random rate-limited workloads — sweeping Delta, the
// number of colors, and the delay-bound spread — dLRU-EDF with n = 8m
// resources is compared against the bracket LB(m) <= OPT(m) <= greedyUB(m)
// (see DESIGN.md).  The theorem predicts cost / OPT stays below a constant
// on every input; the straw-man schemes are shown alongside.
#include <iostream>

#include "bench_common.h"
#include "offline/greedy_offline.h"
#include "offline/lower_bound.h"
#include "sim/ratio.h"
#include "sim/sweep.h"
#include "workload/random_batched.h"

int main() {
  using namespace rrs;
  bench::banner("E3 (Theorem 1)",
                "dLRU-EDF is O(1)-competitive with n = 8m on rate-limited "
                "batched inputs");

  struct Config {
    const char* label;
    RandomBatchedParams params;
  };
  std::vector<Config> configs;
  for (const Cost delta : {2, 8, 32}) {
    RandomBatchedParams p;
    p.delta = delta;
    p.num_colors = 16;
    p.min_scale = 2;
    p.max_scale = 6;
    p.horizon = 2048;
    configs.push_back({"delta sweep", p});
  }
  for (const int colors : {8, 24, 48}) {
    RandomBatchedParams p;
    p.delta = 8;
    p.num_colors = colors;
    p.min_scale = 2;
    p.max_scale = 6;
    p.horizon = 2048;
    configs.push_back({"color sweep", p});
  }
  for (const int spread : {0, 3, 7}) {
    RandomBatchedParams p;
    p.delta = 8;
    p.num_colors = 16;
    p.min_scale = 3;
    p.max_scale = 3 + spread;
    p.horizon = 2048;
    configs.push_back({"delay-spread sweep", p});
  }

  const int m = 1;
  const int n = 8 * m;
  TextTable table({"sweep", "Delta", "colors", "scales", "LB(m)", "UB(m)",
                   "dLRU-EDF", "ratio<=", "ratio>=", "dLRU", "EDF"});
  CsvWriter csv({"sweep", "delta", "colors", "min_scale", "max_scale",
                 "lb", "ub", "dlru_edf", "ratio_lb", "ratio_ub", "dlru",
                 "edf"});

  // Each cell runs three algorithms plus the offline bracket; sweep them
  // in parallel.
  std::vector<std::function<std::vector<std::string>()>> cells;
  for (const Config& config : configs) {
    cells.emplace_back([config, m, n] {
      RandomBatchedParams p = config.params;
      p.seed = 42;
      const Instance inst = make_random_batched(p);
      const RatioReport combo = measure_ratio(inst, "dlru-edf", n, m);
      const StreamRunRecord dlru = run_algorithm(inst, "dlru", n);
      const StreamRunRecord edf = run_algorithm(inst, "edf", n);
      return std::vector<std::string>{
          config.label,
          std::to_string(p.delta),
          std::to_string(p.num_colors),
          std::to_string(p.min_scale) + ".." + std::to_string(p.max_scale),
          std::to_string(combo.lower_bound),
          std::to_string(combo.heuristic_ub),
          std::to_string(combo.online.cost.total()),
          fmt_ratio(combo.ratio_vs_lb),
          fmt_ratio(combo.ratio_vs_ub),
          std::to_string(dlru.cost.total()),
          std::to_string(edf.cost.total()),
      };
    });
  }
  double worst_ratio = 0.0;
  for (const auto& row : run_sweep(cells)) {
    table.add_row(row);
    csv.add_row({row[0], row[1], row[2], row[3].substr(0, row[3].find('.')),
                 row[3].substr(row[3].rfind('.') + 1), row[4], row[5],
                 row[6], row[7].substr(1), row[8].substr(1), row[9],
                 row[10]});
    worst_ratio = std::max(worst_ratio, std::stod(row[7].substr(1)));
  }
  table.print(std::cout);
  bench::maybe_write_csv(csv, "e3_dlru_edf");

  std::cout << "\n'ratio<=' is cost / certified-LB (upper bound on the true "
               "ratio); 'ratio>=' is cost / greedy-UB.\n"
            << "paper: the true ratio is bounded by a constant on every "
               "input.\n";
  return bench::verdict(worst_ratio < 12.0,
                        "dLRU-EDF ratio bounded by a small constant across "
                        "all sweeps")
             ? 0
             : 1;
}
