// E15 — certified competitive-ratio brackets (exact offline at mid scale).
//
// E3–E5 report ratio brackets [cost/greedyUB, cost/closedFormLB] whose
// width is pure measurement slack: the online cost is exact, only the
// denominator OPT(m) is bracketed.  This bench re-runs representative
// E3/E4/E5 cells at mid scale through measure_ratio_certified, replacing
// the closed-form bracket with the branch-and-bound certified interval
// [best_bound, incumbent] (exact_bnb.h) — exact when the search closes.
// The PASS conditions are structural: every certified interval must nest
// strictly inside the closed-form bracket's denominators, and at least
// one cell must measurably narrow.
//
// Each search stops only at its node budget, so the output is a pure
// function of the code: it is committed under bench/results/ like the
// claims' outputs and checked by regenerating it.
#include <iostream>
#include <sstream>
#include <vector>

#include "bench_common.h"
#include "sim/ratio.h"
#include "workload/poisson.h"
#include "workload/random_batched.h"

int main() {
  using namespace rrs;
  bench::banner("E15 (certified brackets)",
                "branch-and-bound certified intervals narrow the E3-E5 "
                "ratio denominators");

  struct Cell {
    std::string family;
    std::string algorithm;
    Instance instance;
    int n = 8;
    int m = 1;
  };
  std::vector<Cell> cells;

  // E3 (Theorem 1): rate-limited batched, dLRU-EDF at n = 8m.
  for (const Cost delta : {2, 8}) {
    RandomBatchedParams p;
    p.seed = 42;
    p.delta = delta;
    p.num_colors = 8;
    p.min_scale = 2;
    p.max_scale = 4;
    p.horizon = 256;
    cells.push_back({"e3_rate_limited_delta" + std::to_string(delta),
                     "dlru-edf", make_random_batched(p)});
  }
  // E4 (Theorem 2): over-limit bursts, Distribute.
  {
    RandomBatchedParams p;
    p.seed = 7;
    p.delta = 4;
    p.num_colors = 8;
    p.min_scale = 2;
    p.max_scale = 4;
    p.horizon = 256;
    p.burst_factor = 4.0;  // bursts past the rate limit
    cells.push_back({"e4_burst4x", "distribute", make_random_batched(p)});
  }
  // E5 (Theorem 3 + section 5.3): unbatched Poisson, VarBatch, both
  // delay-bound regimes.
  for (const bool arbitrary : {false, true}) {
    PoissonParams p;
    p.seed = 11;
    p.delta = 4;
    p.num_colors = 8;
    p.min_delay = 4;
    p.max_delay = 32;
    p.arbitrary_delays = arbitrary;
    p.mean_rate = 0.15;
    p.horizon = 256;
    cells.push_back({std::string("e5_poisson_") +
                         (arbitrary ? "arbitrary" : "pow2"),
                     "varbatch", make_poisson(p)});
  }

  TextTable table({"cell", "alg", "LB", "UB", "bnb LB", "bnb UB", "closed",
                   "ratio<=", "cert<="});
  CsvWriter csv({"cell", "alg", "lb", "ub", "bnb_lb", "bnb_ub", "closed",
                 "ratio_vs_lb", "ratio_upper"});

  bool nested = true;
  bool narrowed = false;
  for (const Cell& cell : cells) {
    BnbOptions options;
    options.max_nodes = 2'000'000;
    const RatioReport r = measure_ratio_certified(cell.instance,
                                                  cell.algorithm, cell.n,
                                                  cell.m, options);
    // Nesting is structural (best_bound >= LB is RRS_CHECKed inside;
    // incumbent <= greedy by seeding) — verify the emitted report anyway.
    nested = nested && r.best_bound >= r.lower_bound &&
             r.certified_ub <= r.heuristic_ub;
    narrowed = narrowed || r.best_bound > r.lower_bound ||
               r.certified_ub < r.heuristic_ub;

    const auto fmt = [](double v) {
      std::ostringstream os;
      os.precision(3);
      os << std::fixed << v;
      return os.str();
    };
    table.add_row({cell.family, cell.algorithm,
                   std::to_string(r.lower_bound),
                   std::to_string(r.heuristic_ub),
                   std::to_string(r.best_bound),
                   std::to_string(r.certified_ub),
                   r.opt_closed ? "yes" : "no", fmt(r.ratio_vs_lb),
                   fmt(r.ratio_upper)});
    csv.add_row({cell.family, cell.algorithm, std::to_string(r.lower_bound),
                 std::to_string(r.heuristic_ub),
                 std::to_string(r.best_bound),
                 std::to_string(r.certified_ub),
                 r.opt_closed ? "1" : "0", fmt(r.ratio_vs_lb),
                 fmt(r.ratio_upper)});
  }
  table.print(std::cout);
  bench::maybe_write_csv(csv, "e15_certified");

  bool ok = true;
  ok &= bench::verdict(nested,
                       "every certified interval nests inside the "
                       "closed-form bracket");
  ok &= bench::verdict(narrowed,
                       "at least one E3-E5 denominator bracket measurably "
                       "narrowed");
  return ok ? 0 : 1;
}
