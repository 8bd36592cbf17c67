// E1 — Appendix A: dLRU is not resource competitive.
//
// Reproduces the paper's Appendix A lower-bound construction: n/2
// short-term colors (delay 2^j) plus one long-term backlog color (delay
// 2^k), with 2^k > 2^{j+1} > n * Delta.  The paper proves dLRU's
// competitive ratio is Omega(2^{j+1} / (n Delta)) — unbounded in j — while
// Theorem 1's dLRU-EDF stays constant.  We sweep j (k = j + 2) and report
// both algorithms' cost against the exact Appendix A OFF schedule.
#include <iostream>

#include "bench_common.h"
#include "core/validator.h"
#include "offline/appendix_off.h"
#include "sim/runner.h"
#include "workload/adversary_dlru.h"

int main() {
  using namespace rrs;
  bench::banner("E1 (Appendix A)",
                "dLRU unbounded vs dLRU-EDF constant on the recency killer");

  const int n = 8;
  const Cost delta = 2;
  TextTable table({"j", "k", "jobs", "OFF cost", "dLRU cost", "dLRU ratio",
                   "dLRU-EDF cost", "dLRU-EDF ratio"});
  CsvWriter csv({"j", "k", "off", "dlru", "dlru_ratio", "dlru_edf",
                 "dlru_edf_ratio"});

  double first_dlru_ratio = 0, last_dlru_ratio = 0, worst_combo_ratio = 0;
  for (int j = 5; j <= 10; ++j) {
    AdversaryAParams params;
    params.n = n;
    params.delta = delta;
    params.j = j;
    params.k = j + 2;
    const AdversaryAInstance adv = make_adversary_a(params);

    const Cost off =
        validate_or_throw(adv.instance, appendix_a_off_schedule(adv)).total();
    const StreamRunRecord dlru = run_algorithm(adv.instance, "dlru", n);
    const StreamRunRecord combo = run_algorithm(adv.instance, "dlru-edf", n);

    const double dlru_ratio =
        static_cast<double>(dlru.cost.total()) / static_cast<double>(off);
    const double combo_ratio =
        static_cast<double>(combo.cost.total()) / static_cast<double>(off);
    if (j == 5) first_dlru_ratio = dlru_ratio;
    last_dlru_ratio = dlru_ratio;
    worst_combo_ratio = std::max(worst_combo_ratio, combo_ratio);

    table.add_row({std::to_string(j), std::to_string(params.k),
                   std::to_string(adv.instance.jobs().size()),
                   std::to_string(off), std::to_string(dlru.cost.total()),
                   fmt_ratio(dlru_ratio), std::to_string(combo.cost.total()),
                   fmt_ratio(combo_ratio)});
    csv.add_row({std::to_string(j), std::to_string(params.k),
                 std::to_string(off), std::to_string(dlru.cost.total()),
                 fmt_double(dlru_ratio), std::to_string(combo.cost.total()),
                 fmt_double(combo_ratio)});
  }
  table.print(std::cout);
  bench::maybe_write_csv(csv, "e1_dlru_lb");

  std::cout << "\npaper: dLRU ratio grows ~2x per unit of j; dLRU-EDF "
               "constant.\n";
  bool ok = true;
  ok &= bench::verdict(last_dlru_ratio > 3.0 * first_dlru_ratio,
                       "dLRU ratio grows without bound as j grows");
  ok &= bench::verdict(worst_combo_ratio < 3.0,
                       "dLRU-EDF stays within a small constant of OFF");
  return ok ? 0 : 1;
}
