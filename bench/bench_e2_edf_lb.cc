// E2 — Appendix B: EDF is not resource competitive.
//
// Reproduces the paper's Appendix B construction: one short color (delay
// 2^j) plus n/2 long backlog colors (delays 2^k .. 2^{k+n/2-1}), with
// 2^k > 2^j > Delta > n.  The paper proves EDF's ratio is at least
// 2^{k-j-1} / (n/2 + 1) — unbounded in k - j — because it thrashes the
// long colors in and out whenever the short color goes idle; dLRU-EDF's
// recency half pins the short color and stays constant.  We sweep k - j
// and report costs against the exact Appendix B OFF schedule (which is
// drop-free at cost (n/2 + 1) * Delta).
#include <iostream>

#include "bench_common.h"
#include "core/validator.h"
#include "offline/appendix_off.h"
#include "sim/runner.h"
#include "workload/adversary_edf.h"

int main() {
  using namespace rrs;
  bench::banner("E2 (Appendix B)",
                "EDF unbounded vs dLRU-EDF constant on the deadline killer");

  const int n = 8;
  TextTable table({"j", "k", "jobs", "OFF cost", "EDF cost", "EDF ratio",
                   "dLRU-EDF cost", "dLRU-EDF ratio"});
  CsvWriter csv({"j", "k", "off", "edf", "edf_ratio", "dlru_edf",
                 "dlru_edf_ratio"});

  double first_edf_ratio = 0, last_edf_ratio = 0, worst_combo_ratio = 0;
  const int j = 4;  // 2^4 = 16 > Delta = 9 > n = 8
  for (int bump = 1; bump <= 6; ++bump) {
    AdversaryBParams params;
    params.n = n;
    params.j = j;
    params.k = j + bump;
    const AdversaryBInstance adv = make_adversary_b(params);

    const Cost off =
        validate_or_throw(adv.instance, appendix_b_off_schedule(adv)).total();
    const StreamRunRecord edf = run_algorithm(adv.instance, "edf", n);
    const StreamRunRecord combo = run_algorithm(adv.instance, "dlru-edf", n);

    const double edf_ratio =
        static_cast<double>(edf.cost.total()) / static_cast<double>(off);
    const double combo_ratio =
        static_cast<double>(combo.cost.total()) / static_cast<double>(off);
    if (bump == 1) first_edf_ratio = edf_ratio;
    last_edf_ratio = edf_ratio;
    worst_combo_ratio = std::max(worst_combo_ratio, combo_ratio);

    table.add_row({std::to_string(j), std::to_string(params.k),
                   std::to_string(adv.instance.jobs().size()),
                   std::to_string(off), std::to_string(edf.cost.total()),
                   fmt_ratio(edf_ratio), std::to_string(combo.cost.total()),
                   fmt_ratio(combo_ratio)});
    csv.add_row({std::to_string(j), std::to_string(params.k),
                 std::to_string(off), std::to_string(edf.cost.total()),
                 fmt_double(edf_ratio), std::to_string(combo.cost.total()),
                 fmt_double(combo_ratio)});
  }
  table.print(std::cout);
  bench::maybe_write_csv(csv, "e2_edf_lb");

  std::cout << "\npaper: EDF ratio >= 2^{k-j-1} / (n/2 + 1), doubling per "
               "unit of k - j; dLRU-EDF constant.\n";
  bool ok = true;
  ok &= bench::verdict(last_edf_ratio > 3.0 * first_edf_ratio,
                       "EDF ratio grows without bound as k - j grows");
  ok &= bench::verdict(worst_combo_ratio < 8.0,
                       "dLRU-EDF stays within a small constant of OFF");
  return ok ? 0 : 1;
}
