// Example: explore the paper's adversarial constructions interactively.
//
// A small CLI over the Appendix A / Appendix B generators: pick the
// construction and its parameters, and see every algorithm's cost next to
// the exact OFF schedule the proof uses.  Handy for building intuition
// about WHY single-principle caching fails.
//
// Usage:
//   adversary_explorer a [n] [delta] [j] [k]     (Appendix A, dLRU killer)
//   adversary_explorer b [n] [j] [k]             (Appendix B, EDF killer)
#include <cstdlib>
#include <iostream>
#include <string>

#include "core/validator.h"
#include "offline/appendix_off.h"
#include "sim/runner.h"
#include "sim/table.h"
#include "workload/adversary_dlru.h"
#include "workload/adversary_edf.h"

namespace {

int arg_or(int argc, char** argv, int index, int fallback) {
  return argc > index ? std::atoi(argv[index]) : fallback;
}

void run_all(const rrs::Instance& inst, int n, rrs::Cost off_cost) {
  using namespace rrs;
  TextTable table(
      {"algorithm", "reconfig", "drops", "total", "ratio vs OFF"});
  for (const std::string name : {"dlru", "edf", "dlru-edf"}) {
    Schedule schedule;
    const StreamRunRecord r = run_algorithm(inst, name, n, &schedule);
    (void)validate_or_throw(inst, schedule);
    table.add_row({r.algorithm, std::to_string(r.cost.reconfig_cost),
                   std::to_string(r.cost.drops),
                   std::to_string(r.cost.total()),
                   fmt_ratio(static_cast<double>(r.cost.total()) /
                             static_cast<double>(off_cost))});
  }
  table.print(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rrs;
  const std::string which = argc > 1 ? argv[1] : "a";

  if (which == "a") {
    AdversaryAParams params;
    params.n = arg_or(argc, argv, 2, 8);
    params.delta = arg_or(argc, argv, 3, 2);
    params.j = arg_or(argc, argv, 4, 0);  // 0 = auto
    params.k = arg_or(argc, argv, 5, 0);
    const AdversaryAInstance adv = make_adversary_a(params);
    std::cout << "Appendix A (recency killer): " << adv.instance.summary()
              << "\n"
              << "short colors: " << adv.short_colors.size() << " x delay "
              << (Round{1} << adv.params.j) << "; long color: delay "
              << (Round{1} << adv.params.k) << " with "
              << adv.instance.jobs_of_color(adv.long_color)
              << " backlog jobs\n\n";
    const Cost off =
        validate_or_throw(adv.instance, appendix_a_off_schedule(adv)).total();
    std::cout << "OFF (cache the long color once, drop short bursts): "
              << off << "\n\n";
    run_all(adv.instance, params.n, off);
    std::cout << "\ndLRU never caches the long color: the short colors' "
                 "wrap timestamps are always at least as recent.\n";
    return 0;
  }
  if (which == "b") {
    AdversaryBParams params;
    params.n = arg_or(argc, argv, 2, 8);
    params.j = arg_or(argc, argv, 3, 0);
    params.k = arg_or(argc, argv, 4, 0);
    const AdversaryBInstance adv = make_adversary_b(params);
    std::cout << "Appendix B (deadline killer): " << adv.instance.summary()
              << "\n"
              << "short color: delay " << (Round{1} << adv.params.j)
              << "; long colors: " << adv.long_colors.size()
              << " with delays " << (Round{1} << adv.params.k) << "..\n\n";
    const Cost off =
        validate_or_throw(adv.instance, appendix_b_off_schedule(adv)).total();
    std::cout << "OFF (short color first, then each backlog in one "
                 "stretch): "
              << off << "\n\n";
    run_all(adv.instance, params.n, off);
    std::cout << "\nEDF re-fetches the longest-delay backlog every time "
                 "the short color goes idle and evicts it on the next "
                 "burst: pure thrashing.\n";
    return 0;
  }
  std::cerr << "usage: adversary_explorer a [n] [delta] [j] [k]\n"
               "       adversary_explorer b [n] [j] [k]\n";
  return 2;
}
