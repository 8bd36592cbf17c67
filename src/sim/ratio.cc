#include "sim/ratio.h"

#include <algorithm>
#include <limits>

#include "offline/greedy_offline.h"
#include "offline/lower_bound.h"
#include "util/check.h"

namespace rrs {
namespace {

/// cost / bound; infinity when the bound is 0 and the cost is not, and 1
/// when both are 0.
double ratio(Cost cost, Cost bound) {
  if (bound > 0) return static_cast<double>(cost) / static_cast<double>(bound);
  return cost > 0 ? std::numeric_limits<double>::infinity() : 1.0;
}

}  // namespace

RatioReport measure_ratio(const Instance& instance,
                          const std::string& algorithm, int n, int m,
                          Cost known_off_cost) {
  RRS_REQUIRE(m >= 1, "measure_ratio needs m >= 1");
  RatioReport report;
  report.online = run_algorithm(instance, algorithm, n);
  report.m = m;
  report.lower_bound = offline_lower_bound(instance, m).best();
  report.heuristic_ub = known_off_cost > 0
                            ? known_off_cost
                            : best_offline_heuristic_cost(instance, m);
  // The bracket must be consistent; a heuristic below a certified lower
  // bound indicates a bug in one of them.
  RRS_CHECK_MSG(report.heuristic_ub >= report.lower_bound,
                "offline bracket inverted: UB " << report.heuristic_ub
                                                << " < LB "
                                                << report.lower_bound);
  const Cost online_cost = report.online.cost.total();
  report.ratio_vs_lb = ratio(online_cost, report.lower_bound);
  report.ratio_vs_ub = ratio(online_cost, report.heuristic_ub);
  return report;
}

RatioReport measure_ratio_certified(const Instance& instance,
                                    const std::string& algorithm, int n,
                                    int m, const BnbOptions& options) {
  RatioReport report = measure_ratio(instance, algorithm, n, m);
  BnbOptions opts = options;
  if (n == m) {
    // The online run emits a feasible m-resource schedule, so its cost is
    // a certified upper bound on OPT(m) and may seed the incumbent.
    const Cost online_cost = report.online.cost.total();
    if (opts.incumbent_hint < 0 || online_cost < opts.incumbent_hint) {
      opts.incumbent_hint = online_cost;
    }
  }
  const BnbResult bnb = exact_offline_bnb(instance, m, opts);
  RRS_CHECK_MSG(bnb.best_bound <= bnb.incumbent,
                "certified interval inverted: LB " << bnb.best_bound
                                                   << " > UB "
                                                   << bnb.incumbent);
  RRS_CHECK_MSG(bnb.best_bound >= report.lower_bound,
                "B&B bound " << bnb.best_bound
                             << " below closed-form lower bound "
                             << report.lower_bound);
  report.best_bound = bnb.best_bound;
  report.certified_ub = bnb.incumbent;
  report.opt_closed = bnb.closed;
  const Cost online_cost = report.online.cost.total();
  report.ratio_upper = ratio(online_cost, report.best_bound);
  report.ratio_lower = ratio(online_cost, report.certified_ub);
  return report;
}

}  // namespace rrs
