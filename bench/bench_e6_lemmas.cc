// E6 — Lemmas 3.2-3.4: the amortized quantities behind Theorem 1,
// measured.
//
// For dLRU-EDF runs (n = 8m) over random rate-limited workloads, three
// inequalities from the analysis are checked numerically and their slack
// reported:
//   Lemma 3.3:  ReconfigCost        <= 4 * numEpochs * Delta
//   Lemma 3.4:  IneligibleDropCost  <=     numEpochs * Delta
//   Lemma 3.2 chain (Delta = 1, where the eligible subsequence equals the
//   full input):  EligibleDropCost <= Drop(DS-Seq-EDF, m) <= Drop(Par-EDF, m)
// plus Lemma 3.15's super-epoch bound.  Every quantity comes from a
// Section3Shadow attached to the run, which recomputes Section 3.1's state
// from the run's events and also checks each phase against the dLRU-EDF
// rule.  The last section streams the Lemma 3.15 table's first cell for
// 1M rounds.
#include <iostream>
#include <string>
#include <vector>

#include "algs/dlru_edf.h"
#include "algs/par_edf.h"
#include "algs/section3_shadow.h"
#include "bench_common.h"
#include "sim/runner.h"
#include "workload/random_batched.h"

namespace {

/// Writes `table`, header and rows as printed, via bench::maybe_write_csv.
void write_csv(const rrs::TextTable& table, const std::string& name) {
  rrs::CsvWriter csv(table.header());
  for (const std::vector<std::string>& row : table.rows()) csv.add_row(row);
  rrs::bench::maybe_write_csv(csv, name);
}

/// Runs dLRU-EDF with n resources over `source` with a shadow attached
/// (analysis m) and returns the shadow's report.
rrs::Section3Report shadowed_run(rrs::ArrivalSource& source, int n, int m,
                                 rrs::Round max_rounds =
                                     rrs::kInfiniteHorizon) {
  rrs::DLruEdfPolicy policy;
  rrs::EngineOptions options;
  options.num_resources = n;
  options.replication = 2;
  options.record_schedule = false;
  options.max_rounds = max_rounds;
  rrs::Section3Shadow shadow(source, options, rrs::Section3Rule::kDLruEdf,
                             m);
  (void)rrs::run_with_shadow(source, policy, options, shadow);
  return shadow.report();
}

}  // namespace

int main() {
  using namespace rrs;
  bench::banner("E6 (Lemmas 3.2-3.4)",
                "amortized bounds of the Theorem 1 analysis, measured");

  const int m = 1;
  const int n = 8 * m;

  TextTable lemma34({"seed", "Delta", "epochs", "reconfig", "4*ep*D",
                     "inelig drops", "ep*D", "L3.3 ok", "L3.4 ok"});
  bool l33 = true, l34 = true;
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u}) {
    RandomBatchedParams params;
    params.seed = seed;
    params.delta = 8;
    params.num_colors = 16;
    params.horizon = 2048;
    const Instance inst = make_random_batched(params);
    MaterializedSource source(inst);
    const Section3Report report = shadowed_run(source, n, m);

    const std::int64_t epochs = report.epochs;
    const bool ok33 = report.lemma_3_3 && !report.violation;
    const bool ok34 = report.lemma_3_4 && !report.violation;
    l33 &= ok33;
    l34 &= ok34;
    lemma34.add_row({std::to_string(seed), std::to_string(inst.delta()),
                     std::to_string(epochs),
                     std::to_string(report.reconfig_cost),
                     std::to_string(4 * epochs * inst.delta()),
                     std::to_string(report.dropped_ineligible.count),
                     std::to_string(epochs * inst.delta()),
                     ok33 ? "yes" : "NO", ok34 ? "yes" : "NO"});
  }
  lemma34.print(std::cout);
  write_csv(lemma34, "e6_lemmas_3_3_and_3_4");

  std::cout << "\nLemma 3.2 drop chain (Delta = 1):\n";
  TextTable chain({"seed", "eligible drops", "DS-Seq-EDF drops",
                   "Par-EDF drops", "chain ok"});
  bool l32 = true;
  for (const std::uint64_t seed : {11u, 12u, 13u, 14u, 15u, 16u}) {
    RandomBatchedParams params;
    params.seed = seed;
    params.delta = 1;
    params.num_colors = 16;
    params.horizon = 2048;
    const Instance inst = make_random_batched(params);
    MaterializedSource source(inst);
    const Section3Report report = shadowed_run(source, n, m);
    const Cost ds =
        run_algorithm(inst, "ds-seq-edf", m).cost.drops;
    const std::int64_t par = run_par_edf(inst, m).drops;
    const bool ok = report.dropped_eligible.count <= ds && ds <= par &&
                    !report.violation;
    l32 &= ok;
    chain.add_row({std::to_string(seed),
                   std::to_string(report.dropped_eligible.count),
                   std::to_string(ds), std::to_string(par),
                   ok ? "yes" : "NO"});
  }
  chain.print(std::cout);
  write_csv(chain, "e6_lemma_3_2_chain");

  std::cout << "\nSection 3.4 super-epoch accounting (Lemma 3.15):\n";
  TextTable supers({"seed", "epochs", "super-epochs", "ts updates",
                    "max endings/super", "L3.15 ok"});
  bool l315 = true;
  for (const std::uint64_t seed : {21u, 22u, 23u, 24u}) {
    RandomBatchedParams params;
    params.seed = seed;
    params.delta = 4;
    params.num_colors = 16;
    params.horizon = 2048;
    const Instance inst = make_random_batched(params);
    MaterializedSource source(inst);
    const Section3Report report = shadowed_run(source, n, m);
    const bool ok315 = report.lemma_3_15 && !report.violation;
    l315 &= ok315;
    supers.add_row({std::to_string(seed), std::to_string(report.epochs),
                    std::to_string(report.super_epochs),
                    std::to_string(report.timestamp_increases),
                    std::to_string(report.max_epoch_endings),
                    ok315 ? "yes" : "NO"});
  }
  supers.print(std::cout);
  write_csv(supers, "e6_lemma_3_15_super_epochs");

  std::cout << "\n";
  bool ok = true;
  ok &= bench::verdict(l33, "Lemma 3.3: reconfig <= 4 * epochs * Delta");
  ok &= bench::verdict(l34, "Lemma 3.4: ineligible drops <= epochs * Delta");
  ok &= bench::verdict(
      l32, "Lemma 3.2 chain: eligible <= DS-Seq-EDF <= Par-EDF drops");
  ok &= bench::verdict(
      l315, "Lemma 3.15: <= 2 epoch endings per color per super-epoch");

  // The Lemma 3.15 table's first cell, streamed: the shadow checks every
  // lemma at every round end (and every phase against the rule) in
  // O(colors + n) memory.
  std::cout << "\nStream scale: the seed-21 cell streamed for 1M rounds:\n";
  constexpr Round kStreamRounds = 1'000'000;
  RandomBatchedParams params;
  params.seed = 21;
  params.delta = 4;
  params.num_colors = 16;
  params.horizon = kStreamRounds;
  RandomBatchedSource stream(params);
  const Section3Report report = shadowed_run(stream, n, m, kStreamRounds);
  const bool in_model = report.in_model;
  const bool ok33 = report.lemma_3_3 && in_model;
  const bool ok34 = report.lemma_3_4 && in_model;
  const bool ok315 = report.lemma_3_15 && in_model;
  TextTable scale({"rounds", "epochs", "reconfig", "4*ep*D", "inelig drops",
                   "ep*D", "max endings/super", "L3.3 ok", "L3.4 ok",
                   "L3.15 ok"});
  scale.add_row({std::to_string(kStreamRounds), std::to_string(report.epochs),
                 std::to_string(report.reconfig_cost),
                 std::to_string(4 * report.epochs * params.delta),
                 std::to_string(report.dropped_ineligible.count),
                 std::to_string(report.epochs * params.delta),
                 std::to_string(report.max_epoch_endings),
                 ok33 ? "yes" : "NO", ok34 ? "yes" : "NO",
                 ok315 ? "yes" : "NO"});
  scale.print(std::cout);
  write_csv(scale, "e6_stream_scale");
  std::cout << "\n";
  ok &= bench::verdict(ok33 && ok34 && ok315,
                       "stream scale: Lemmas 3.3, 3.4 and 3.15 hold at "
                       "every check of a 1M-round run");
  ok &= bench::verdict(!report.violation,
                       "stream scale: every phase follows the dLRU-EDF rule "
                       "and the replication invariant");
  return ok ? 0 : 1;
}
