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
#include <iostream>
#include <string>
#include <vector>

#include "algs/dlru_edf.h"
#include "algs/par_edf.h"
#include "algs/registry.h"
#include "bench_common.h"
#include "workload/random_batched.h"

namespace {

/// Writes `table`, header and rows as printed, via bench::maybe_write_csv.
void write_csv(const rrs::TextTable& table, const std::string& name) {
  rrs::CsvWriter csv(table.header());
  for (const std::vector<std::string>& row : table.rows()) csv.add_row(row);
  rrs::bench::maybe_write_csv(csv, name);
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

    DLruEdfPolicy policy;
    EngineOptions options;
    options.num_resources = n;
    options.replication = 2;
    options.record_schedule = false;
    const EngineResult r = run_policy(inst, policy, options);

    const std::int64_t epochs = policy.tracker().num_epochs();
    const Cost bound33 = 4 * epochs * inst.delta();
    const Cost bound34 = epochs * inst.delta();
    const bool ok33 = r.cost.reconfig_cost <= bound33;
    const bool ok34 = policy.tracker().ineligible_drops() <= bound34;
    l33 &= ok33;
    l34 &= ok34;
    lemma34.add_row({std::to_string(seed), std::to_string(inst.delta()),
                     std::to_string(epochs),
                     std::to_string(r.cost.reconfig_cost),
                     std::to_string(bound33),
                     std::to_string(policy.tracker().ineligible_drops()),
                     std::to_string(bound34), ok33 ? "yes" : "NO",
                     ok34 ? "yes" : "NO"});
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

    DLruEdfPolicy policy;
    EngineOptions options;
    options.num_resources = n;
    options.replication = 2;
    options.record_schedule = false;
    (void)run_policy(inst, policy, options);
    const Cost ds =
        find_algorithm("ds-seq-edf").run(inst, m, false).cost.drops;
    const std::int64_t par = run_par_edf(inst, m).drops;
    const bool ok =
        policy.tracker().eligible_drops() <= ds && ds <= par;
    l32 &= ok;
    chain.add_row({std::to_string(seed),
                   std::to_string(policy.tracker().eligible_drops()),
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

    DLruEdfPolicy policy;
    policy.enable_super_epoch_analysis(m);
    EngineOptions options;
    options.num_resources = n;
    options.replication = 2;
    options.record_schedule = false;
    (void)run_policy(inst, policy, options);
    const bool ok315 =
        policy.tracker().max_epoch_endings_per_super_epoch() <= 2;
    l315 &= ok315;
    supers.add_row(
        {std::to_string(seed),
         std::to_string(policy.tracker().num_epochs()),
         std::to_string(policy.tracker().num_super_epochs()),
         std::to_string(policy.tracker().timestamp_updates()),
         std::to_string(
             policy.tracker().max_epoch_endings_per_super_epoch()),
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
  return ok ? 0 : 1;
}
