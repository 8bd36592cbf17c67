#include "algs/registry.h"

#include <utility>

#include "algs/adaptive.h"
#include "algs/distribute.h"
#include "algs/dlru.h"
#include "algs/dlru_edf.h"
#include "algs/edf.h"
#include "algs/varbatch.h"
#include "util/check.h"

namespace rrs {
namespace {

/// A reduction pipeline's result: the inner dLRU-EDF run, carrying the
/// cost and (if asked for) the schedule mapped back onto the instance.
EngineResult mapped_back(EngineResult inner, Schedule&& schedule,
                         const CostBreakdown& cost, bool record) {
  inner.cost = cost;
  inner.schedule = record ? std::move(schedule) : Schedule{};
  return inner;
}

std::vector<AlgorithmInfo> build_registry() {
  const std::pair<const char*, const char*> engine_algorithms[] = {
      {"dlru", "pure recency caching (Section 3.1.1; not competitive)"},
      {"edf", "pure deadline caching (Section 3.1.2; not competitive)"},
      {"dlru-edf",
       "combined recency + deadline caching (Section 3.1.3; Theorem 1)"},
      {"adaptive",
       "dLRU-EDF with an ARC-inspired self-tuning LRU/EDF split "
       "(extension; see algs/adaptive.h)"},
      {"seq-edf", "EDF with unreplicated full capacity (Section 3.3)"},
      {"ds-seq-edf", "double-speed Seq-EDF (Section 3.3)"},
  };
  std::vector<AlgorithmInfo> algs;
  for (const auto& [name, description] : engine_algorithms) {
    const auto run = [algorithm = std::string(name)](const Instance& inst,
                                                     int n, bool record) {
      EngineOptions options;
      const auto policy = make_stream_policy(algorithm, options);
      options.num_resources = n;
      options.record_schedule = record;
      return run_policy(inst, *policy, options);
    };
    algs.push_back({name, description, run});
  }
  algs.push_back(
      {"distribute",
       "batched -> rate-limited reduction over dLRU-EDF (Theorem 2)",
       [](const Instance& inst, int n, bool record) {
         DistributeResult r = run_distribute(inst, n);
         return mapped_back(std::move(r.virtual_run), std::move(r.schedule),
                            r.cost, record);
       }});
  algs.push_back(
      {"varbatch",
       "general -> batched -> rate-limited pipeline (Theorem 3); handles "
       "arbitrary delay bounds",
       [](const Instance& inst, int n, bool record) {
         VarBatchResult r = run_varbatch(inst, n);
         return mapped_back(std::move(r.core_run), std::move(r.schedule),
                            r.cost, record);
       }});
  return algs;
}

}  // namespace

std::unique_ptr<Policy> make_stream_policy(const std::string& name,
                                           EngineOptions& options) {
  // Seq-EDF (Section 3.3) is EDF with all capacity caching distinct colors;
  // DS-Seq-EDF runs it at double speed.
  const bool seq = name == "seq-edf" || name == "ds-seq-edf";
  options.replication = seq ? 1 : 2;
  options.speed = name == "ds-seq-edf" ? 2 : 1;
  if (name == "dlru") return std::make_unique<DLruPolicy>();
  if (name == "edf" || seq) return std::make_unique<EdfPolicy>();
  if (name == "dlru-edf") return std::make_unique<DLruEdfPolicy>();
  if (name == "adaptive") return std::make_unique<AdaptiveSplitPolicy>();
  throw InputError("unknown policy: " + name);
}

const std::vector<AlgorithmInfo>& algorithm_registry() {
  static const std::vector<AlgorithmInfo> registry = build_registry();
  return registry;
}

const AlgorithmInfo& find_algorithm(const std::string& name) {
  for (const AlgorithmInfo& info : algorithm_registry()) {
    if (info.name == name) return info;
  }
  throw InputError("unknown algorithm: " + name);
}

}  // namespace rrs
