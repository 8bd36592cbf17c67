#include "algs/registry.h"

#include "algs/adaptive.h"
#include "algs/distribute.h"
#include "algs/dlru.h"
#include "algs/dlru_edf.h"
#include "algs/edf.h"
#include "algs/varbatch.h"
#include "util/check.h"

namespace rrs {

std::unique_ptr<Policy> make_stream_policy(const std::string& name,
                                           EngineOptions& options) {
  // Seq-EDF (Section 3.3) is EDF with all capacity caching distinct colors;
  // DS-Seq-EDF runs it at double speed.
  const bool seq = name == "seq-edf" || name == "ds-seq-edf";
  options.replication = seq ? 1 : 2;
  options.speed = name == "ds-seq-edf" ? 2 : 1;
  if (name == "dlru") return std::make_unique<DLruPolicy>();
  if (name == "edf" || seq) return std::make_unique<EdfPolicy>();
  if (name == "dlru-edf" || name == "distribute" || name == "varbatch") {
    return std::make_unique<DLruEdfPolicy>();
  }
  if (name == "adaptive") return std::make_unique<AdaptiveSplitPolicy>();
  throw InputError("unknown algorithm: " + name);
}

std::vector<std::unique_ptr<ArrivalSource>> make_reduction(
    const std::string& name, ArrivalSource& input) {
  std::vector<std::unique_ptr<ArrivalSource>> stages;
  if (name == "varbatch") {
    stages.push_back(std::make_unique<VarBatchSource>(input));
  }
  if (name == "varbatch" || name == "distribute") {
    stages.push_back(std::make_unique<DistributeSource>(
        stages.empty() ? input : *stages.back()));
  }
  return stages;
}

const std::vector<AlgorithmInfo>& algorithm_registry() {
  static const std::vector<AlgorithmInfo> registry = {
      {"dlru", "pure recency caching (Section 3.1.1; not competitive)"},
      {"edf", "pure deadline caching (Section 3.1.2; not competitive)"},
      {"dlru-edf",
       "combined recency + deadline caching (Section 3.1.3; Theorem 1)"},
      {"adaptive",
       "dLRU-EDF with an ARC-inspired self-tuning LRU/EDF split "
       "(extension; see algs/adaptive.h)"},
      {"seq-edf", "EDF with unreplicated full capacity (Section 3.3)"},
      {"ds-seq-edf", "double-speed Seq-EDF (Section 3.3)"},
      {"distribute",
       "batched -> rate-limited reduction over dLRU-EDF (Theorem 2)"},
      {"varbatch",
       "general -> batched -> rate-limited pipeline (Theorem 3); handles "
       "arbitrary delay bounds"},
  };
  return registry;
}

}  // namespace rrs
