// Name-based access to every runnable algorithm, for examples and benches.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/arrival_source.h"
#include "core/engine.h"
#include "core/policy.h"

namespace rrs {

/// An entry in the algorithm registry.
struct AlgorithmInfo {
  std::string name;
  std::string description;
};

/// All registered algorithms: dlru, edf, dlru-edf, adaptive, seq-edf,
/// ds-seq-edf, distribute, varbatch.
[[nodiscard]] const std::vector<AlgorithmInfo>& algorithm_registry();

/// Creates a fresh policy for the registered algorithm `name` and sets the
/// replication and speed it runs with in `options`: the Section 3 schemes
/// replicate each color twice, Seq-EDF runs EDF unreplicated, and
/// DS-Seq-EDF does so at speed 2.  The reductions ("distribute",
/// "varbatch") run dLRU-EDF over their adapters (make_reduction).  Throws
/// InputError on other names.
[[nodiscard]] std::unique_ptr<Policy> make_stream_policy(
    const std::string& name, EngineOptions& options);

/// The adapters the algorithm `name` stacks over `input`, input side
/// first, for its policy to pull the last: a DistributeSource for
/// "distribute", a VarBatchSource under one for "varbatch", none for the
/// others.  Throws InputError when `input` states no batch bound.
[[nodiscard]] std::vector<std::unique_ptr<ArrivalSource>> make_reduction(
    const std::string& name, ArrivalSource& input);

}  // namespace rrs
