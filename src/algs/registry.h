// Name-based access to every runnable algorithm, for examples and benches.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/instance.h"
#include "core/policy.h"

namespace rrs {

/// An entry in the algorithm registry.
struct AlgorithmInfo {
  std::string name;
  std::string description;
  /// Runs the algorithm on an instance with n resources.  `record`
  /// controls schedule recording.  A reduction pipeline returns its inner
  /// dLRU-EDF run with `cost` and `schedule` replaced by the ones mapped
  /// back onto the instance.
  std::function<EngineResult(const Instance&, int n, bool record)> run;
};

/// All registered algorithms: dlru, edf, dlru-edf, adaptive, seq-edf,
/// ds-seq-edf, distribute, varbatch.
[[nodiscard]] const std::vector<AlgorithmInfo>& algorithm_registry();

/// Looks up an algorithm by name; throws InputError if unknown.
[[nodiscard]] const AlgorithmInfo& find_algorithm(const std::string& name);

/// Creates a fresh policy for the engine-driven algorithm `name` ("dlru",
/// "edf", "dlru-edf", "adaptive", "seq-edf", "ds-seq-edf") and sets the
/// replication and speed it runs with in `options`: the Section 3 schemes
/// replicate each color twice, Seq-EDF runs EDF unreplicated, and
/// DS-Seq-EDF does so at speed 2.  Throws InputError on other names.
[[nodiscard]] std::unique_ptr<Policy> make_stream_policy(
    const std::string& name, EngineOptions& options);

}  // namespace rrs
