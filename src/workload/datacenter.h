// Shared-datacenter workload: services with shifting demand phases.
//
// The applications motivating the paper (shared data centers, multi-service
// routers) see workload *composition* change over time: a service is hot
// for a stretch, then cold while others take over.  This generator models
// each service (color) as an on/off phase process — exponential-ish phase
// lengths, service-specific delay bounds and intensities — so resource
// allocations must follow the demand mix, exactly the regime where
// reconfiguration-vs-drop tradeoffs bite.
//
// DatacenterSource streams the workload lazily (one round at a time,
// per-service RNG streams and phase state); make_datacenter materializes
// it.
#pragma once

#include <cstdint>
#include <vector>

#include "core/instance.h"
#include "workload/generator_source.h"

namespace rrs {

/// One service class in the datacenter mix.
struct ServiceSpec {
  Round delay_bound = 64;     ///< QoS delay tolerance of this service
  Cost drop_cost = 1;         ///< value lost per dropped job (weighted ext.)
  double hot_rate = 0.8;      ///< mean jobs/round while hot
  double cold_rate = 0.02;    ///< mean jobs/round while cold
  Round mean_hot_length = 256;   ///< mean hot-phase length (rounds)
  Round mean_cold_length = 768;  ///< mean cold-phase length (rounds)
};

/// Parameters of the datacenter generator.
struct DatacenterParams {
  Cost delta = 32;
  std::vector<ServiceSpec> services;  ///< empty = default 8-service mix
  /// Arrival-carrying rounds; kInfiniteHorizon streams forever.
  Round horizon = 8192;
  std::uint64_t seed = 1;
};

/// A default heterogeneous 8-service mix (web, API, batch, analytics, ...).
[[nodiscard]] std::vector<ServiceSpec> default_service_mix();

/// Lazy streaming datacenter workload: per-service on/off phase processes
/// advanced one round at a time.  Per-color decomposable (each service's
/// phase walk lives entirely in its own stream), so it supports
/// shard-native views via clone()/restrict_to().
class DatacenterSource final : public GeneratorSource {
 public:
  explicit DatacenterSource(const DatacenterParams& params);

  [[nodiscard]] std::unique_ptr<GeneratorSource> clone() const override;

 private:
  struct ServiceState {
    Rng stream;          // the service's private RNG stream
    bool hot = false;
    Round phase_left = 0;
  };
  /// A service's two arrival rates.
  struct Rates {
    PoissonMean hot;
    PoissonMean cold;
  };

  void synthesize_color(ColorId color, Round k) override;
  [[nodiscard]] static Round geometric(Rng& rng, Round mean);

  /// Mutable generation state: each service's RNG stream plus its on/off
  /// phase machine (hot flag, rounds left in the phase).
  void checkpoint_extra(CheckpointWriter& w) const override {
    w.u64(state_.size());
    for (const ServiceState& s : state_) {
      checkpoint_rng(w, s.stream);
      w.boolean(s.hot);
      w.i64(s.phase_left);
    }
  }
  void restore_extra(CheckpointReader& r) override {
    RRS_REQUIRE(r.u64() == state_.size(),
                "checkpoint service-state count mismatch");
    for (ServiceState& s : state_) {
      restore_rng(r, s.stream);
      s.hot = r.boolean();
      s.phase_left = r.i64();
    }
  }

  DatacenterParams params_;  // kept verbatim for clone()
  std::vector<ServiceSpec> services_;
  std::vector<Rates> rates_;
  std::vector<ServiceState> state_;
};

/// Builds the (unbatched) datacenter instance (materializes the streaming
/// source; params.horizon must be finite).
[[nodiscard]] Instance make_datacenter(const DatacenterParams& params);

}  // namespace rrs
