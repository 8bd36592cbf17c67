#include "workload/datacenter.h"

#include <string>

#include "util/check.h"
#include "util/rng.h"

namespace rrs {

std::vector<ServiceSpec> default_service_mix() {
  // Loosely modeled on a shared hosting mix: latency-sensitive frontends,
  // mid-tier APIs, and slack-rich batch/analytics tiers.
  // Drop costs follow business value: interactive tiers lose the most per
  // missed job, background tiers the least (weighted extension; all-1 in
  // the paper's unit-cost reading).
  return {
      {.delay_bound = 8, .drop_cost = 8, .hot_rate = 1.2, .cold_rate = 0.05,
       .mean_hot_length = 128, .mean_cold_length = 384},   // web frontend A
      {.delay_bound = 8, .drop_cost = 8, .hot_rate = 1.0, .cold_rate = 0.05,
       .mean_hot_length = 192, .mean_cold_length = 320},   // web frontend B
      {.delay_bound = 32, .drop_cost = 4, .hot_rate = 0.8, .cold_rate = 0.1,
       .mean_hot_length = 256, .mean_cold_length = 256},   // API tier A
      {.delay_bound = 32, .drop_cost = 4, .hot_rate = 0.6, .cold_rate = 0.1,
       .mean_hot_length = 320, .mean_cold_length = 448},   // API tier B
      {.delay_bound = 128, .drop_cost = 2, .hot_rate = 0.5, .cold_rate = 0.2,
       .mean_hot_length = 512, .mean_cold_length = 512},   // media encode
      {.delay_bound = 512, .drop_cost = 1, .hot_rate = 0.4, .cold_rate = 0.2,
       .mean_hot_length = 768, .mean_cold_length = 512},   // batch ETL
      {.delay_bound = 2048, .drop_cost = 1, .hot_rate = 0.3,
       .cold_rate = 0.25, .mean_hot_length = 1024,
       .mean_cold_length = 1024},                           // analytics
      {.delay_bound = 4096, .drop_cost = 1, .hot_rate = 0.25,
       .cold_rate = 0.25, .mean_hot_length = 2048,
       .mean_cold_length = 1024},                           // backup/repl
  };
}

// Geometric phase lengths approximate exponential on/off processes and
// keep the generator integer-only.
Round DatacenterSource::geometric(Rng& rng, Round mean) {
  RRS_REQUIRE(mean >= 1, "phase mean must be >= 1");
  const double p = 1.0 / static_cast<double>(mean);
  Round length = 1;
  while (!rng.bernoulli(p)) ++length;
  return length;
}

DatacenterSource::DatacenterSource(const DatacenterParams& params)
    : GeneratorSource(params.delta, params.horizon),
      params_(params),
      services_(params.services.empty() ? default_service_mix()
                                        : params.services) {
  state_.reserve(services_.size());
  for (std::size_t c = 0; c < services_.size(); ++c) {
    const ServiceSpec& s = services_[c];
    add_color(s.delay_bound, s.drop_cost);
    const std::string name = "services[" + std::to_string(c) + "]";
    rates_.push_back({poisson_mean(s.hot_rate, name + ".hot_rate"),
                      poisson_mean(s.cold_rate, name + ".cold_rate")});
    ServiceState st{derive_rng(params.seed, c), false, 0};
    st.hot = st.stream.bernoulli(0.5);
    st.phase_left = geometric(st.stream, st.hot ? s.mean_hot_length
                                                : s.mean_cold_length);
    state_.push_back(st);
  }
}

std::unique_ptr<GeneratorSource> DatacenterSource::clone() const {
  return std::make_unique<DatacenterSource>(params_);
}

void DatacenterSource::synthesize_color(ColorId color, Round k) {
  const auto c = static_cast<std::size_t>(color);
  const ServiceSpec& s = services_[c];
  ServiceState& st = state_[c];
  if (st.phase_left == 0) {
    st.hot = !st.hot;
    st.phase_left = geometric(st.stream, st.hot ? s.mean_hot_length
                                                : s.mean_cold_length);
  }
  --st.phase_left;
  const std::int64_t count =
      st.stream.poisson(st.hot ? rates_[c].hot : rates_[c].cold);
  if (count > 0) emit(color, k, count);
}

Instance make_datacenter(const DatacenterParams& params) {
  RRS_REQUIRE(params.horizon >= 1,
              "materializing needs a finite horizon >= 1");
  DatacenterSource source(params);
  return materialize(source);
}

}  // namespace rrs
