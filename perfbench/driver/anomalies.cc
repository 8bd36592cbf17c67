// The measurement behind perfbench/README.md's notes on E9's streaming
// anomalies.  E9 times its three serial cells concurrently
// (run_streaming_sweep over the pool) but its shards1 and -obs cells
// alone; this interleaves every cell type, one after another, so each
// configuration sees the same host state, and prints one JSON line per
// run plus the per-cell medians.
#include <algorithm>
#include <functional>
#include <iostream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "driver/timing.h"
#include "driver/workloads.h"
#include "obs/observer.h"
#include "sim/sweep.h"
#include "workload/poisson.h"
#include "workload/random_batched.h"

namespace perfbench {

namespace {

constexpr rrs::Round kRounds = 1'000'000;

rrs::RandomBatchedParams random_batched() {
  rrs::RandomBatchedParams p;
  p.seed = 99;
  p.num_colors = 32;
  p.horizon = rrs::kInfiniteHorizon;
  return p;
}

double rps(const rrs::StreamRunRecord& r) {
  return static_cast<double>(r.rounds) / r.seconds;
}

}  // namespace

void run_e9_anomalies(double seconds) {
  const auto serial = [](int n, rrs::Observer* observer) {
    rrs::RandomBatchedSource source(random_batched());
    return rps(rrs::run_streaming(source, "dlru-edf", n, kRounds, nullptr,
                                  false, observer));
  };
  const std::vector<std::pair<std::string, std::function<double()>>> cells = {
      {"serial-n8-alone", [&] { return serial(8, nullptr); }},
      {"serial-n8-in-sweep3",
       [] {
         // E9's serial section: three cells at once over the pool.
         std::vector<std::function<rrs::StreamRunRecord()>> sweep;
         sweep.emplace_back([] {
           rrs::RandomBatchedSource source(random_batched());
           return rrs::run_streaming(source, "dlru-edf", 8, kRounds);
         });
         sweep.emplace_back([] {
           rrs::PoissonParams p;
           p.seed = 99;
           p.num_colors = 32;
           p.horizon = rrs::kInfiniteHorizon;
           rrs::PoissonSource source(p);
           return rrs::run_streaming(source, "dlru-edf", 8, kRounds);
         });
         sweep.emplace_back([] {
           GeneralizedBatchedSource source(rrs::kInfiniteHorizon, 99);
           return rrs::run_streaming(source, "dlru-edf", 8, kRounds);
         });
         return rps(rrs::run_streaming_sweep(sweep)[0]);
       }},
      {"obs-n8-alone",
       [&] {
         rrs::ObsConfig config;
         config.timers = true;
         config.snapshot_every = kRounds / 8;
         rrs::Observer observer(config);
         return serial(8, &observer);
       }},
      {"serial-n16-alone", [&] { return serial(16, nullptr); }},
      {"shards1-n16-alone",
       [] {
         rrs::RandomBatchedSource source(random_batched());
         return rps(
             rrs::run_streaming_sharded(source, "dlru-edf", 16, 1, kRounds)
                 .merged);
       }},
  };

  std::map<std::string, std::vector<double>> samples;
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  for (int cycle = 0; cycle < 3 || Clock::now() < deadline; ++cycle) {
    // Rotate the start so no cell always follows the same neighbour.
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const auto& [name, run] =
          cells[(i + static_cast<std::size_t>(cycle)) % cells.size()];
      const double value = run();
      samples[name].push_back(value);
      std::cout << "{\"op\":\"anomaly_sample\",\"cell\":\"" << name
                << "\",\"cycle\":" << cycle << ",\"rounds_per_s\":" << value
                << "}\n";
    }
  }
  for (auto& [name, values] : samples) {
    std::sort(values.begin(), values.end());
    std::cout << "{\"op\":\"anomaly_median\",\"cell\":\"" << name
              << "\",\"runs\":" << values.size()
              << ",\"min\":" << values.front()
              << ",\"median\":" << values[values.size() / 2]
              << ",\"max\":" << values.back() << "}\n";
  }
}

}  // namespace perfbench
