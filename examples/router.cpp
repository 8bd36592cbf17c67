// Example: multi-service router on programmable network processors.
//
// Models the paper's second motivating application: a software router
// whose processor cores are (re)programmed per packet class, where each
// class has a QoS delay tolerance (Kokku et al. [9] in the paper).  Packet
// classes range from latency-critical (voice) to elastic (bulk transfer);
// traffic composition shifts as flows start and stop.  The example builds
// the traffic mix by hand with InstanceBuilder — showing the API a user
// would drive with their own traces — and compares core counts and
// algorithms.
//
// Usage: router [seed]
#include <cstdlib>
#include <iostream>

#include "core/instance.h"
#include "core/validator.h"
#include "sim/runner.h"
#include "sim/table.h"
#include "util/rng.h"

namespace {

struct PacketClass {
  const char* name;
  rrs::Round delay_tolerance;  // rounds a packet may wait
  double base_rate;            // packets per round when a flow is up
};

}  // namespace

int main(int argc, char** argv) {
  using namespace rrs;
  const std::uint64_t seed =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 7;

  // A plausible edge-router mix; delay tolerances in scheduler rounds.
  const PacketClass classes[] = {
      {"voice", 4, 0.6},      {"video", 16, 1.0},
      {"gaming", 8, 0.4},     {"web", 64, 1.2},
      {"dns", 8, 0.2},        {"bulk", 1024, 1.5},
      {"telemetry", 256, 0.3},
  };
  const Round horizon = 4096;
  const Cost reprogram_cost = 24;  // microcode reload >> per-packet work

  Rng rng(seed);
  InstanceBuilder builder;
  builder.delta(reprogram_cost);
  std::vector<ColorId> colors;
  for (const PacketClass& pc : classes) {
    colors.push_back(builder.add_color(pc.delay_tolerance));
  }
  // Flows come and go: each class alternates up/down with geometric
  // residence times; while up, packets arrive at the class base rate.
  for (std::size_t c = 0; c < std::size(classes); ++c) {
    bool up = rng.bernoulli(0.7);
    Round left = rng.uniform(64, 512);
    for (Round t = 0; t < horizon; ++t) {
      if (--left <= 0) {
        up = !up;
        left = rng.uniform(64, 512);
      }
      const std::int64_t packets =
          rng.poisson(up ? classes[c].base_rate : 0.02);
      if (packets > 0) {
        builder.add_jobs(colors[c], t, packets);
      }
    }
  }
  const Instance inst = builder.build();
  std::cout << "router traffic: " << inst.summary() << "\n\n";

  std::cout << "--- packet classes ---\n";
  TextTable spec({"class", "delay tolerance", "packets"});
  for (std::size_t c = 0; c < std::size(classes); ++c) {
    spec.add_row({classes[c].name,
                  std::to_string(classes[c].delay_tolerance),
                  std::to_string(inst.jobs_of_color(colors[c]))});
  }
  spec.print(std::cout);

  std::cout << "\n--- cores x algorithm: total cost (reprogram + lost "
               "packets) ---\n";
  TextTable grid({"cores", "varbatch", "edf", "dlru"});
  for (const int cores : {4, 8, 16}) {
    std::vector<std::string> row{std::to_string(cores)};
    for (const std::string algorithm : {"varbatch", "edf", "dlru"}) {
      Schedule schedule;
      const StreamRunRecord r =
          run_algorithm(inst, algorithm, cores, &schedule);
      (void)validate_or_throw(inst, schedule);
      row.push_back(std::to_string(r.cost.total()) + " (" +
                    std::to_string(r.cost.drops) + " lost)");
    }
    grid.add_row(row);
  }
  grid.print(std::cout);

  // Loss rate per class for the pipeline at 8 cores.
  Schedule schedule;
  (void)run_algorithm(inst, "varbatch", 8, &schedule);
  std::vector<std::int64_t> served(std::size(classes), 0);
  for (const ExecEvent& e : schedule.execs) {
    ++served[static_cast<std::size_t>(
        inst.jobs()[static_cast<std::size_t>(e.job)].color)];
  }
  std::cout << "\n--- loss per class (varbatch, 8 cores) ---\n";
  TextTable loss({"class", "packets", "delivered", "loss %"});
  for (std::size_t c = 0; c < std::size(classes); ++c) {
    const std::int64_t total = inst.jobs_of_color(colors[c]);
    const double rate =
        total > 0 ? 100.0 * static_cast<double>(total - served[c]) /
                        static_cast<double>(total)
                  : 0.0;
    loss.add_row({classes[c].name, std::to_string(total),
                  std::to_string(served[c]), fmt_double(rate, 1)});
  }
  loss.print(std::cout);
  return 0;
}
