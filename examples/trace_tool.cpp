// Example: trace utility — generate, inspect, and schedule trace files.
//
// The CSV trace format (src/workload/trace_io.h) lets users archive
// workloads and feed their own.  This tool is the glue:
//
//   trace_tool gen <family> <seed> <out.csv>    families: batched, poisson,
//                                               datacenter
//   trace_tool info <trace.csv>
//   trace_tool run <trace.csv> <algorithm> <n>
//   trace_tool timeline <trace.csv> <algorithm> <n> <bucket> <out.csv>
//
// Exit status is nonzero on bad usage or invalid input.
#include <iostream>
#include <string>

#include "core/validator.h"
#include "sim/runner.h"
#include "sim/table.h"
#include "sim/timeline.h"
#include "workload/datacenter.h"
#include "workload/poisson.h"
#include "workload/random_batched.h"
#include "workload/trace_io.h"

namespace {

int usage() {
  std::cerr << "usage:\n"
               "  trace_tool gen <batched|poisson|datacenter> <seed> "
               "<out.csv>\n"
               "  trace_tool info <trace.csv>\n"
               "  trace_tool run <trace.csv> <algorithm> <n>\n"
               "  trace_tool timeline <trace.csv> <algorithm> <n> <bucket> "
               "<out.csv>\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rrs;
  if (argc < 2) return usage();
  const std::string command = argv[1];
  try {
    if (command == "gen" && argc == 5) {
      const std::string family = argv[2];
      const std::uint64_t seed = std::strtoull(argv[3], nullptr, 10);
      Instance inst;
      if (family == "batched") {
        RandomBatchedParams params;
        params.seed = seed;
        params.horizon = 1024;
        inst = make_random_batched(params);
      } else if (family == "poisson") {
        PoissonParams params;
        params.seed = seed;
        params.horizon = 1024;
        inst = make_poisson(params);
      } else if (family == "datacenter") {
        DatacenterParams params;
        params.seed = seed;
        params.horizon = 4096;
        inst = make_datacenter(params);
      } else {
        return usage();
      }
      write_trace_file(argv[4], inst);
      std::cout << "wrote " << argv[4] << ": " << inst.summary() << "\n";
      return 0;
    }
    if (command == "info" && argc == 3) {
      const Instance inst = read_trace_file(argv[2]);
      std::cout << inst.summary() << "\n\n";
      TextTable table({"color", "delay bound", "jobs"});
      for (ColorId c = 0; c < inst.num_colors(); ++c) {
        table.add_row({std::to_string(c),
                       std::to_string(inst.delay_bound(c)),
                       std::to_string(inst.jobs_of_color(c))});
      }
      table.print(std::cout);
      return 0;
    }
    if (command == "run" && argc == 5) {
      const Instance inst = read_trace_file(argv[2]);
      const int n = std::atoi(argv[4]);
      Schedule schedule;
      const StreamRunRecord r = run_algorithm(inst, argv[3], n, &schedule);
      const CostBreakdown cost = validate_or_throw(inst, schedule);
      std::cout << r.algorithm << " on " << inst.summary() << " with " << n
                << " resources:\n"
                << "  reconfigurations: " << cost.reconfig_events << " (cost "
                << cost.reconfig_cost << ")\n"
                << "  drops:            " << cost.drops << "\n"
                << "  total cost:       " << cost.total() << "\n"
                << "  wall time:        " << fmt_double(r.seconds * 1e3, 1)
                << " ms\n";
      return 0;
    }
    if (command == "timeline" && argc == 7) {
      const Instance inst = read_trace_file(argv[2]);
      const int n = std::atoi(argv[4]);
      const Round bucket = std::strtoll(argv[5], nullptr, 10);
      Schedule schedule;
      (void)run_algorithm(inst, argv[3], n, &schedule);
      (void)validate_or_throw(inst, schedule);
      timeline_csv(compute_timeline(inst, schedule, bucket))
          .write_file(argv[6]);
      std::cout << "wrote per-bucket timeline to " << argv[6] << "\n";
      return 0;
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return usage();
}
