// E12 — extension: flash-crowd reaction.
//
// The motivating applications reconfigure because demand COMPOSITION
// shifts; the sharpest version is a flash crowd (one service's demand
// multiplying for a bounded stretch).  Using the timeline module, this
// bench watches each algorithm live through a 20x spike: how much of the
// spike it serves, what it pays in reconfigurations to follow the shift,
// and how the background services fare while the spike holds.
#include <iostream>

#include "bench_common.h"
#include "sim/metrics.h"
#include "sim/runner.h"
#include "sim/timeline.h"
#include "workload/flash_crowd.h"

int main() {
  using namespace rrs;
  bench::banner("E12 (extension)",
                "flash crowd: following a 20x composition shift");

  FlashCrowdParams params;
  params.seed = 11;
  params.delta = 16;
  params.background_colors = 6;
  params.spike_factor = 20.0;
  params.spike_start = 1024;
  params.spike_end = 1536;
  params.horizon = 4096;
  const FlashCrowdInstance fc = make_flash_crowd(params);
  const Instance& inst = fc.instance;
  std::cout << "workload: " << inst.summary() << " (spike rounds "
            << params.spike_start << ".." << params.spike_end << ")\n\n";

  const int n = 8;
  TextTable table({"algorithm", "spike served %", "background served %",
                   "reconfig", "total cost"});
  CsvWriter csv({"algorithm", "spike_served", "background_served",
                 "reconfig", "total"});

  double pipeline_spike = 0.0, pipeline_background = 0.0;
  for (const std::string name : {"varbatch", "edf", "dlru"}) {
    Schedule schedule;
    const StreamRunRecord r = run_algorithm(inst, name, n, &schedule);
    const ScheduleMetrics m = compute_metrics(inst, schedule);

    const auto& spike = m.per_color[static_cast<std::size_t>(
        fc.spike_color)];
    const double spike_served =
        spike.jobs > 0 ? 100.0 * static_cast<double>(spike.executed) /
                             static_cast<double>(spike.jobs)
                       : 100.0;
    std::int64_t bg_jobs = 0, bg_executed = 0;
    for (const auto& pc : m.per_color) {
      if (pc.color == fc.spike_color) continue;
      bg_jobs += pc.jobs;
      bg_executed += pc.executed;
    }
    const double bg_served =
        bg_jobs > 0 ? 100.0 * static_cast<double>(bg_executed) /
                          static_cast<double>(bg_jobs)
                    : 100.0;
    if (name == "varbatch") {
      pipeline_spike = spike_served;
      pipeline_background = bg_served;
      // Archive the pipeline's timeline for plotting.
      bench::maybe_write_csv(
          timeline_csv(compute_timeline(inst, schedule, 128)),
          "e12_flash_crowd_timeline");
    }
    table.add_row({name, fmt_double(spike_served, 1),
                   fmt_double(bg_served, 1),
                   std::to_string(r.cost.reconfig_cost),
                   std::to_string(r.cost.total())});
    csv.add_row({name, fmt_double(spike_served, 1),
                 fmt_double(bg_served, 1),
                 std::to_string(r.cost.reconfig_cost),
                 std::to_string(r.cost.total())});
  }
  table.print(std::cout);
  bench::maybe_write_csv(csv, "e12_flash_crowd");

  std::cout << "\nThe spike is servable (20x of 0.2 jobs/round on 8 "
               "resources); an adaptive allocator must reassign capacity "
               "for ~500 rounds and hand it back.\n";
  bool ok = true;
  ok &= bench::verdict(pipeline_spike > 60.0,
                       "the pipeline serves the majority of the spike");
  ok &= bench::verdict(pipeline_background > 60.0,
                       "background services survive the spike");
  return ok ? 0 : 1;
}
