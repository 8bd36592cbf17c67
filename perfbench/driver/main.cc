// perfbench_run: runs one benchmark workload and prints one JSON object per
// line, one per operation (set-up samples, runs, checks, errors).  The
// Python driver perfbench/run.py builds this binary, compares the totals
// against the committed reference and turns the lines into metrics.
//
//   perfbench_run --workload dense-serial --seed 99 --seconds 15 --trace 0
//                 --scratch .bench_build/scratch
//   perfbench_run --e9-anomalies --seconds 60
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>
#include <malloc.h>
#include <sched.h>

#include "driver/timing.h"
#include "driver/workloads.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace {

using perfbench::Check;
using perfbench::Clock;
using perfbench::Sample;

std::string quote(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string checks_json(const std::vector<Check>& checks) {
  std::string out = "[";
  for (std::size_t i = 0; i < checks.size(); ++i) {
    if (i > 0) out += ",";
    out += "{\"name\":" + quote(checks[i].name) +
           ",\"ok\":" + (checks[i].ok ? "true" : "false") +
           ",\"detail\":" + quote(checks[i].detail) + "}";
  }
  return out + "]";
}

void emit_sample(const Sample& s, std::uint64_t seed, int cycle) {
  const perfbench::Totals& t = s.totals;
  std::string line = "{\"op\":\"sample\",\"kind\":" + quote(s.kind) +
                     ",\"seed\":" + std::to_string(seed) +
                     ",\"cycle\":" + std::to_string(cycle) +
                     ",\"seconds\":" + num(s.seconds) +
                     ",\"cpu_seconds\":" + num(s.cpu_seconds) +
                     ",\"totals\":{\"reconfig_events\":" +
                     std::to_string(t.cost.reconfig_events) +
                     ",\"reconfig_cost\":" + std::to_string(t.cost.reconfig_cost) +
                     ",\"drops\":" + std::to_string(t.cost.drops) +
                     ",\"churn_reconfigs\":" +
                     std::to_string(t.cost.churn_reconfigs) +
                     ",\"arrived\":" + std::to_string(t.arrived) +
                     ",\"executed\":" + std::to_string(t.executed) +
                     ",\"rounds\":" + std::to_string(t.rounds) +
                     ",\"peak_pending\":" + std::to_string(t.peak_pending) +
                     "},\"fields\":{";
  for (std::size_t i = 0; i < s.fields.size(); ++i) {
    if (i > 0) line += ",";
    line += quote(s.fields[i].first) + ":" + num(s.fields[i].second);
  }
  line += "},\"checks\":" + checks_json(s.checks) + "}";
  std::cout << line << '\n';
}

void emit_error(std::string_view during, std::string_view what) {
  std::cout << "{\"op\":\"error\",\"during\":" << quote(during)
            << ",\"what\":" << quote(what) << "}\n";
}

/// Runs `fn`, reporting any exception as a failed operation.
template <class Fn>
bool guarded(std::string_view during, Fn&& fn) {
  try {
    fn();
    return true;
  } catch (const std::exception& e) {
    emit_error(during, e.what());
    return false;
  }
}

constexpr int kSetupsPerBatch = 16;

/// Right after a peak reset VmHWM may read a little above VmRSS: the
/// kernel's RSS counters are batched per CPU, and the status read itself
/// touches pages (about 80 kB measured on Linux 6.x).
constexpr double kRssResetSlackKb = 1024.0;

/// The default and the held-out seed: the keys of perfbench/reference.json.
constexpr std::uint64_t kReferenceSeeds[] = {99, 7};

struct Args {
  std::string workload;
  std::uint64_t seed = 99;
  double seconds = 10.0;
  bool trace = false;
  std::string scratch = ".bench_build/scratch";
  bool e9_anomalies = false;
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    const auto value = [&]() -> std::string {
      RRS_REQUIRE(i + 1 < argc, flag << " needs a value");
      return argv[++i];
    };
    if (flag == "--workload") {
      args.workload = value();
    } else if (flag == "--seed") {
      args.seed = std::stoull(value());
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value());
    } else if (flag == "--trace") {
      args.trace = value() != "0";
    } else if (flag == "--scratch") {
      args.scratch = value();
    } else if (flag == "--e9-anomalies") {
      args.e9_anomalies = true;
    } else {
      RRS_REQUIRE(false, "unknown flag " << flag);
    }
  }
  RRS_REQUIRE(args.seconds > 0, "--seconds must be positive");
  return args;
}

/// The VmHWM (peak) and VmRSS (current) lines of /proc/self/status, in kB.
std::pair<double, double> hwm_and_rss_kb() {
  double hwm = -1.0;
  double rss = -1.0;
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) hwm = std::stod(line.substr(6));
    if (line.rfind("VmRSS:", 0) == 0) rss = std::stod(line.substr(6));
  }
  RRS_REQUIRE(hwm >= 0 && rss >= 0,
              "no VmHWM/VmRSS lines in /proc/self/status");
  return {hwm, rss};
}

/// Starts a fresh peak-RSS window: hands freed heap back to the system and
/// resets VmHWM to the current RSS (Linux 4.0 and later).  Throws when the
/// reset did not take, since every later peak would then be cumulative.
void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5" << std::flush;
  RRS_REQUIRE(clear.good(), "cannot write /proc/self/clear_refs; peak RSS "
                            "would carry over between repetitions");
  const auto [hwm, rss] = hwm_and_rss_kb();
  RRS_REQUIRE(hwm <= rss + kRssResetSlackKb,
              "VmHWM " << hwm << " kB still above VmRSS " << rss
                       << " kB after resetting the peak");
}

/// Peak resident set in MiB since the last reset_peak_rss().  VmHWM, not
/// getrusage's ru_maxrss: Linux carries ru_maxrss across execve, so it
/// would report the launching process's peak when that was larger.
double peak_rss_mb() { return hwm_and_rss_kb().first / 1024.0; }

/// The CPUs this process may run on.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  RRS_REQUIRE(sched_getaffinity(0, sizeof set, &set) == 0,
              "sched_getaffinity failed");
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  RRS_REQUIRE(!cpus.empty(), "no CPU in the affinity mask");
  return cpus;
}

/// Pins the calling thread to `cpu`.  Threads it starts inherit the pin.
void pin_to(int cpu) {
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  RRS_REQUIRE(sched_setaffinity(0, sizeof one, &one) == 0,
              "cannot pin the run to CPU " << cpu);
}

int run(const Args& args) {
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  std::cout << "{\"op\":\"context\",\"workload\":" << quote(args.workload)
            << ",\"seed\":" << args.seed << ",\"trace\":" << args.trace
            << ",\"nproc\":" << std::thread::hardware_concurrency()
            << ",\"pool\":" << rrs::global_pool().size()
            << ",\"compiler\":" << quote(PERFBENCH_COMPILER)
            << ",\"build_type\":" << quote(build_type) << "}\n";
  if (build_type != "Release") {
    emit_error("context", "refusing to time a " + build_type +
                              " build; configure with "
                              "-DCMAKE_BUILD_TYPE=Release");
    return 2;
  }
  if (args.e9_anomalies) {
    perfbench::run_e9_anomalies(args.seconds);
    return 0;
  }

  const std::filesystem::path scratch(args.scratch);
  std::filesystem::create_directories(scratch);
  const std::unique_ptr<perfbench::Workload> workload =
      perfbench::make_workload(args.workload, scratch);

  // Set-up time: a batch before the runs and one after every cycle, so the
  // median spans the same host states as the timed runs do.
  const auto setup_batch = [&] {
    std::string line = "{\"op\":\"setup\",\"seconds\":[";
    for (int i = 0; i < kSetupsPerBatch; ++i) {
      const std::int64_t ns = workload->setup_once(args.seed);
      if (i > 0) line += ',';
      line += num(static_cast<double>(ns) * 1e-9);
    }
    std::cout << line << "]}\n";
  };
  if (!guarded("setup", setup_batch)) return 1;

  // Reference seeds first: their totals are checked against the committed
  // reference, and the runs double as the warm-up.
  for (const std::uint64_t seed : kReferenceSeeds) {
    guarded("ref", [&] {
      Sample s = workload->run(seed);
      s.kind = "ref";
      emit_sample(s, seed, -1);
    });
  }

  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(args.seconds));
  perfbench::LogHistogram policy_ns;
  const std::vector<int> cpus = allowed_cpus();
  for (int cycle = 0; cycle < 3 || Clock::now() < deadline; ++cycle) {
    const bool ok = guarded(args.trace ? "trace_cycle" : "run", [&] {
      // The host's CPUs change speed independently, for seconds at a time,
      // and a lone thread tends to stay on one of them; moving it to the
      // next CPU every cycle makes each run sample all of them.
      if (workload->single_threaded()) {
        pin_to(cpus[static_cast<std::size_t>(cycle) % cpus.size()]);
      }
      if (args.trace) {
        for (const Sample& s :
             workload->trace_cycle(args.seed, cycle, policy_ns)) {
          emit_sample(s, args.seed, cycle);
        }
      } else {
        // Each run gets its own peak-RSS window, so one run's allocator
        // state does not set every later run's peak.
        reset_peak_rss();
        Sample s = workload->run(args.seed);
        s.fields.emplace_back("peak_rss_mb", peak_rss_mb());
        emit_sample(s, args.seed, cycle);
      }
      setup_batch();
    });
    if (!ok) break;
  }
  if (args.trace) {
    std::cout << "{\"op\":\"hist\",\"count\":" << policy_ns.count()
              << ",\"p50\":" << num(policy_ns.quantile(0.50))
              << ",\"p99\":" << num(policy_ns.quantile(0.99)) << "}\n";
  }

  guarded("checks", [&] {
    for (const Check& c : workload->checks(args.seed)) {
      std::cout << "{\"op\":\"check\",\"checks\":" << checks_json({c})
                << "}\n";
    }
  });
  std::filesystem::remove_all(scratch);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const int code = run(parse_args(argc, argv));
    std::cout.flush();
    return code;
  } catch (const std::exception& e) {
    emit_error("main", e.what());
    std::cout.flush();
    return 1;
  }
}
