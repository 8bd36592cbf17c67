#!/usr/bin/env python3
"""Repository benchmark: builds perfbench_run from source and runs one workload.

    python3 perfbench/run.py --workload dense-serial --seed 99 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seconds 30    # the three in turn

Prints human-readable lines, then as its last line one JSON object with the
keys correct, attempted, failed and metrics.  --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer metrics of the traced pass.

Other modes:
    --write-reference   re-record perfbench/reference.json (the committed
                        totals for the default and the held-out seed)
    --selftest          build and run the decorator transparency test
    --e9-anomalies      the interleaved measurement behind README.md's notes

The build goes to $CARGO_TARGET_DIR, or .bench_build, under the working
directory.  Workloads and metrics are described in perfbench/README.md.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
WORKLOADS = ("dense-serial", "matrix-sharded", "sparse-service")
DEFAULT_SEED = 99  # perfbench_run also runs the held-out seed 7 against reference.json
TIME_LIMIT_S = 170  # a run must end within 180 s

# Metric names and units come from the benchmark definition itself.
with open(HERE.parent / "BENCHMARK.json") as _spec:
    SPEC = json.load(_spec)
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build").resolve()


def build(target):
    """Configures (once) and builds `target`; returns the build directory."""
    if not (HERE.parent / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: library sources (src/) not found next to perfbench/")
    bdir = build_dir()
    if not (bdir / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(bdir), "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: cmake configure failed")
    cmd = ["cmake", "--build", str(bdir), "-j", "4", "--target", target]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")
    return bdir


def run_binary(bdir, extra, timeout):
    """Runs perfbench_run; returns (exit code, parsed JSON lines)."""
    cmd = [str(bdir / "perfbench_run"), "--scratch", str(bdir / "scratch")] + extra
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: perfbench_run exceeded %d s" % timeout)
    records = []
    for line in proc.stdout.splitlines():
        line = line.strip()
        if line.startswith("{"):
            records.append(json.loads(line))
    return proc.returncode, records


def median(values):
    return statistics.median(values) if values else 0.0


def field(sample, name):
    return sample["fields"].get(name, 0.0)


class Tally:
    """Operations attempted and failed; a failed run or check counts once."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def op(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)


def check_outputs(records, reference, seed, exit_code):
    tally = Tally()
    if exit_code != 0:
        tally.op(False, "perfbench_run exited with %d" % exit_code)
    groups = {}  # totals every run of a group must reproduce
    for rec in records:
        op = rec["op"]
        if op == "error":
            tally.op(False, "%s threw: %s" % (rec["during"], rec["what"]))
        elif op == "check":
            for c in rec["checks"]:
                tally.op(c["ok"], "%s: %s" % (c["name"], c["detail"]))
        elif op == "sample":
            kind, totals = rec["kind"], rec["totals"]
            if kind == "ref":
                want = reference.get(str(rec["seed"]))
                tally.op(want == totals, "reference totals differ for seed %d: %s != %s"
                         % (rec["seed"], totals, want))
                if rec["seed"] == seed:
                    groups.setdefault("main", totals)
            else:
                group = "serial" if kind.startswith("serial_") else "main"
                first = groups.setdefault(group, totals)
                tally.op(totals == first, "%s totals differ from the other runs: %s != %s"
                         % (kind, totals, first))
            for c in rec["checks"]:
                tally.op(c["ok"], "%s: %s" % (c["name"], c["detail"]))
    return tally


def end_to_end(records):
    runs = [r for r in records if r["op"] == "sample" and r["kind"] == "run"]
    setup = [s for r in records if r["op"] == "setup" for s in r["seconds"]]
    if not runs or not setup:
        sys.exit("perfbench: the run produced no measurements")
    return {
        "rounds_per_s": median([r["totals"]["rounds"] / r["seconds"] for r in runs]),
        "setup_s": median(setup),
        "peak_rss_mb": median([field(r, "peak_rss_mb") for r in runs]),
    }


def per_layer(records, workload):
    samples = [r for r in records if r["op"] == "sample" and r["kind"] != "ref"]
    by_kind = {}
    for s in samples:
        by_kind.setdefault(s["kind"], []).append(s)
    runs = by_kind.get("run", [])
    traced = by_kind.get("traced", [])
    if not runs or not traced:
        sys.exit("perfbench: the traced pass produced no samples")
    # Core and algs come from the engine-level traced run: the workload's
    # own traced twin, or on matrix-sharded the K = 1 twin.
    engine = by_kind.get("serial_traced", traced)
    hist = next((r for r in records if r["op"] == "hist"), {"p50": 0.0, "p99": 0.0})

    def total(name, rows=engine):
        return sum(field(s, name) for s in rows)

    rounds = sum(s["totals"]["rounds"] for s in engine)
    wall, pulls = total("wall_ns"), total("pulls")
    pull, scan, policy = total("pull_ns"), total("scan_ns"), total("policy_ns")
    scanned = total("scanned_rounds")
    m = dict.fromkeys(PER_LAYER, 0.0)
    m["workload.pull_ns_per_round"] = pull / pulls
    m["workload.scan_ns_per_round"] = scan / scanned if scanned else 0.0
    m["workload.jobs_per_round"] = total("jobs") / rounds
    m["workload.share"] = (pull + scan) / wall
    m["algs.on_round_ns_p50"] = hist["p50"]
    m["algs.on_round_ns_p99"] = hist["p99"]
    m["algs.share"] = policy / wall
    m["algs.reconfigs_per_kround"] = 1000.0 * sum(
        s["totals"]["reconfig_events"] for s in engine) / rounds
    m["core.self_ns_per_visited_round"] = (
        wall - pull - scan - policy - total("ckpt_ns")) / pulls
    m["core.visited_round_frac"] = pulls / rounds
    m["core.peak_pending"] = runs[0]["totals"]["peak_pending"]
    m["core.churn_events"] = median([field(s, "churn_events") for s in runs])
    m["sim.cpu_ns_per_round"] = median(
        [1e9 * s["cpu_seconds"] / s["totals"]["rounds"] for s in runs])
    m["sim.cpu_per_wall"] = median([s["cpu_seconds"] / s["seconds"] for s in runs])
    m["trace.overhead"] = (median([s["totals"]["rounds"] / s["seconds"] for s in runs])
                           / median([s["totals"]["rounds"] / s["seconds"] for s in traced]))

    if workload == "matrix-sharded":
        m["sim.shard_imbalance"] = median([field(s, "shard_imbalance") for s in runs])
        m["sim.fabric_chunks"] = median([field(s, "fabric_chunks") for s in runs])
        m["sim.fabric_peak_chunks"] = median([field(s, "fabric_peak_chunks") for s in runs])
        m["sim.demux_pull_ns_per_round"] = (total("demux_pull_ns", traced)
                                            / total("demux_pulls", traced))
    if workload == "sparse-service":
        m["core.checkpoint_ms_p50"] = median([field(s, "ckpt_ms_p50") for s in traced])
        m["core.checkpoint_ms_max"] = max(field(s, "ckpt_ms_max") for s in traced)
        m["core.checkpoint_kb"] = median([field(s, "ckpt_kb") for s in traced])
        m["core.restore_ms"] = median([field(s, "restore_ms") for s in traced])
        for phase in ("churn", "drop", "arrival", "policy", "exec"):
            m["obs.phase_ns_per_round." + phase] = median(
                [1e9 * field(s, "phase_s." + phase) / s["totals"]["rounds"] for s in runs])
        m["obs.unattributed_frac"] = median(
            [1.0 - field(s, "attributed_s") / s["seconds"] for s in runs])
        m["obs.snapshots"] = field(runs[0], "snapshots")
        # Pairs from the same cycle ran back to back, in alternating order.
        cycles = {}
        for s in samples:
            cycles.setdefault(s["cycle"], {})[s["kind"]] = s["seconds"]
        overhead = [c["obs_on"] / c["obs_off"] for c in cycles.values()
                    if "obs_on" in c and "obs_off" in c]
        service = [c["run"] / c["obs_on"] for c in cycles.values()
                   if "run" in c and "obs_on" in c]
        m["obs.overhead"] = median(overhead)
        if len(overhead) >= 2:
            q1, _, q3 = statistics.quantiles(overhead, n=4)
            m["obs.overhead_iqr"] = q3 - q1
        m["sim.service_overhead"] = median(service)
    return m


def report(workload, seed, trace, records, tally, metrics, units):
    ctx = next((r for r in records if r["op"] == "context"), {})
    print("perfbench %s seed=%d trace=%d  nproc=%s pool=%s compiler=%s build=%s"
          % (workload, seed, trace, ctx.get("nproc"), ctx.get("pool"),
             ctx.get("compiler"), ctx.get("build_type")))
    run = next(r for r in records if r["op"] == "sample" and r["kind"] != "ref")
    print("  input size: %d rounds, %d jobs per repetition"
          % (run["totals"]["rounds"], run["totals"]["arrived"]))
    for name, value in metrics.items():
        print("  %-34s %16.6g %s" % (name, value, units[name]))
    error_rate = tally.failed / tally.attempted if tally.attempted else 1.0
    print("  %-34s %16.6g %s  (%d of %d operations failed)"
          % ("error_rate", error_rate, "fraction", tally.failed, tally.attempted))
    for problem in tally.problems:
        print("  FAILED: " + problem)


def load_reference():
    if not REFERENCE.is_file():
        return {}
    with open(REFERENCE) as f:
        return json.load(f)


def benchmark(args, workload):
    started = time.monotonic()
    bdir = build("perfbench_run")
    budget = TIME_LIMIT_S - (time.monotonic() - started)
    code, records = run_binary(bdir, [
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace)], budget)
    shutil.rmtree(bdir / "scratch", ignore_errors=True)
    if not any(r["op"] == "sample" for r in records):
        for r in records:
            log(json.dumps(r))
        sys.exit("perfbench: perfbench_run produced no runs (exit %d)" % code)
    tally = check_outputs(records, load_reference().get(workload, {}), args.seed, code)
    if args.trace:
        metrics, units = per_layer(records, workload), PER_LAYER
    else:
        metrics, units = end_to_end(records), END_TO_END
    report(workload, args.seed, args.trace, records, tally, metrics, units)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))


def write_reference():
    bdir = build("perfbench_run")
    reference = {}
    for workload in WORKLOADS:
        code, records = run_binary(bdir, ["--workload", workload, "--seconds", "0.001"],
                                   TIME_LIMIT_S)
        if code != 0 or any(r["op"] == "error" for r in records):
            sys.exit("perfbench: %s failed while recording the reference" % workload)
        reference[workload] = {str(r["seed"]): r["totals"] for r in records
                               if r["op"] == "sample" and r["kind"] == "ref"}
    with open(REFERENCE, "w") as f:
        json.dump(reference, f, indent=2, sort_keys=True)
        f.write("\n")
    print("wrote", REFERENCE)


def selftest():
    bdir = build("perfbench_test")
    sys.exit(subprocess.run([str(bdir / "perfbench_test")]).returncode)


def e9_anomalies(seconds):
    bdir = build("perfbench_run")
    code, records = run_binary(bdir, ["--e9-anomalies", "--seconds", str(seconds)],
                               seconds + TIME_LIMIT_S)
    cycles = {}
    for r in records:
        if r["op"] == "anomaly_median":
            print("  %-22s runs=%-3d median %9.0f rounds/s  (min %.0f, max %.0f)"
                  % (r["cell"], r["runs"], r["median"], r["min"], r["max"]))
        elif r["op"] == "anomaly_sample":
            cycles.setdefault(r["cycle"], {})[r["cell"]] = r["rounds_per_s"]
    # E9's two comparisons, per cycle: each cell timed alone against the
    # serial cell timed inside the three-cell sweep.
    for cell in ("shards1-n16-alone", "obs-n8-alone"):
        for base in ("serial-n8-in-sweep3", "serial-n8-alone"):
            ratios = [c[cell] / c[base] for c in cycles.values() if cell in c and base in c]
            if ratios:
                print("  %s / %s: median %.3f, max %.3f, above 1 in %d of %d cycles"
                      % (cell, base, statistics.median(ratios), max(ratios),
                         sum(x > 1 for x in ratios), len(ratios)))
    sys.exit(code)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        help="one workload, or all three one after another")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--e9-anomalies", action="store_true")
    args = parser.parse_args()
    if args.write_reference:
        write_reference()
    elif args.selftest:
        selftest()
    elif args.e9_anomalies:
        e9_anomalies(args.seconds)
    elif args.workload == "all":
        for workload in WORKLOADS:
            benchmark(args, workload)
    elif args.workload:
        benchmark(args, args.workload)
    else:
        parser.error("--workload is required")


if __name__ == "__main__":
    main()
