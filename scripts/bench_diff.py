#!/usr/bin/env python3
"""Compare two bench JSON files family by family.

Usage:
    bench_diff.py BASELINE.json CANDIDATE.json [--budget-pct 30]

Two cell kinds are supported, distinguished per run record:

  * throughput cells — {"family": ..., "rounds_per_sec": ...}, the format
    bench_e9_throughput emits.  Higher is better; a family regresses when
    its candidate rounds/sec falls more than the budget below baseline.

  * interval cells — {"family": ..., "interval_lo": ..., "interval_hi":
    ...}, the format bench_e15_certified emits for certified brackets on
    the offline optimum (and on competitive ratios).  A *lower* upper end
    is better (a tighter certificate); a family regresses when the
    candidate's interval_hi rises more than the budget above baseline's,
    or when the candidate interval is wider than baseline's by more than
    the budget (a bracket that silently loosened).

Exits nonzero on any regression.  This is the repository's one bench
comparator: CI's perf-smoke gate runs it on the streaming bench's output,
and it works standalone on any two saved artifacts (e.g. the JSON
uploaded by two CI runs, or a before/after pair measured locally).

Families present in only one file also fail the verdict: a benchmark that
silently stopped running (or a baseline missing a committed cell) must
surface as a nonzero exit, not as a skipped row.  A family that changed
kind between the files fails the same way.  Retire or migrate a cell by
updating both files in the same change.
"""

from __future__ import annotations

import argparse
import json
import sys

Cell = tuple  # ("rps", value) | ("interval", lo, hi)


def load_runs(path: str) -> dict[str, Cell]:
    """family -> cell for every run record in the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        raise SystemExit(f"error: cannot read {path}: {err}") from err
    runs = doc.get("runs")
    if not isinstance(runs, list) or not runs:
        raise SystemExit(f"error: {path} has no runs")
    out: dict[str, Cell] = {}
    for run in runs:
        family = run.get("family")
        rps = run.get("rounds_per_sec")
        lo = run.get("interval_lo")
        hi = run.get("interval_hi")
        if isinstance(family, str) and isinstance(rps, (int, float)):
            out[family] = ("rps", float(rps))
        elif (
            isinstance(family, str)
            and isinstance(lo, (int, float))
            and isinstance(hi, (int, float))
            and float(lo) <= float(hi)
        ):
            out[family] = ("interval", float(lo), float(hi))
        else:
            raise SystemExit(f"error: malformed run record in {path}: {run}")
    return out


def diff_rps(base: Cell, cand: Cell, floor: float) -> tuple[str, str, bool]:
    ratio = cand[1] / base[1] if base[1] > 0 else float("inf")
    return f"{base[1]:.0f}", f"{cand[1]:.0f} ({ratio:.2f}x)", ratio < floor


def diff_interval(
    base: Cell, cand: Cell, ceiling: float
) -> tuple[str, str, bool]:
    _, base_lo, base_hi = base
    _, cand_lo, cand_hi = cand
    # Tightness regression: the certified upper end drifted up, or the
    # bracket width grew, beyond budget.  Zero baselines tolerate zero.
    hi_bad = cand_hi > (base_hi * ceiling if base_hi > 0 else 0)
    width_bad = (cand_hi - cand_lo) > max(
        (base_hi - base_lo) * ceiling, base_hi * (ceiling - 1.0)
    )
    return (
        f"[{base_lo:g}, {base_hi:g}]",
        f"[{cand_lo:g}, {cand_hi:g}]",
        hi_bad or width_bad,
    )


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Diff two bench JSON files and apply the regression "
        "budget (throughput and certified-interval cells)."
    )
    parser.add_argument("baseline", help="reference bench JSON")
    parser.add_argument("candidate", help="measured bench JSON")
    parser.add_argument(
        "--budget-pct",
        type=float,
        default=30.0,
        help="allowed regression per family, in percent (default: 30)",
    )
    args = parser.parse_args()

    baseline = load_runs(args.baseline)
    candidate = load_runs(args.candidate)
    floor = 1.0 - args.budget_pct / 100.0
    ceiling = 1.0 + args.budget_pct / 100.0

    width = max(len(f) for f in baseline | candidate)
    print(
        f"{'family':<{width}}  {'baseline':>16}  {'candidate':>24}  verdict"
    )
    regressions = 0
    missing = 0
    for family in sorted(baseline | candidate):
        base = baseline.get(family)
        cand = candidate.get(family)
        if base is None or cand is None:
            where = "baseline" if base is None else "candidate"
            missing += 1
            print(f"{family:<{width}}  MISSING from {where}")
            continue
        if base[0] != cand[0]:
            missing += 1
            print(f"{family:<{width}}  KIND MISMATCH ({base[0]} vs {cand[0]})")
            continue
        if base[0] == "rps":
            base_s, cand_s, regressed = diff_rps(base, cand, floor)
        else:
            base_s, cand_s, regressed = diff_interval(base, cand, ceiling)
        regressions += regressed
        verdict = (
            f"REGRESSION beyond {args.budget_pct:g}% budget"
            if regressed
            else "ok"
        )
        print(f"{family:<{width}}  {base_s:>16}  {cand_s:>24}  {verdict}")

    if regressions or missing:
        parts = []
        if regressions:
            parts.append(f"{regressions} family(ies) beyond budget")
        if missing:
            parts.append(f"{missing} family(ies) missing or mismatched")
        print(f"FAIL: {'; '.join(parts)}")
        return 1
    print("PASS: all families present and within budget")
    return 0


if __name__ == "__main__":
    sys.exit(main())
