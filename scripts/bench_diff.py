#!/usr/bin/env python3
"""Compare two certified-interval bench JSON files family by family.

Usage:
    bench_diff.py BASELINE.json CANDIDATE.json [--budget-pct 30]

Each run record is an interval cell — {"family": ..., "interval_lo": ...,
"interval_hi": ...}, the format bench_e15_certified emits for certified
brackets on the offline optimum (and on competitive ratios).  A *lower*
upper end is better (a tighter certificate); a family regresses when the
candidate's interval_hi rises more than the budget above baseline's, or
when the candidate interval is wider than baseline's by more than the
budget (a bracket that silently loosened).

Exits nonzero on any regression.  The scheduled exact workflow runs it on
E15's output against bench/baseline/; it works standalone on any two saved
artifacts.  Throughput is measured by perfbench/, not here.

Families present in only one file also fail the verdict: a benchmark that
silently stopped running (or a baseline missing a committed cell) must
surface as a nonzero exit, not as a skipped row.  Retire or migrate a cell
by updating both files in the same change.
"""

from __future__ import annotations

import argparse
import json
import sys


def load_runs(path: str) -> dict[str, tuple[float, float]]:
    """family -> (interval_lo, interval_hi) for every run record."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        raise SystemExit(f"error: cannot read {path}: {err}") from err
    runs = doc.get("runs")
    if not isinstance(runs, list) or not runs:
        raise SystemExit(f"error: {path} has no runs")
    out: dict[str, tuple[float, float]] = {}
    for run in runs:
        family = run.get("family")
        lo = run.get("interval_lo")
        hi = run.get("interval_hi")
        if (
            not isinstance(family, str)
            or not isinstance(lo, (int, float))
            or not isinstance(hi, (int, float))
            or float(lo) > float(hi)
        ):
            raise SystemExit(f"error: malformed run record in {path}: {run}")
        out[family] = (float(lo), float(hi))
    return out


def regressed(
    base: tuple[float, float], cand: tuple[float, float], ceiling: float
) -> bool:
    base_lo, base_hi = base
    cand_lo, cand_hi = cand
    # Tightness regression: the certified upper end drifted up, or the
    # bracket width grew, beyond budget.  Zero baselines tolerate zero.
    hi_bad = cand_hi > (base_hi * ceiling if base_hi > 0 else 0)
    width_bad = (cand_hi - cand_lo) > max(
        (base_hi - base_lo) * ceiling, base_hi * (ceiling - 1.0)
    )
    return hi_bad or width_bad


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Diff two certified-interval bench JSON files and "
        "apply the regression budget."
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
        bad = regressed(base, cand, ceiling)
        regressions += bad
        verdict = (
            f"REGRESSION beyond {args.budget_pct:g}% budget" if bad else "ok"
        )
        base_s = f"[{base[0]:g}, {base[1]:g}]"
        cand_s = f"[{cand[0]:g}, {cand[1]:g}]"
        print(f"{family:<{width}}  {base_s:>16}  {cand_s:>24}  {verdict}")

    if regressions or missing:
        parts = []
        if regressions:
            parts.append(f"{regressions} family(ies) beyond budget")
        if missing:
            parts.append(f"{missing} family(ies) missing")
        print(f"FAIL: {'; '.join(parts)}")
        return 1
    print("PASS: all families present and within budget")
    return 0


if __name__ == "__main__":
    sys.exit(main())
