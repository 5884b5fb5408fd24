#!/usr/bin/env python3
"""Compare two sets of end-to-end benchmark runs.

Usage::

    python3 benchmarks/e2e/compare.py SET_A SET_B

Each set is a directory of ``run.py --output`` records (``*.json``,
untraced).  For every workload and every end-to-end metric of
BENCHMARK.json this prints each set's median and quartiles and a verdict
of B against A:

- ``worse`` / ``better``: the medians differ by more than the metric's
  bound, in the metric's bad / good direction;
- ``same``: the medians are within the bound;
- ``unresolved``: a set's quartile spread is wider than the bound, so
  the medians cannot be told apart -- unless every run of B beats (or
  loses to) every run of A.

It also prints each set's error rate and host calibration (a set taken
during a slow stretch of the host shows a higher ``host.calib_ms``).
Exit status 1 if any verdict is ``worse`` or any run failed a check.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load(directory: Path) -> dict[str, list[dict]]:
    runs: dict[str, list[dict]] = {}
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text())
        if "workload" in record and not record.get("trace"):
            runs.setdefault(record["workload"], []).append(record)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a: list[float], b: list[float], better: str,
            bound: float) -> tuple[str, float]:
    """(verdict, relative change of B's median, positive = worse)."""
    sign = 1.0 if better == "lower" else -1.0
    qa, qb = quartiles(a), quartiles(b)
    change = sign * (qb[1] - qa[1]) / qa[1]
    spread = max((qa[2] - qa[0]) / qa[1], (qb[2] - qb[0]) / qb[1])
    if spread > bound:
        if max(sign * v for v in b) < min(sign * v for v in a):
            return "better", change
        if min(sign * v for v in b) > max(sign * v for v in a):
            return "worse", change
        return "unresolved", change
    if change > bound:
        return "worse", change
    if change < -bound:
        return "better", change
    return "same", change


def summary(records: list[dict]) -> str:
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    calib = statistics.median(c for r in records for c in r["calib_ms"])
    return (f"{len(records)} runs, error_rate {failed}/{attempted}, "
            f"host.calib_ms {calib:.2f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("set_a", type=Path)
    parser.add_argument("set_b", type=Path)
    args = parser.parse_args(argv)
    metrics = json.loads(SPEC.read_text())["end_to_end"]
    runs_a, runs_b = load(args.set_a), load(args.set_b)
    status = 0
    for workload in sorted(set(runs_a) | set(runs_b)):
        a, b = runs_a.get(workload, []), runs_b.get(workload, [])
        print(f"== {workload}")
        if not a or not b:
            print("  missing from one set")
            status = 1
            continue
        print(f"  A: {summary(a)}\n  B: {summary(b)}")
        if any(r["failed"] for r in a + b):
            status = 1
        for metric in metrics:
            name = metric["name"]
            va = [r["metrics"][name]["value"] for r in a]
            vb = [r["metrics"][name]["value"] for r in b]
            result, change = verdict(va, vb, metric["better"],
                                     metric["bound"])
            qa, qb = quartiles(va), quartiles(vb)
            print(f"  {name:<16} A {qa[1]:>12.6g} [{qa[0]:.6g}, {qa[2]:.6g}]"
                  f"  B {qb[1]:>12.6g} [{qb[0]:.6g}, {qb[2]:.6g}]"
                  f"  {change:+7.1%}  (bound {metric['bound']:.0%})"
                  f"  {result}")
            if result == "worse":
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
