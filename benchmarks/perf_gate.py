#!/usr/bin/env python3
"""Check one end-to-end benchmark record against performance bounds.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py --workload NAME ... --output R.json
    python3 benchmarks/perf_gate.py R.json [--min NAME=X] [--max NAME=X]

``R.json`` is the record ``benchmarks/e2e/run.py --output`` writes; its
durations and rates are already rescaled to the reference host speed.
``NAME`` is an end-to-end metric (``sim_uops_per_s``, ``p50_ms`` ...), a
``details.KEY`` entry, or the ratio ``A/B`` of two of them.  Exits 1
unless the run reads ``correct: true`` with no failed operation and
every bound holds; a name the record lacks is an error, not a pass.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def value(record: dict, name: str) -> float:
    """The value ``name`` names in ``record`` (see the module doc)."""
    if "/" in name:
        num, den = name.split("/")
        return value(record, num) / value(record, den)
    if name.startswith("details."):
        return record["details"][name[len("details."):]]
    return record["metrics"][name]["value"]


def violations(record: dict, mins: list[tuple[str, float]],
               maxes: list[tuple[str, float]]) -> list[str]:
    """Every way ``record`` misses its bounds; empty when it passes."""
    out = []
    if record["correct"] is not True or record["failed"] != 0:
        out.append(f"run not clean: correct={record['correct']} "
                   f"failed={record['failed']}")
    for name, floor in mins:
        got = value(record, name)
        if not got >= floor:
            out.append(f"{name} {got:.6g} below its floor {floor:.6g}")
    for name, ceiling in maxes:
        got = value(record, name)
        if not got <= ceiling:
            out.append(f"{name} {got:.6g} above its ceiling {ceiling:.6g}")
    return out


def _bound(text: str) -> tuple[str, float]:
    name, _, limit = text.partition("=")
    return name, float(limit)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("record", type=Path)
    parser.add_argument("--min", type=_bound, action="append", default=[],
                        metavar="NAME=X", help="fail unless NAME >= X")
    parser.add_argument("--max", type=_bound, action="append", default=[],
                        metavar="NAME=X", help="fail unless NAME <= X")
    args = parser.parse_args(argv)
    record = json.loads(args.record.read_text())
    problems = violations(record, args.min, args.max)
    for problem in problems:
        print(f"PERF GATE FAILED ({record.get('workload')}): {problem}")
    if not problems:
        checked = [f"{name} {value(record, name):.6g}"
                   for name, _ in args.min + args.max]
        print(f"perf gate ok ({record.get('workload')}): "
              + ", ".join(checked))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
