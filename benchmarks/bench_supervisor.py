#!/usr/bin/env python3
"""Sweep-supervisor overhead: wall-clock supervised vs bare pools.

The fault-tolerant supervisor (``repro.harness.supervisor``) wraps every
sweep in deadlines, retry accounting, and (optionally) a crash-consistent
journal.  Its contract is that all of this costs **under 5%** wall clock
on a healthy sweep — resilience must be cheap enough to leave on by
default.  This benchmark times the same busy-cell sweep three ways:

- ``bare``        — a plain ``ProcessPoolExecutor`` map (the floor)
- ``supervised``  — ``run_supervised``, no journal
- ``journaled``   — ``run_supervised`` with the append-only fsync journal

and emits ``BENCH_supervisor.json``::

    {"bare_wall_s": ..., "supervised_wall_s": ..., "journaled_wall_s": ...,
     "supervised_overhead_pct": ..., "journaled_overhead_pct": ...,
     "cells": ..., "workers": ..., "repeats": ...}

Usage:
    python benchmarks/bench_supervisor.py [--output BENCH_supervisor.json]
        [--check] [--repeats 3] [--cells 32] [--cell-ms 50] [--workers 2]

``--check`` exits non-zero if the no-journal supervised overhead exceeds
:data:`OVERHEAD_BUDGET_PCT` — the CI perf-smoke gate.  Run standalone,
not under pytest: the point is wall-clock, and fixtures add noise.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.harness.supervisor import (                    # noqa: E402
    SupervisorConfig,
    run_supervised,
)

#: allowed supervised-over-bare wall-clock overhead (percent, no journal).
OVERHEAD_BUDGET_PCT = 5.0

#: per-cell busy-loop calibration: iterations per millisecond, measured
#: once at startup so --cell-ms means roughly the same on any host.
_SPIN_PER_MS: int | None = None


def _busy(spec) -> int:
    """A pure CPU-bound cell: deterministic result, tunable duration."""
    index, spins = spec
    acc = index
    for k in range(spins):
        acc = (acc * 1103515245 + 12345) & 0x7FFFFFFF
    return acc


def _bare_pool(items, workers: int) -> list:
    """The floor: a plain process pool, results in submission order."""
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_busy, items))


def _calibrate_spins(cell_ms: float) -> int:
    global _SPIN_PER_MS
    if _SPIN_PER_MS is None:
        probe = 200_000
        begin = time.perf_counter()
        _busy((1, probe))
        elapsed_ms = (time.perf_counter() - begin) * 1000.0
        _SPIN_PER_MS = max(1, round(probe / max(elapsed_ms, 1e-6)))
    return max(1, round(_SPIN_PER_MS * cell_ms))


def _time(run, repeats: int) -> tuple[float, object]:
    best = None
    payload = None
    for _ in range(repeats):
        begin = time.perf_counter()
        payload = run()
        wall = time.perf_counter() - begin
        if best is None or wall < best:
            best = wall
    return best, payload


def run_suite(cells: int, cell_ms: float, workers: int,
              repeats: int) -> dict:
    spins = _calibrate_spins(cell_ms)
    items = [(index, spins) for index in range(cells)]
    expected = [_busy(item) for item in items]
    config = SupervisorConfig(workers=workers)

    bare_wall, bare = _time(
        lambda: _bare_pool(items, workers), repeats)
    sup_wall, sup = _time(
        lambda: run_supervised(items, _busy, config=config), repeats)
    with tempfile.TemporaryDirectory() as scratch:
        journals = iter(range(10 ** 9))

        def journaled_run():
            path = Path(scratch) / f"bench{next(journals)}.journal"
            return run_supervised(
                items, _busy,
                config=SupervisorConfig(workers=workers, journal_path=path))

        jrn_wall, jrn = _time(journaled_run, repeats)

    # resilience must be observationally inert on a healthy sweep
    for label, got in (("bare", bare), ("supervised", sup.results),
                       ("journaled", jrn.results)):
        if got != expected:
            raise AssertionError(f"{label} sweep diverged from serial")
    if not (sup.ok and jrn.ok):
        raise AssertionError("supervised sweep reported failures on a "
                             "healthy run")

    def pct(wall):
        return round((wall - bare_wall) / bare_wall * 100.0, 2)

    results = {
        "cells": cells,
        "cell_ms": cell_ms,
        "workers": workers,
        "repeats": repeats,
        "bare_wall_s": round(bare_wall, 4),
        "supervised_wall_s": round(sup_wall, 4),
        "journaled_wall_s": round(jrn_wall, 4),
        "supervised_overhead_pct": pct(sup_wall),
        "journaled_overhead_pct": pct(jrn_wall),
    }
    print(f"bare {bare_wall:.3f}s  supervised {sup_wall:.3f}s "
          f"({results['supervised_overhead_pct']:+.2f}%)  "
          f"journaled {jrn_wall:.3f}s "
          f"({results['journaled_overhead_pct']:+.2f}%)")
    return results


def check_budget(results: dict) -> int:
    overhead = results["supervised_overhead_pct"]
    if overhead > OVERHEAD_BUDGET_PCT:
        print(f"SUPERVISOR OVERHEAD REGRESSION: {overhead:.2f}% > "
              f"{OVERHEAD_BUDGET_PCT:.0f}% budget")
        return 1
    print(f"overhead check ok: {overhead:.2f}% <= "
          f"{OVERHEAD_BUDGET_PCT:.0f}% budget")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", default=None,
                        help="write BENCH_supervisor.json here "
                             "(default: repo root)")
    parser.add_argument("--check", action="store_true",
                        help="fail if supervised overhead exceeds "
                             f"{OVERHEAD_BUDGET_PCT:.0f}%%")
    parser.add_argument("--repeats", type=int, default=3,
                        help="wall-clock repetitions per mode (best-of)")
    parser.add_argument("--cells", type=int, default=32)
    parser.add_argument("--cell-ms", type=float, default=50.0)
    parser.add_argument("--workers", type=int, default=2)
    args = parser.parse_args()

    results = run_suite(args.cells, args.cell_ms, args.workers,
                        args.repeats)
    output = Path(args.output) if args.output else (
        Path(__file__).resolve().parents[1] / "BENCH_supervisor.json"
    )
    output.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    print(f"wrote {output}")
    if args.check:
        return check_budget(results)
    return 0


if __name__ == "__main__":
    sys.exit(main())
