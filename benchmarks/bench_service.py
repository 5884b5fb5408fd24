#!/usr/bin/env python3
"""Sweep-service throughput: cold / deduped / cached cells per second.

Closed-loop load against an in-process :class:`repro.service.SweepServer`:
``--clients`` tenants each submit one cell at a time and wait for its
result, so per-cell latency is a real round trip (validate, schedule,
compute or cache hit, stream back), not a batch amortisation.  Three
phases exercise the three serving paths:

- ``cold``   — unique seeded cells, every one a real simulation on the
  worker pool (the floor: this is what the service *saves* elsewhere)
- ``dedup``  — every client sweeps the *same* fresh cells concurrently;
  in-flight dedup collapses N tenants to one execution per cell
- ``cached`` — the cold cells resubmitted for several rounds, answered
  from the in-memory LRU at memory speed

and emits ``BENCH_service.json``::

    {"workers": ..., "clients": ...,
     "cold":   {"served": ..., "wall_s": ..., "cells_per_s": ...,
                "p50_ms": ..., "p99_ms": ...},
     "dedup":  {..., "executions": ...},
     "cached": {...},
     "cached_speedup_p50": ...}

Usage:
    python benchmarks/bench_service.py [--output BENCH_service.json]
        [--check] [--quick] [--clients 3] [--cold-cells 6]
        [--cached-rounds 5] [--workers N]

``--check`` exits non-zero unless the cached p50 is at least
:data:`CACHED_SPEEDUP_FLOOR` x faster than the cold p50 — the CI
perf-smoke gate (a served cached cell must stay memory-speed).  Run
standalone, not under pytest: the point is wall-clock.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.harness import Cell  # noqa: E402
from repro.service import SweepClient, SweepServer  # noqa: E402

#: minimum cold-p50 / cached-p50 ratio (the acceptance criterion).
CACHED_SPEEDUP_FLOOR = 10.0

#: the benchmark workload: the fastest cell in the suite, so the cold
#: floor is compute-dominated but the run stays CI-sized.
WORKLOAD, COMPILER = "hsqldb", "atomic"


def cell(seed: int) -> Cell:
    return Cell(workload=WORKLOAD, compiler=COMPILER, seed=seed)


def percentile(samples: list[float], q: float) -> float:
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


async def closed_loop(server: SweepServer, cells: list[Cell],
                      latencies: list[float], digests: dict) -> None:
    """One tenant: submit each cell alone and wait for its result."""
    client = await SweepClient.connect(server.host, server.port)
    try:
        for item in cells:
            begin = time.perf_counter()
            (event,) = await client.sweep([item])
            latencies.append((time.perf_counter() - begin) * 1000.0)
            digests.setdefault(item, set()).add(event["digest"])
    finally:
        await client.close()


async def phase(server: SweepServer, per_client: list[list[Cell]],
                digests: dict) -> dict:
    latencies: list[float] = []
    begin = time.perf_counter()
    await asyncio.gather(*(closed_loop(server, cells, latencies, digests)
                           for cells in per_client))
    wall = time.perf_counter() - begin
    return {
        "served": len(latencies),
        "wall_s": round(wall, 4),
        "cells_per_s": round(len(latencies) / wall, 2),
        "p50_ms": round(percentile(latencies, 0.50), 3),
        "p99_ms": round(percentile(latencies, 0.99), 3),
    }


async def run_bench(clients: int, cold_cells: int, cached_rounds: int,
                    workers: int | None) -> dict:
    digests: dict = {}
    async with SweepServer(workers=workers, disk_cache=False) as server:
        # cold: unique cells, spread round-robin across the tenants.
        cold = [cell(seed) for seed in range(cold_cells)]
        per_client = [cold[index::clients] for index in range(clients)]
        cold_stats = await phase(server, per_client, digests)
        cold_execs = server.executions

        # dedup: every tenant asks for the same fresh cells at once.
        shared = [cell(seed) for seed in range(1000, 1000 + max(
            2, cold_cells // 2))]
        dedup_stats = await phase(server, [list(shared)] * clients, digests)
        dedup_stats["executions"] = server.executions - cold_execs
        dedup_stats["dedup_hits"] = server.counters()["dedup_hits"]

        # cached: the cold matrix again, now answered from the hot LRU.
        cached_stats = await phase(
            server, [list(cold) * cached_rounds] * clients, digests)

        counters = server.counters()

    # every phase that served a cell must agree on its digest.
    diverged = {k: v for k, v in digests.items() if len(v) > 1}
    if diverged:
        raise AssertionError(
            f"served digests diverged across phases: {diverged}")
    if dedup_stats["executions"] != len(shared):
        raise AssertionError(
            f"dedup failed to collapse executions: {dedup_stats}")

    return {
        "workload": f"{WORKLOAD}:{COMPILER}",
        "clients": clients,
        "workers": counters["workers"],
        "cold": cold_stats,
        "dedup": dedup_stats,
        "cached": cached_stats,
        "cached_speedup_p50": round(
            cold_stats["p50_ms"] / max(cached_stats["p50_ms"], 1e-6), 1),
        "hot_hits": counters["cache"]["hot_hits"],
    }


def check_gate(results: dict) -> int:
    speedup = results["cached_speedup_p50"]
    if speedup < CACHED_SPEEDUP_FLOOR:
        print(f"SERVICE CACHE REGRESSION: cached p50 only {speedup:.1f}x "
              f"faster than cold (< {CACHED_SPEEDUP_FLOOR:.0f}x floor)")
        return 1
    print(f"cache check ok: cached p50 {speedup:.1f}x faster than cold "
          f"(>= {CACHED_SPEEDUP_FLOOR:.0f}x floor)")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", default=None,
                        help="write BENCH_service.json here "
                             "(default: repo root)")
    parser.add_argument("--check", action="store_true",
                        help="fail unless cached p50 beats cold p50 by "
                             f"{CACHED_SPEEDUP_FLOOR:.0f}x")
    parser.add_argument("--quick", action="store_true",
                        help="CI-sized run (fewer cells and rounds)")
    parser.add_argument("--clients", type=int, default=3)
    parser.add_argument("--cold-cells", type=int, default=6)
    parser.add_argument("--cached-rounds", type=int, default=5)
    parser.add_argument("--workers", type=int, default=None,
                        help="worker processes (default: REPRO_WORKERS)")
    args = parser.parse_args()
    if args.quick:
        args.cold_cells = min(args.cold_cells, 4)
        args.cached_rounds = min(args.cached_rounds, 2)

    results = asyncio.run(run_bench(
        args.clients, args.cold_cells, args.cached_rounds, args.workers))
    print(f"cold   {results['cold']['cells_per_s']:8.2f} cells/s  "
          f"p50 {results['cold']['p50_ms']:9.2f}ms  "
          f"p99 {results['cold']['p99_ms']:9.2f}ms")
    print(f"dedup  {results['dedup']['cells_per_s']:8.2f} cells/s  "
          f"p50 {results['dedup']['p50_ms']:9.2f}ms  "
          f"({results['dedup']['executions']} executions for "
          f"{results['dedup']['served']} served)")
    print(f"cached {results['cached']['cells_per_s']:8.2f} cells/s  "
          f"p50 {results['cached']['p50_ms']:9.2f}ms  "
          f"p99 {results['cached']['p99_ms']:9.2f}ms  "
          f"({results['cached_speedup_p50']:.1f}x cold p50)")

    output = Path(args.output) if args.output else (
        Path(__file__).resolve().parents[1] / "BENCH_service.json"
    )
    output.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    print(f"wrote {output}")
    if args.check:
        return check_gate(results)
    return 0


if __name__ == "__main__":
    sys.exit(main())
