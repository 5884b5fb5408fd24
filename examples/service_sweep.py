#!/usr/bin/env python3
"""Simulation as a service: multi-tenant sweeps with dedup and caching.

Figure sweeps re-run the same (workload, config, seed) cells from every
benchmark script and CI job.  The sweep service turns the batch harness
into a long-running server so that work is shared *across* callers: an
in-process :class:`repro.service.SweepServer` speaks newline-delimited
JSON over TCP, and this example walks the three serving paths with two
concurrent tenants:

- **cold** — the first tenant to ask for a cell pays for one real
  simulation on the worker pool;
- **dedup** — a second tenant asking for the same in-flight cell
  attaches to the same execution (N tenants, one compute);
- **hot** — a resubmitted cell is answered from the in-memory LRU at
  memory speed, byte-identical to the cold run (the service's
  determinism contract, enforced in tests/test_service.py).

Run:  python examples/service_sweep.py
"""

import asyncio

from repro.harness import Cell, render_cache
from repro.service import SweepClient, SweepServer, canonical_json

MATRIX = [
    Cell(workload="hsqldb", compiler="no-atomic"),
    Cell(workload="hsqldb", compiler="atomic"),
    Cell(workload="hsqldb", compiler="atomic", seed=3),
]


async def tenant(name: str, server: SweepServer, cells):
    async with await SweepClient.connect(server.host, server.port) as client:
        events = await client.sweep(cells)
        for cell, event in zip(cells, events):
            row = event["payload"]["figure_row"]
            seed = f" seed={cell.seed}" if cell.seed is not None else ""
            label = f"{cell.workload}:{cell.compiler}{seed}"
            print(f"  [{name:5s}] {label:24s} "
                  f"source={event['source']:5s} "
                  f"cycles={row['cycles']:>9,.0f} "
                  f"coverage={row['coverage']:.3f}")
        return events


async def main():
    async with SweepServer(workers=2, disk_cache=False) as server:
        print(f"=== sweep server on {server.host}:{server.port} ===")

        print("two tenants sweep the same matrix concurrently:")
        first, second = await asyncio.gather(
            tenant("alice", server, MATRIX), tenant("bob", server, MATRIX))

        print("\nresubmitting: the whole matrix is now memory-speed:")
        third = await tenant("carol", server, MATRIX)

        # the determinism contract, checked live: every tenant's bytes
        # agree, whether served cold, deduped, or from the hot cache.
        for a, b, c in zip(first, second, third):
            assert (canonical_json(a["payload"])
                    == canonical_json(b["payload"])
                    == canonical_json(c["payload"]))
        print("payloads byte-identical across cold/dedup/hot serving ✓")

        counters = server.counters()
        print(f"\nexecutions={counters['executions']} for "
              f"served={counters['served']} "
              f"(dedup_hits={counters['dedup_hits']})")
        print()
        print(render_cache(counters["cache"]))


if __name__ == "__main__":
    asyncio.run(main())
