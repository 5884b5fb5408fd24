"""CLI for the sweep service: serve / submit / watch / smoke.

::

    # a long-running server (ephemeral port unless --port given)
    python -m repro.service serve --port 7781 --workers 4 --disk-cache

    # submit cells from another terminal and print their digests
    python -m repro.service submit --port 7781 hsqldb:atomic xalan:no-atomic

    # follow progress broadcasts
    python -m repro.service watch --port 7781

    # the CI smoke: N concurrent clients sweep the same cells, every
    # served payload is compared byte-for-byte against a local serial
    # compute_cell run; exit code is the verdict.
    python -m repro.service smoke --port 7781 --clients 3

Cell syntax for submit/smoke: ``workload:compiler[:hardware[:seed]]``
(e.g. ``hsqldb:atomic+aggr-inline:4wide:3``).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import sys

from ..harness.parallel import Cell, compute_cell
from .client import SweepClient
from .protocol import (
    ProtocolError,
    canonical_json,
    result_payload,
    validate_cell,
)
from .server import SweepServer

#: the default smoke matrix: fast cells, two compilers, two seeded (one
#: on a best-effort HTM machine).
DEFAULT_SMOKE_CELLS = ("hsqldb:atomic", "hsqldb:no-atomic",
                       "xalan:atomic+aggr-inline", "hsqldb:atomic:4wide:3",
                       "hsqldb:atomic:4wide-htm-rock:3")


def parse_cell(text: str) -> Cell:
    """``workload:compiler[:hardware[:seed]]`` → a cell validated exactly
    as a wire spec is; a bad cell exits with its text and error code."""
    parts = text.split(":")
    if not 2 <= len(parts) <= 4:
        raise SystemExit(
            f"bad cell {text!r}: want workload:compiler[:hardware[:seed]]")
    spec = {"workload": parts[0], "compiler": parts[1]}
    if len(parts) > 2 and parts[2]:
        spec["hardware"] = parts[2]
    if len(parts) > 3:
        try:
            spec["seed"] = int(parts[3])
        except ValueError:
            spec["seed"] = parts[3]  # validate_cell rejects it
    try:
        return validate_cell(spec)
    except ProtocolError as exc:
        raise SystemExit(
            f"bad cell {text!r}: {exc.code}: {exc.detail}") from None


async def _serve(args) -> int:
    server = SweepServer(host=args.host, port=args.port,
                         workers=args.workers, disk_cache=args.disk_cache)
    host, port = await server.start()
    print(f"repro-sweep-server listening on {host}:{port}", flush=True)
    # SIGTERM stops the server like Ctrl-C does: ``stop`` closes the
    # supervisor, so no pool worker outlives the server.
    asyncio.get_running_loop().add_signal_handler(
        signal.SIGTERM, asyncio.current_task().cancel)
    try:
        await server.serve_forever()
    except asyncio.CancelledError:
        pass
    finally:
        await server.stop()
    return 0


async def _submit(args) -> int:
    cells = [parse_cell(text) for text in args.cells]
    async with await SweepClient.connect(args.host, args.port) as client:
        for event in await client.sweep(cells):
            print(f"{event['cell']}  source={event['source']:5s}  "
                  f"digest={event['digest']}")
    return 0


async def _watch(args) -> int:
    async with await SweepClient.connect(args.host, args.port) as client:
        print(f"watching {args.host}:{args.port} "
              f"(client {client.client_id}); ctrl-c to stop", flush=True)
        try:
            async for event in client.watch():
                print(json.dumps(event, sort_keys=True), flush=True)
        except asyncio.CancelledError:
            pass
    return 0


async def _smoke(args) -> int:
    """N concurrent tenants sweep the same cells; verify byte-identity
    against local serial runs and that dedup collapsed the executions."""
    cells = [parse_cell(text) for text in (args.cells or DEFAULT_SMOKE_CELLS)]

    async def one_client(index: int):
        async with await SweepClient.connect(args.host, args.port) as client:
            return index, await client.sweep(cells)

    sweeps = await asyncio.gather(
        *(one_client(index) for index in range(args.clients)))

    # the serial reference, through the same canonical projection.
    expected = []
    for cell in cells:
        _key, result = compute_cell(cell)
        expected.append(canonical_json(result_payload(result)))

    failures = 0
    for index, events in sweeps:
        for cell, event, reference in zip(cells, events, expected):
            served = canonical_json(event["payload"])
            verdict = "ok" if served == reference else "MISMATCH"
            if served != reference:
                failures += 1
            print(f"client {index}  {cell.workload}:{cell.compiler}:"
                  f"{cell.hardware}"
                  f"{':' + str(cell.seed) if cell.seed is not None else ''}"
                  f"  source={event['source']:5s}  {verdict}")
    async with await SweepClient.connect(args.host, args.port) as client:
        counters = await client.stats()
    print(f"server counters: served={counters['served']} "
          f"executions={counters['executions']} "
          f"dedup={counters['dedup_hits']} "
          f"hot={counters['cache']['hot_hits']} "
          f"disk={counters['cache']['disk_hits']}")
    if failures:
        print(f"SMOKE FAILED: {failures} served payload(s) diverged from "
              f"serial compute_cell")
        return 1
    print(f"smoke ok: {args.clients} clients x {len(cells)} cells, all "
          f"byte-identical to serial")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.service",
                                     description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="run a sweep server")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0)
    serve.add_argument("--workers", type=int, default=None,
                       help="worker processes (default: REPRO_WORKERS)")
    serve.add_argument("--disk-cache", action="store_true", default=None,
                       help="enable the checksummed disk cache")

    submit = sub.add_parser("submit", help="submit cells, print digests")
    submit.add_argument("--host", default="127.0.0.1")
    submit.add_argument("--port", type=int, required=True)
    submit.add_argument("cells", nargs="+",
                        help="workload:compiler[:hardware[:seed]]")

    watch = sub.add_parser("watch", help="stream progress broadcasts")
    watch.add_argument("--host", default="127.0.0.1")
    watch.add_argument("--port", type=int, required=True)

    smoke = sub.add_parser(
        "smoke", help="multi-client byte-identity smoke vs serial runs")
    smoke.add_argument("--host", default="127.0.0.1")
    smoke.add_argument("--port", type=int, required=True)
    smoke.add_argument("--clients", type=int, default=3)
    smoke.add_argument("--cells", nargs="*", default=None,
                       help="workload:compiler[:hardware[:seed]] "
                            "(default: the fast smoke matrix)")

    args = parser.parse_args(argv)
    handler = {"serve": _serve, "submit": _submit,
               "watch": _watch, "smoke": _smoke}[args.command]
    try:
        return asyncio.run(handler(args))
    except KeyboardInterrupt:
        return 130


if __name__ == "__main__":
    sys.exit(main())
