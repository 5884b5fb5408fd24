"""The four end-to-end workloads.

Each workload runs one *pass*: ``setups`` timed set-ups (all but the last
torn down), then a fixed amount of measured work sized from ``--seconds``,
then its own output checks.  A pass returns a :class:`Pass`; ``run.py``
turns passes into metrics and compares the observed digests with
``expected.json``.

Every output digest is the service's determinism projection,
``payload_digest(result_payload(RunResult))``: per-sample
``ExecStats.summary()``, guest results and the figure-row aggregates.

Every end-to-end duration is rescaled to a reference host speed by
:class:`hostspeed.HostSpeed`.  Workloads that run in one process are
pinned to one CPU, so the speed samples come from the CPU doing the work.
"""

from __future__ import annotations

import asyncio
import hashlib
import inspect
import json
import multiprocessing
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from hostspeed import HostSpeed
from repro.harness import diskcache, experiment, figures
from repro.harness.experiment import RunResult, SampleResult
from repro.hw.config import BASELINE_4WIDE
from repro.service import ServiceCell, SweepClient, SweepServer
from repro.service.protocol import (
    compute_service_cell,
    payload_digest,
    result_payload,
)
from repro.vm import ATOMIC_AGGRESSIVE, TieredVM, VMOptions
from repro.workloads import get_workload

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"

#: the worker / connection cap: the reference machine's core count.
WORKERS = 2


@dataclass
class Pass:
    """What one pass of a workload measured and produced."""

    setup_s: list[float] = field(default_factory=list)
    #: per-operation latency (a cold round, a guest call, a request).
    latencies_s: list[float] = field(default_factory=list)
    #: retired simulated uops delivered per second of measured time.
    sim_uops_per_s: float = 0.0
    #: one (check key, digest) per checked output.
    outputs: list[tuple[str, str]] = field(default_factory=list)
    #: failures the workload's own checks found.
    failures: list[str] = field(default_factory=list)
    #: median reference-work time during the pass (host.calib_ms).
    calib_ms: float = 0.0
    regions_entered: int = 0
    regions_aborted: int = 0
    #: sweep-server counters (service-mixed only).
    delivered_uops: int = 0
    executions: int = 0
    dedup_hits: int = 0
    #: workload-specific numbers for the --output record.
    details: dict = field(default_factory=dict)


def digest_run(result: RunResult) -> str:
    return payload_digest(result_payload(result))


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


# -- figures-cold ---------------------------------------------------------------

class FiguresCold:
    """Cold serial regeneration of Figures 7/8, Table 3 and Sec 6.2."""

    name = "figures-cold"
    single_cpu = True
    #: the two cheapest benches, so several cold rounds fit in one run.
    benches = ["hsqldb", "xalan"]
    #: run seconds budgeted per cold round (a round takes ~3.4 s on the
    #: 2-core reference machine).
    round_cost_s = 4.0
    #: set-ups per run (the median is setup_s); a set-up takes ~0.2 s.
    setups = 9
    require_pinned = True

    def __init__(self, seconds: float) -> None:
        self.rounds = max(1, round(seconds / self.round_cost_s))

    def setup(self) -> float:
        """A fresh interpreter imports the harness and builds and
        validates every program the round runs; it times that itself,
        rescaled by its own host-speed samples, and prints the seconds."""
        code = ("import time\n"
                "from hostspeed import HostSpeed\n"
                "speed = HostSpeed()\n"
                "begin = time.perf_counter()\n"
                "from repro.harness import figures\n"
                "from repro.lang.validate import validate_program\n"
                "from repro.workloads import get_workload\n"
                f"for name in {self.benches!r}:\n"
                "    validate_program(get_workload(name).build())\n"
                "print((time.perf_counter() - begin) / speed.step())\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC),
                                                           str(HERE))))
        child = subprocess.run([sys.executable, "-c", code], env=env,
                               check=True, timeout=120, capture_output=True,
                               text=True)
        return float(child.stdout)

    def run(self, setups: int, rec=None) -> Pass:
        out = Pass()
        out.setup_s = [self.setup() for _ in range(setups)]
        speed = HostSpeed()
        signature = inspect.signature(figures.run_workload)
        original = figures.run_workload
        cells: list[tuple[int, str, float, RunResult]] = []
        seen: set[str] = set()
        round_index = 0

        def timed_cell(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            key = (f"{a['workload'].name}/{a['compiler_config'].name}/"
                   f"{a['hw_config'].name}/timing={a['timing']}/"
                   f"mono={a['force_monomorphic']}")
            begin = time.perf_counter()
            result = original(*args, **kwargs)
            if key not in seen:  # later calls are memo hits
                seen.add(key)
                elapsed = time.perf_counter() - begin
                cells.append((round_index, key, elapsed / speed.step(),
                              result))
            return result

        figures.run_workload = timed_cell
        try:
            for round_index in range(self.rounds):
                experiment.clear_cache()
                seen.clear()
                if rec is not None:
                    rec.round = round_index
                speed.step()
                data = [figures.figure7(self.benches),
                        figures.figure8(self.benches),
                        figures.table3(self.benches),
                        figures.section62(self.benches)]
                rows = json.dumps([[d.title, d.columns, d.rows, d.notes]
                                   for d in data], sort_keys=True)
                out.outputs.append(
                    ("figures", hashlib.sha256(rows.encode()).hexdigest()))
        finally:
            figures.run_workload = original

        per_cell: dict[str, list[float]] = {}
        uops: dict[str, int] = {}
        round_s = [0.0] * self.rounds
        for index, key, seconds, result in cells:
            per_cell.setdefault(key, []).append(seconds)
            round_s[index] += seconds
            uops[key] = sum(s.stats.uops_retired for s in result.samples)
            out.outputs.append((key, digest_run(result)))
            for sample in result.samples:
                out.regions_entered += sample.stats.regions_entered
                out.regions_aborted += sample.stats.regions_aborted
        # each cell's median over the cold rounds
        cell_s = {key: statistics.median(v) for key, v in per_cell.items()}
        out.latencies_s = round_s
        out.sim_uops_per_s = sum(uops.values()) / sum(cell_s.values())
        out.calib_ms = speed.calib_ms()
        out.details = {"rounds": self.rounds, "cells": len(cell_s),
                       "cell_median_s": cell_s}
        return out


# -- steady-untimed / steady-timed ------------------------------------------------

class Steady:
    """Measured sweeps on warmed, compiled VMs (template-JIT dispatch)."""

    benches = ["hsqldb", "xalan", "jython"]
    single_cpu = True
    #: set-ups per run (the median is setup_s); a set-up takes ~1 s.
    setups = 3
    require_pinned = True

    def __init__(self, seconds: float, timing: bool) -> None:
        self.timing = timing
        self.name = "steady-timed" if timing else "steady-untimed"
        # passes per measured second on the reference machine
        self.passes = max(1, round(seconds * (1 if timing else 6)))

    def setup(self) -> list:
        vms = []
        for bench in self.benches:
            workload = get_workload(bench)
            for index, sample in enumerate(workload.samples):
                vm = TieredVM(
                    workload.build(), compiler_config=ATOMIC_AGGRESSIVE,
                    options=VMOptions(enable_timing=self.timing,
                                      compile_threshold=3),
                )
                vm.warm_up(workload.entry,
                           [list(a) for a in sample.warm_args])
                vm.compile_hot(min_invocations=1)
                vms.append((f"{bench}:{index}", workload, sample, vm))
        return vms

    def run(self, setups: int, rec=None) -> Pass:
        out = Pass()
        speed = HostSpeed()
        for _ in range(setups):
            begin = time.perf_counter()
            vms = self.setup()
            out.setup_s.append((time.perf_counter() - begin) / speed.step())
        rates = []
        for index in range(self.passes):
            pass_s = 0.0
            pass_uops = 0
            for label, workload, sample, vm in vms:
                vm.start_measurement()
                results, times = [], []
                for args in sample.measure_args:
                    begin = time.perf_counter()
                    results.append(vm.run(workload.entry, list(args)))
                    times.append(time.perf_counter() - begin)
                slowdown = speed.step()
                out.latencies_s += [t / slowdown for t in times]
                pass_s += sum(times) / slowdown
                stats = vm.end_measurement()
                pass_uops += stats.uops_retired
                out.regions_entered += stats.regions_entered
                out.regions_aborted += stats.regions_aborted
                run = RunResult(workload.name, ATOMIC_AGGRESSIVE.name,
                                BASELINE_4WIDE.name, [SampleResult(
                                    sample.weight, stats, results,
                                    len(vm.compiled))])
                out.outputs.append((f"{label}#{index}", digest_run(run)))
            rates.append(pass_uops / pass_s)
        out.sim_uops_per_s = statistics.median(rates)
        out.calib_ms = speed.calib_ms()
        out.details = {"passes": self.passes, "pass_uops": pass_uops}
        return out


# -- service-mixed ----------------------------------------------------------------

def _cell(seed: int) -> ServiceCell:
    return ServiceCell(workload="hsqldb", compiler="atomic", seed=seed)


def _reap_children() -> None:
    """Wait for every child process this process started."""
    for child in multiprocessing.active_children():
        child.join(timeout=30)


class ServiceMixed:
    """An in-process sweep server under two closed-loop clients.

    The clients run in lockstep groups (one cold cell each, one shared
    dedup cell, or one pass over the cached cells each), and the host
    speed is sampled between groups, when the pool is idle.
    """

    name = "service-mixed"
    #: the server's pool spreads the cold cells over every CPU.
    single_cpu = False
    #: set-ups per run (the median is setup_s); a set-up takes ~0.4 s.
    setups = 5
    require_pinned = False

    def __init__(self, seed: int, seconds: float) -> None:
        # per measured second: 5 cold cells (the cold phase is the
        # noisiest, so it gets most of the time), half a dedup cell and
        # half a round of cached reads over the cold cells
        cold = max(2, round(5 * seconds))
        count = cold + max(1, round(seconds / 2))
        rng = random.Random(seed)
        seeds: list[int] = []
        while len(seeds) < count:  # prefix-stable and distinct
            draw = rng.randrange(1 << 30)
            if draw not in seeds:
                seeds.append(draw)
        self.cold = seeds[:cold]
        self.dedup = seeds[cold:]
        self.rounds = max(1, round(seconds / 2))
        #: priming cells live outside the range measured seeds draw from.
        self.priming = [(1 << 30) + i for i in range(WORKERS)]

    async def _start(self):
        workdir = Path(tempfile.mkdtemp(prefix="cache-", dir=HERE / ".work"))
        os.environ["REPRO_DISK_CACHE_DIR"] = str(workdir)
        server = SweepServer(workers=WORKERS, disk_cache=True,
                             hot_cache=diskcache.HotCache(capacity=256))
        await server.start()
        clients = [await SweepClient.connect(server.host, server.port)
                   for _ in range(WORKERS)]
        await asyncio.gather(*(client.sweep([_cell(seed)])
                               for client, seed in zip(clients, self.priming)))
        return server, clients, workdir

    async def _stop(self, state) -> None:
        server, clients, workdir = state
        for client in clients:
            await client.close()
        await server.stop()
        _reap_children()
        shutil.rmtree(workdir, ignore_errors=True)

    async def _group(self, clients, per_client, speed, out: Pass):
        """Each client requests its seeds one at a time, all clients at
        once; returns (wall, latencies), rescaled to the reference host."""
        latencies, events = [], []

        async def loop(client, seeds):
            for seed in seeds:
                begin = time.perf_counter()
                (event,) = await client.sweep([_cell(seed)])
                latencies.append(time.perf_counter() - begin)
                events.append((seed, event))

        begin = time.perf_counter()
        await asyncio.gather(*(loop(c, s) for c, s in zip(clients, per_client)))
        wall = time.perf_counter() - begin
        slowdown = speed.step()
        for seed, event in events:
            if payload_digest(event["payload"]) != event["digest"]:
                out.failures.append(f"cell {seed}: digest does not match "
                                    "its payload")
            out.outputs.append((str(seed), event["digest"]))
            out.delivered_uops += sum(s["stats"]["uops"]
                                      for s in event["payload"]["samples"])
        return wall / slowdown, [t / slowdown for t in latencies]

    async def _phase(self, clients, groups, speed, out: Pass):
        wall, latencies = 0.0, []
        for per_client in groups:
            group_wall, group_latencies = await self._group(
                clients, per_client, speed, out)
            wall += group_wall
            latencies += group_latencies
        return wall, latencies

    async def _run(self, setups: int) -> Pass:
        out = Pass()
        (HERE / ".work").mkdir(exist_ok=True)
        every_cpu = os.sched_getaffinity(0)
        # cold cells run on the pool's workers, spread over every CPU;
        # cached reads run on this thread, pinned after the workers fork.
        pool_speed = HostSpeed(every_cpu)
        state = None
        for index in range(setups):
            begin = time.perf_counter()
            state = await self._start()
            out.setup_s.append(
                (time.perf_counter() - begin) / pool_speed.step())
            if index < setups - 1:
                await self._stop(state)
        server, clients, _ = state
        os.sched_setaffinity(0, {min(every_cpu)})
        loop_speed = HostSpeed()
        try:
            cold = [[[seed] for seed in self.cold[i:i + WORKERS]]
                    for i in range(0, len(self.cold), WORKERS)]
            cold_s, cold_lat = await self._phase(clients, cold, pool_speed,
                                                 out)
            executed = server.executions
            dedup = [[[seed]] * WORKERS for seed in self.dedup]
            dedup_s, dedup_lat = await self._phase(clients, dedup,
                                                   pool_speed, out)
            out.executions = server.executions
            out.dedup_hits = server.counters()["dedup_hits"]
            if out.executions - executed != len(self.dedup):
                out.failures.append(
                    f"dedup ran {out.executions - executed} executions "
                    f"for {len(self.dedup)} shared cells")
            cached = [[self.cold] * WORKERS] * self.rounds
            cached_s, cached_lat = await self._phase(clients, cached,
                                                     loop_speed, out)
        finally:
            os.sched_setaffinity(0, every_cpu)
            await self._stop(state)

        served: dict[str, set[str]] = {}
        for key, digest in out.outputs:
            served.setdefault(key, set()).add(digest)
        for key, digests in served.items():
            if len(digests) > 1:
                out.failures.append(f"cell {key}: served {len(digests)} "
                                    "different digests")
        # served bytes must equal a serial in-process run of the same cell
        for seed in (self.cold[0], self.dedup[0]):
            _key, result = compute_service_cell(_cell(seed))
            out.regions_entered += sum(s.stats.regions_entered
                                       for s in result.samples)
            out.regions_aborted += sum(s.stats.regions_aborted
                                       for s in result.samples)
            if {digest_run(result)} != served.get(str(seed)):
                out.failures.append(f"cell {seed}: served payload differs "
                                    "from a serial run")

        wall_s = cold_s + dedup_s + cached_s
        out.latencies_s = cold_lat + dedup_lat + cached_lat
        out.sim_uops_per_s = out.delivered_uops / wall_s
        out.calib_ms = loop_speed.calib_ms()
        ms = 1000.0
        out.details = {
            "cells_per_s": len(out.latencies_s) / wall_s,
            "cold_cells": len(self.cold), "dedup_cells": len(self.dedup),
            "cached_reads": len(cached_lat),
            "cold_p50_ms": percentile(cold_lat, 0.5) * ms,
            "cold_p80_ms": percentile(cold_lat, 0.8) * ms,
            "dedup_p50_ms": percentile(dedup_lat, 0.5) * ms,
            "cached_p50_ms": percentile(cached_lat, 0.5) * ms,
            "cached_p99_ms": percentile(cached_lat, 0.99) * ms,
            "executions": out.executions, "dedup_hits": out.dedup_hits,
        }
        return out

    def run(self, setups: int, rec=None) -> Pass:
        return asyncio.run(self._run(setups))


def make(name: str, seed: int, seconds: float):
    """The workload called ``name``; raises KeyError for an unknown one."""
    factories = {
        "figures-cold": lambda: FiguresCold(seconds),
        "steady-untimed": lambda: Steady(seconds, timing=False),
        "steady-timed": lambda: Steady(seconds, timing=True),
        "service-mixed": lambda: ServiceMixed(seed, seconds),
    }
    if name not in factories:
        raise KeyError(f"unknown workload {name!r}; "
                       f"choose from {sorted(factories)}")
    return factories[name]()


# -- traced-run probe ---------------------------------------------------------------

def timing_probe(rounds: int = 5) -> float:
    """ns per uop the timing model adds: hsqldb and xalan measured on
    twin VMs, timing on and off, interleaved; median over rounds."""
    twins = []
    for bench in ("hsqldb", "xalan"):
        workload = get_workload(bench)
        for sample in workload.samples:
            pair = []
            for timing in (True, False):
                vm = TieredVM(workload.build(),
                              compiler_config=ATOMIC_AGGRESSIVE,
                              options=VMOptions(enable_timing=timing,
                                                compile_threshold=3))
                vm.warm_up(workload.entry,
                           [list(a) for a in sample.warm_args])
                vm.compile_hot(min_invocations=1)
                pair.append(vm)
            twins.append((workload, sample, pair))
    diffs = []
    for _ in range(rounds):
        extra_s, uops = 0.0, 0
        for workload, sample, (timed, untimed) in twins:
            for vm, sign in ((timed, 1), (untimed, -1)):
                vm.start_measurement()
                begin = time.perf_counter()
                for args in sample.measure_args:
                    vm.run(workload.entry, list(args))
                extra_s += sign * (time.perf_counter() - begin)
                stats = vm.end_measurement()
            uops += stats.uops_retired
        diffs.append(extra_s * 1e9 / uops)
    return statistics.median(diffs)

