"""Host spans for the end-to-end benchmark, recorded from outside ``src/``.

Each layer is timed by wrapping the public function that enters it, for
the duration of one ``with installed(recorder):`` block, and restoring the
original afterwards.  Two rules keep the wrappers honest:

- a name is patched where its caller bound it: ``repro.vm.compiler``
  imports ``build_ir``, ``form_regions``, ``optimize``, ``apply_sle`` and
  ``generate_code`` by name, and ``repro.vm.vm`` does the same with
  ``compile_method`` and ``validate_program``, so those module attributes
  are the ones replaced;
- ``Machine.execute`` re-enters itself for guest calls, so only the
  outermost activation gets a span (every activation is still counted).

Spans are kept in memory as Chrome trace ``B``/``E`` events on their own
pid (guest region events use pid 0) and reduced to per-layer self time:
a span's duration minus the part its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import json
import threading
import time
from collections import Counter

#: Chrome trace pid of host spans (the guest region tracer uses pid 0).
HOST_PID = 1

#: the span every traced pass runs under; its self time is whatever no
#: layer covers (pool and socket waits, the event loop, the bench loop).
ROOT = "bench"

#: every layer the benchmark attributes time to, root first.
LAYERS = (
    ROOT,
    "workloads.build", "lang.validate", "runtime.warmup",
    "vm.compile", "ir.build", "opt.inline", "atomic.form_regions",
    "opt.optimize", "atomic.sle", "hw.codegen", "hw.prepare", "hw.execute",
    "harness.cell", "harness.hot_get", "harness.hot_put",
    "service.validate", "service.payload", "service.codec",
)


class Recorder:
    """In-memory span and counter store for one traced pass."""

    def __init__(self) -> None:
        self.events: list[tuple[str, str, int, int]] = []
        self.counts: Counter = Counter()
        #: distinct (round, workload sample) warm-ups seen.
        self.warmup_keys: set = set()
        #: bumped by workloads that repeat a cold round, so warm-up reuse
        #: is counted within one cold regeneration.
        self.round = 0
        self._depth = threading.local()

    def begin(self, name: str) -> None:
        self.events.append(
            ("B", name, time.perf_counter_ns(), threading.get_ident()))

    def end(self, name: str) -> None:
        self.events.append(
            ("E", name, time.perf_counter_ns(), threading.get_ident()))

    @contextlib.contextmanager
    def span(self, name: str):
        self.begin(name)
        try:
            yield
        finally:
            self.end(name)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(name)
        return wrapper

    # -- layer-specific wrappers -------------------------------------------
    def wrap_warm_up(self, fn):
        """``TieredVM.warm_up``: also counts interpreted bytecodes and the
        distinct (workload sample) warm-ups, for the reuse ratio."""
        @functools.wraps(fn)
        def warm_up(vm, entry, args_list):
            program = (tuple(sorted(vm.program.classes)),
                       tuple(sorted(vm.program.methods)))
            self.warmup_keys.add(
                (self.round, entry, repr(args_list), program))
            before = vm.interpreter.bytecodes_executed
            self.counts["runtime.warmup"] += 1
            self.begin("runtime.warmup")
            try:
                return fn(vm, entry, args_list)
            finally:
                self.end("runtime.warmup")
                self.counts["runtime.bytecodes"] += (
                    vm.interpreter.bytecodes_executed - before)
        return warm_up

    def wrap_execute(self, fn):
        """``Machine.execute``: one span per outermost activation, plus
        activation and retired-uop counts."""
        local = self._depth

        @functools.wraps(fn)
        def execute(machine, compiled, args):
            self.counts["hw.activations"] += 1
            depth = getattr(local, "n", 0)
            if depth:
                local.n = depth + 1
                try:
                    return fn(machine, compiled, args)
                finally:
                    local.n = depth
            stats = machine.stats
            before = stats.uops_retired
            local.n = 1
            self.begin("hw.execute")
            try:
                return fn(machine, compiled, args)
            finally:
                self.end("hw.execute")
                local.n = 0
                self.counts["hw.uops"] += stats.uops_retired - before
        return execute

    # -- reductions --------------------------------------------------------
    def self_times(self) -> tuple[dict[str, float], dict[str, float]]:
        """(self seconds, inclusive seconds) per layer name."""
        own: Counter = Counter()
        inclusive: Counter = Counter()
        stacks: dict[int, list] = {}
        for ph, name, ts, tid in self.events:
            stack = stacks.setdefault(tid, [])
            if ph == "B":
                stack.append([name, ts, 0])
                continue
            opened, start, covered = stack.pop()
            if opened != name:
                raise ValueError(f"span {name!r} closed inside {opened!r}")
            duration = ts - start
            own[name] += duration - covered
            inclusive[name] += duration
            if stack:
                stack[-1][2] += duration
        if any(stacks.values()):
            raise ValueError("unclosed spans at the end of the trace")
        to_s = 1e-9
        return ({k: v * to_s for k, v in own.items()},
                {k: v * to_s for k, v in inclusive.items()})

    def chrome_trace(self) -> dict:
        """The spans as a Chrome trace document (``ts`` in microseconds)."""
        if not self.events:
            return {"traceEvents": [], "displayTimeUnit": "ms"}
        origin = self.events[0][2]
        tids: dict[int, int] = {}
        events = [{"name": "process_name", "ph": "M", "pid": HOST_PID,
                   "tid": 0, "args": {"name": "host layers"}}]
        for ph, name, ts, tid in self.events:
            events.append({
                "name": name, "cat": "host", "ph": ph, "pid": HOST_PID,
                "tid": tids.setdefault(tid, len(tids)),
                "ts": (ts - origin) // 1000, "args": {},
            })
        return {"traceEvents": events, "displayTimeUnit": "ms",
                "otherData": {"source": "benchmarks/e2e", "clock": "host"}}

    def dump(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.chrome_trace()) + "\n")


def _patch_points(rec: Recorder) -> list[tuple[object, str, object]]:
    """(owner, attribute, replacement) for every instrumented layer."""
    from repro.harness import diskcache, experiment, figures
    from repro.hw.machine import Machine
    from repro.service import client, server
    from repro.vm import compiler, vm
    from repro.opt.inline import Inliner
    from repro.workloads import ALL_WORKLOADS

    def by_name(owner, attr, layer):
        return owner, attr, rec.wrap(layer, getattr(owner, attr))

    points = [
        by_name(vm, "validate_program", "lang.validate"),
        by_name(vm, "compile_method", "vm.compile"),
        by_name(compiler, "build_ir", "ir.build"),
        by_name(Inliner, "run", "opt.inline"),
        by_name(compiler, "form_regions", "atomic.form_regions"),
        by_name(compiler, "optimize", "opt.optimize"),
        by_name(compiler, "apply_sle", "atomic.sle"),
        by_name(compiler, "generate_code", "hw.codegen"),
        by_name(Machine, "prepare", "hw.prepare"),
        by_name(figures, "run_workload", "harness.cell"),
        by_name(experiment, "run_workload", "harness.cell"),
        by_name(diskcache.HotCache, "get", "harness.hot_get"),
        by_name(diskcache.HotCache, "put", "harness.hot_put"),
        by_name(server, "validate_cell", "service.validate"),
        by_name(server, "result_payload", "service.payload"),
        by_name(server, "payload_digest", "service.payload"),
        by_name(server, "encode", "service.codec"),
        by_name(server, "decode", "service.codec"),
        by_name(client, "encode", "service.codec"),
        by_name(client, "decode", "service.codec"),
        (vm.TieredVM, "warm_up", rec.wrap_warm_up(vm.TieredVM.warm_up)),
        (Machine, "execute", rec.wrap_execute(Machine.execute)),
    ]
    points += [(w, "build", rec.wrap("workloads.build", w.build))
               for w in ALL_WORKLOADS.values()]
    return points


@contextlib.contextmanager
def installed(rec: Recorder):
    """Route every instrumented layer through ``rec`` for the block."""
    points = _patch_points(rec)
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in points]
    try:
        for owner, attr, replacement in points:
            setattr(owner, attr, replacement)
        yield rec
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
