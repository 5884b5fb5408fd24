"""Workload infrastructure: the shape of one synthetic DaCapo benchmark.

We cannot run Java, so each benchmark from the paper's Table 2 is recreated
as a guest program engineered to exhibit the *mechanisms* that give its
namesake its published behavior: hot/cold path structure, monitor density,
receiver-class distributions, region-size potential, and profile/phase
changes.  The per-benchmark docstrings state which published
characteristics (Table 3 columns, §6.1 anecdotes) each program targets.

A workload has one or more *samples* (the paper uses up to four SimPoint
phases per benchmark, Table 2); each sample is a (warm-up args, measured
args, weight) triple executed against a fresh VM, and weighted results are
combined exactly as the paper does: "we report data by weighting the
results for each sample by its phase's contribution".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..lang.bytecode import Program


@dataclass
class Sample:
    """One measured phase of a workload."""

    warm_args: list[list]
    measure_args: list[list]
    weight: float = 1.0


@dataclass
class Workload:
    """One synthetic benchmark."""

    name: str
    description: str
    build: Callable[[], Program]
    samples: list[Sample]
    entry: str = "work"
    #: call sites to treat as monomorphic when the harness applies the
    #: paper's §6.1 jython fix: (method qualified name, bytecode pc).
    force_monomorphic_sites: Callable[[Program], frozenset] | None = None
    #: paper-reported values for EXPERIMENTS.md comparisons.
    paper_coverage: float | None = None
    paper_region_size: float | None = None
    paper_abort_pct: float | None = None
    paper_speedup_aggressive: float | None = None

    def total_weight(self) -> float:
        return sum(s.weight for s in self.samples)


@dataclass
class ThreadedWorkload:
    """A workload run as N concurrent guest threads over shared state.

    The paper's benchmarks are measured single-threaded (Table 2 samples),
    but the atomicity guarantee under test is a multi-thread property; the
    concurrency harness (:func:`repro.harness.run_concurrency_chaos`) runs
    these under the deterministic scheduler and checks every seeded
    interleaving against serial-order executions.

    ``setup`` names a static method that allocates and returns the shared
    state object; ``worker`` a static method whose first parameter receives
    it.  One guest thread is spawned per entry of ``thread_args`` (the
    remaining worker arguments).  Per-thread worker *results* must be
    schedule-independent by construction (workers partition their key
    ranges); the shared state is where interleavings collide, and its final
    fingerprint is the serializability signal.
    """

    name: str
    description: str
    build: Callable[[], Program]
    #: static method allocating the shared state; invoked once per run.
    setup: str
    #: static method each guest thread runs: ``worker(shared, *extra)``.
    worker: str
    #: one extra-argument list per guest thread.
    thread_args: list[list]
    #: worker argument lists used (each against a fresh setup object) to
    #: warm profiles before compilation.
    warm_args: list[list] = field(default_factory=list)
    #: the workers are interchangeable (identical code, commutative effect
    #: on the shared state), so one serial order represents them all and
    #: the oracle need not enumerate ``threads!`` permutations.  Required
    #: for the high-thread-count contention scenarios, where enumerating
    #: permutations is infeasible.
    symmetric: bool = False
    #: whole-thread serializability holds for this workload: a threaded
    #: run's results/heap must equal *some* serial order of the workers.
    #: False for workloads whose outcome legitimately depends on the
    #: interleaving (e.g. competing queue consumers — which consumer gets
    #: which item is schedule-determined); those are checked by replay
    #: determinism plus :attr:`invariants` instead.
    serializable: bool = True
    #: linearizability invariants, each ``fn(shared, results, heap) ->
    #: str | None`` — ``shared`` is the setup object after the threaded
    #: run, ``results`` the per-thread worker returns in tid order; a
    #: non-None return describes the violation.
    invariants: list = field(default_factory=list)

    @property
    def threads(self) -> int:
        return len(self.thread_args)
