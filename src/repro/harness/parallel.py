"""Experiment cells, the config registries, and sharded sweeps.

:class:`Cell` is the one experiment cell type: a (workload, compiler,
hardware, seed, flags) tuple named against :data:`COMPILER_CONFIGS`,
:data:`HARDWARE_CONFIGS` and the workload registry, keyed by
:func:`repro.harness.experiment.memo_key`, and run by
:func:`compute_cell`.  Figure prewarms and the sweep service
(:mod:`repro.service`) submit the same cells, so a served figure cell
and a prewarmed one share memo and disk-cache entries.

Figure sweeps and chaos matrices decompose into independent cells — one
experiment, or one fault seed — and every cell builds its own VM from
scratch, so cells parallelize across a process pool with no shared
state.  The pool is the sweep supervisor's
(:mod:`repro.harness.supervisor`, the only code that runs one).  Two
disciplines keep the parallel runs byte-identical to serial ones:

- **Deterministic partitioning.**  Work is sharded *by cell*, never by
  splitting a cell: seeds keep their identity (each worker derives its
  fault schedule from its own seed exactly as the serial loop does, the
  ``derive_seed`` discipline), so no PRNG stream ever depends on which
  worker ran it.
- **Deterministic merge.**  The supervisor returns results in
  *submission* order, not completion order, and chaos checks are
  re-sorted into the serial loop's (sample, seed-position) order — so
  reports, tables, and EXPERIMENTS.md output are independent of
  scheduling noise.

With ``workers <= 1`` (the default when ``REPRO_WORKERS`` is unset) the
supervisor runs cells in-process, which is also the reference behavior
the differential suite compares against.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..faults import FaultPlan
from ..hw.config import (
    BASELINE_4WIDE,
    CHKPT_20CYCLE,
    CHKPT_SINGLE_INFLIGHT,
    OOO_2WIDE,
    OOO_2WIDE_HALF,
    htm_variant_configs,
)
from ..vm.compiler import (
    ATOMIC,
    ATOMIC_AGGRESSIVE,
    NO_ATOMIC,
    NO_ATOMIC_AGGRESSIVE,
)
from ..workloads import get_workload
from . import experiment
from .chaos import ChaosReport, run_chaos
from .figures import BENCH_ORDER
from .supervisor import SupervisorConfig, SweepOutcome, run_supervised

#: named configs a worker process can resolve from a picklable cell.
COMPILER_CONFIGS = {
    c.name: c
    for c in (NO_ATOMIC, ATOMIC, NO_ATOMIC_AGGRESSIVE, ATOMIC_AGGRESSIVE)
}
#: the figure machines plus every best-effort HTM variant, by ``.name``.
HARDWARE_CONFIGS = {
    h.name: h
    for h in (BASELINE_4WIDE, CHKPT_20CYCLE, CHKPT_SINGLE_INFLIGHT,
              OOO_2WIDE, OOO_2WIDE_HALF, *htm_variant_configs())
}


# -- cells -------------------------------------------------------------------

@dataclass(frozen=True)
class Cell:
    """One picklable experiment cell (resolved by name where it runs).

    ``seed`` maps to :meth:`repro.faults.FaultPlan.seeded`, the chaos
    harness's default fault schedule.  ``trace`` marks a cell run under
    a live tracer; its key never aliases the untraced cell's.
    """

    workload: str
    compiler: str
    hardware: str = BASELINE_4WIDE.name
    timing: bool = True
    force_monomorphic: bool = False
    adaptive: bool = False
    seed: int | None = None
    trace: bool = False

    def plan(self) -> FaultPlan | None:
        return None if self.seed is None else FaultPlan.seeded(self.seed)

    def key(self) -> tuple:
        """The memo key, plus a ``("traced",)`` suffix for traced cells."""
        return experiment.memo_key(
            self.workload, self.compiler, self.hardware, self.timing,
            self.force_monomorphic, self.adaptive, fault_plan=self.plan(),
        ) + (("traced",) if self.trace else ())

    def run(self, tracer=None) -> experiment.RunResult:
        """Resolve the names and run the cell, bypassing the result memo."""
        return experiment.run_workload(
            get_workload(self.workload),
            COMPILER_CONFIGS[self.compiler],
            HARDWARE_CONFIGS[self.hardware],
            timing=self.timing,
            force_monomorphic=self.force_monomorphic,
            adaptive=self.adaptive,
            fault_plan=self.plan(),
            use_cache=False,
            tracer=tracer,
        )


def figure_cells(benches: list[str] | None = None) -> list[Cell]:
    """Every registry cell the figure drivers consume, in a fixed order.

    Covers Figures 7/8/9, Tables 2/3, and §6.2/§6.3 (§7's adaptive run
    uses a derived workload that only exists in-process, so it stays
    serial).  Order is deterministic: benchmark-major, then config.
    """
    benches = list(benches) if benches is not None else list(BENCH_ORDER)
    cells: list[Cell] = []
    for bench in benches:
        for compiler in (NO_ATOMIC, ATOMIC, NO_ATOMIC_AGGRESSIVE,
                         ATOMIC_AGGRESSIVE):
            cells.append(Cell(bench, compiler.name))
        if (bench == "jython"
                and get_workload(bench).force_monomorphic_sites is not None):
            cells.append(Cell(bench, ATOMIC.name, force_monomorphic=True))
        for hw in (CHKPT_20CYCLE, CHKPT_SINGLE_INFLIGHT):
            cells.append(Cell(bench, ATOMIC_AGGRESSIVE.name, hw.name))
        for hw in (OOO_2WIDE, OOO_2WIDE_HALF):
            cells.append(Cell(bench, NO_ATOMIC.name, hw.name))
            cells.append(Cell(bench, ATOMIC_AGGRESSIVE.name, hw.name))
    return cells


def compute_cell(cell: Cell):
    """Worker entry: run one cell; returns (memo key, result)."""
    return cell.key(), cell.run()


def prewarm_figures(
    benches: list[str] | None = None,
    supervisor: SupervisorConfig | None = None,
    cells: list[Cell] | None = None,
) -> SweepOutcome:
    """Compute figure cells (in parallel) and seed the in-process memo.

    After this, the figure drivers (:func:`repro.harness.figures.figure7`
    etc.) find every registry cell already cached and only glue results
    together.  Returns the sweep's
    :class:`repro.harness.supervisor.SweepOutcome`.  Cells already in
    the memo (or the enabled disk cache) are not recomputed.

    ``supervisor`` (a :class:`repro.harness.supervisor.SupervisorConfig`)
    configures the fault-tolerant supervisor that runs the sweep:
    worker crashes, hangs, and transient failures are retried
    and, with a journal configured, an interrupted prewarm resumes
    without recomputation.  Quarantined cells simply stay uncached — the
    figure drivers compute them serially on demand, so a partial prewarm
    degrades gracefully rather than failing the sweep.
    """
    pending = [
        cell for cell in (cells if cells is not None
                          else figure_cells(benches))
        if cell.key() not in experiment._cache
    ]
    outcome = run_supervised(pending, compute_cell, config=supervisor)
    for pair in outcome.results:
        if pair is not None:
            experiment.install_cached(*pair)
    return outcome


# -- sharded chaos sweeps -----------------------------------------------------

def _chaos_shard(spec: tuple) -> ChaosReport:
    """Worker entry: the full sample matrix for one fault seed."""
    (workload_name, compiler_name, seed, hw_name, storm_reason,
     max_samples) = spec
    plan_factory = (
        None if storm_reason is None
        else (lambda _seed: FaultPlan.storm(storm_reason, offset=2))
    )
    return run_chaos(
        get_workload(workload_name),
        COMPILER_CONFIGS[compiler_name],
        seeds=(seed,),
        hw_config=HARDWARE_CONFIGS[hw_name],
        plan_factory=plan_factory,
        max_samples=max_samples,
    )


def run_chaos_parallel(
    workload_name: str,
    compiler_name: str = ATOMIC_AGGRESSIVE.name,
    seeds=(0, 1, 2),
    hw_name: str = BASELINE_4WIDE.name,
    storm_reason: str | None = None,
    max_samples: int | None = None,
    supervisor: SupervisorConfig | None = None,
) -> ChaosReport:
    """Seed-sharded :func:`repro.harness.chaos.run_chaos`.

    Each worker runs the complete sample matrix for one seed — the fault
    schedule is a pure function of that seed, so sharding cannot perturb
    it — and the merged report re-sorts checks into the serial loop's
    (sample index, seed position) order, making the merged report
    byte-identical to a serial ``run_chaos`` over the same seeds.

    Shards run through the sweep supervisor (``supervisor`` configures
    it): crashed/hung/flaky shards are retried with backoff, a journal
    makes an interrupted matrix resumable, and a shard that exhausts its
    budget lands in ``ChaosReport.host_failures`` (the merged report
    stays partial-but-explicit instead of dying).
    """
    seeds = list(seeds)
    specs = [
        (workload_name, compiler_name, seed, hw_name, storm_reason,
         max_samples)
        for seed in seeds
    ]
    outcome = run_supervised(specs, _chaos_shard, config=supervisor)
    shards = [shard for shard in outcome.results if shard is not None]
    seed_position = {seed: i for i, seed in enumerate(seeds)}
    merged = ChaosReport()
    merged.host_failures = list(outcome.failures)
    merged.checks = sorted(
        (check for shard in shards for check in shard.checks),
        key=lambda c: (c.sample_index, seed_position[c.seed]),
    )
    return merged
