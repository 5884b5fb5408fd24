"""Per-figure/table experiment drivers.

Each function regenerates one table or figure from the paper's evaluation
(§5–§7) and returns structured rows; :mod:`repro.harness.report` renders
them as text.  Benchmarks under ``benchmarks/`` call straight into these.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..hw.config import (
    BASELINE_4WIDE,
    CHKPT_20CYCLE,
    CHKPT_SINGLE_INFLIGHT,
    OOO_2WIDE,
    OOO_2WIDE_HALF,
)
from ..vm.compiler import (
    ATOMIC,
    ATOMIC_AGGRESSIVE,
    NO_ATOMIC,
    NO_ATOMIC_AGGRESSIVE,
)
from ..workloads import ALL_WORKLOADS, get_workload
from ..workloads.base import Workload
from ..workloads.contention import SCENARIOS, contention_workload
from .chaos import run_concurrency_chaos
from .experiment import RunResult, run_workload

#: benchmark order used by every figure (the paper's Table 2 order).
BENCH_ORDER = ["antlr", "bloat", "fop", "hsqldb", "jython", "pmd", "xalan"]


@dataclass
class FigureData:
    """One figure/table: named columns of per-benchmark series."""

    title: str
    columns: list[str]
    rows: dict[str, list[float]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def add(self, bench: str, values: list[float]) -> None:
        self.rows[bench] = values

    def averages(self) -> list[float]:
        if not self.rows:
            return []
        n = len(self.columns)
        return [
            sum(vals[i] for vals in self.rows.values()) / len(self.rows)
            for i in range(n)
        ]


def _runs_for(bench: str, timing: bool = True):
    workload = get_workload(bench)
    base = run_workload(workload, NO_ATOMIC, BASELINE_4WIDE, timing=timing)
    atomic = run_workload(workload, ATOMIC, BASELINE_4WIDE, timing=timing)
    no_atomic_aggr = run_workload(
        workload, NO_ATOMIC_AGGRESSIVE, BASELINE_4WIDE, timing=timing
    )
    atomic_aggr = run_workload(
        workload, ATOMIC_AGGRESSIVE, BASELINE_4WIDE, timing=timing
    )
    return workload, base, atomic, no_atomic_aggr, atomic_aggr


def figure7(benches: list[str] | None = None) -> FigureData:
    """Execution-time speedups over the no-atomic baseline (Figure 7)."""
    data = FigureData(
        title="Figure 7: Execution time speedups (% over no-atomic baseline)",
        columns=["atomic", "no-atomic+aggr-inline", "atomic+aggr-inline"],
    )
    for bench in benches or BENCH_ORDER:
        workload, base, atomic, na, aa = _runs_for(bench)
        values = [
            atomic.speedup_over(base),
            na.speedup_over(base),
            aa.speedup_over(base),
        ]
        data.add(bench, values)
        if bench == "jython" and workload.force_monomorphic_sites is not None:
            forced = run_workload(
                workload, ATOMIC, BASELINE_4WIDE, timing=True,
                force_monomorphic=True,
            )
            data.notes.append(
                f"jython atomic+forced-monomorphic (grey bar): "
                f"{forced.speedup_over(base):+.1f}%"
            )
    return data


def figure8(benches: list[str] | None = None) -> FigureData:
    """Dynamic micro-operation reduction (Figure 8)."""
    data = FigureData(
        title="Figure 8: uop reduction (% over no-atomic baseline)",
        columns=["atomic", "no-atomic+aggr-inline", "atomic+aggr-inline"],
    )
    for bench in benches or BENCH_ORDER:
        _, base, atomic, na, aa = _runs_for(bench)
        data.add(bench, [
            atomic.uop_reduction_over(base),
            na.uop_reduction_over(base),
            aa.uop_reduction_over(base),
        ])
    return data


def table2() -> FigureData:
    """The benchmark roster (Table 2)."""
    data = FigureData(
        title="Table 2: DaCapo benchmarks used in evaluation",
        columns=["#samples"],
    )
    for bench in BENCH_ORDER:
        data.add(bench, [float(len(get_workload(bench).samples))])
        data.notes.append(f"{bench}: {get_workload(bench).description}")
    return data


def table3(benches: list[str] | None = None) -> FigureData:
    """Atomic region statistics (Table 3), atomic+aggressive configuration."""
    data = FigureData(
        title="Table 3: Atomic region statistics (atomic+aggr-inline)",
        columns=["coverage", "unique", "size", "abort%", "aborts/1k-uop"],
    )
    for bench in benches or BENCH_ORDER:
        workload = get_workload(bench)
        run = run_workload(workload, ATOMIC_AGGRESSIVE, BASELINE_4WIDE)
        data.add(bench, [
            run.coverage,
            run.unique_regions,
            run.mean_region_size,
            run.abort_pct,
            run.aborts_per_kuop,
        ])
    return data


def figure9(benches: list[str] | None = None) -> FigureData:
    """Sensitivity to the aregion_begin implementation (Figure 9).

    All rows run the atomic+aggressive code; the hardware varies: the
    checkpoint substrate, a 20-cycle stall at each begin, and a
    single-in-flight-region decode stall.  Speedups are over the no-atomic
    baseline on the unmodified hardware (region knobs don't affect code
    without regions).
    """
    data = FigureData(
        title="Figure 9: Sensitivity to atomic-primitive implementation "
              "(% speedup of atomic+aggr-inline code)",
        columns=["chkpt", "chkpt+20-cycle", "single-inflight"],
    )
    for bench in benches or BENCH_ORDER:
        workload = get_workload(bench)
        base = run_workload(workload, NO_ATOMIC, BASELINE_4WIDE)
        values = []
        for hw in (BASELINE_4WIDE, CHKPT_20CYCLE, CHKPT_SINGLE_INFLIGHT):
            run = run_workload(workload, ATOMIC_AGGRESSIVE, hw)
            values.append(run.speedup_over(base))
        data.add(bench, values)
    return data


def section62(benches: list[str] | None = None) -> FigureData:
    """Region footprint analysis (§6.2): sizes vs. the 128-entry window and
    cache-line footprints vs. the L1."""
    data = FigureData(
        title="Sec 6.2: Region size and data footprint "
              "(atomic+aggr-inline)",
        columns=["%regions>128uops", "median-lines", "p99-lines", "max-lines"],
    )
    for bench in benches or BENCH_ORDER:
        workload = get_workload(bench)
        run = run_workload(workload, ATOMIC_AGGRESSIVE, BASELINE_4WIDE)
        sizes: list[int] = []
        lines: list[int] = []
        for sample in run.samples:
            sizes.extend(sample.stats.region_sizes)
            lines.extend(sample.stats.region_lines)
        if not sizes:
            data.add(bench, [0.0, 0.0, 0.0, 0.0])
            continue
        over_window = 100.0 * sum(1 for s in sizes if s > 128) / len(sizes)
        ordered = sorted(lines)
        median = float(ordered[len(ordered) // 2])
        p99 = float(ordered[min(len(ordered) - 1, int(0.99 * len(ordered)))])
        data.add(bench, [over_window, median, p99, float(max(ordered))])
    return data


def section63(benches: list[str] | None = None) -> FigureData:
    """Narrower cores (§6.3): speedups on 2-wide and 2-wide-half machines
    should track the 4-wide results within a couple of percent."""
    data = FigureData(
        title="Sec 6.3: atomic+aggr-inline speedup across core widths",
        columns=["4wide", "2wide", "2wide-half"],
    )
    for bench in benches or BENCH_ORDER:
        workload = get_workload(bench)
        values = []
        for hw in (BASELINE_4WIDE, OOO_2WIDE, OOO_2WIDE_HALF):
            base = run_workload(workload, NO_ATOMIC, hw)
            run = run_workload(workload, ATOMIC_AGGRESSIVE, hw)
            values.append(run.speedup_over(base))
        data.add(bench, values)
    return data


def adaptive_window(bench: str) -> Workload:
    """``bench`` with each sample's measured window four times longer,
    renamed; its build and warm-up inputs are the source's."""
    source = get_workload(bench)
    return replace(
        source,
        name=f"{bench}-adaptive-window",
        samples=[
            replace(s, measure_args=[list(a) for a in s.measure_args] * 4)
            for s in source.samples
        ],
    )


def section7_adaptive(bench: str = "pmd") -> FigureData:
    """Adaptive recompilation (§7): the phase-changed benchmark, with and
    without the abort-rate-driven controller.

    The measured window is extended to several invocations per phase so the
    controller's recompilation (triggered by the hardware's abort-site
    reports after the first invocation) has a chance to pay off within the
    sample — the paper's continuous-monitoring scenario.
    """
    extended = adaptive_window(bench)
    base = run_workload(extended, NO_ATOMIC, BASELINE_4WIDE)
    plain = run_workload(extended, ATOMIC_AGGRESSIVE, BASELINE_4WIDE)
    adaptive = run_workload(
        extended, ATOMIC_AGGRESSIVE, BASELINE_4WIDE, adaptive=True,
    )
    data = FigureData(
        title=f"Sec 7: adaptive recompilation on {bench}",
        columns=["speedup%", "abort%", "recompilations"],
    )
    data.add("static", [plain.speedup_over(base), plain.abort_pct, 0.0])
    data.add("adaptive", [
        adaptive.speedup_over(base),
        adaptive.abort_pct,
        float(sum(s.recompilations for s in adaptive.samples)),
    ])
    return data


def figure_htm_variants(bench: str = "hsqldb") -> FigureData:
    """Best-effort HTM realism sweep: one benchmark across the substrate
    variants — idealized unbounded regions, the Rock-style speculative
    store buffer, the cache-set-shaped bound, both hybrid fallback-lock
    subscription modes, and setjmp-style abort delivery.

    Rows are variants (not benches); the trailer columns surface the new
    failure machinery: capacity aborts, fallback-lock acquisitions, and
    setjmp condition-code deliveries across the sample set.  The named
    realism variants (Rock's 32-entry buffer, the 32KB 4-way L1 shape)
    comfortably hold every region these workloads form — the zero rows
    are the result — so a second block of deliberately tightened
    "pressure" variants shows each mechanism actually biting.
    """
    from ..hw.config import CacheConfig, htm_variant_configs

    workload = get_workload(bench)
    base = run_workload(workload, NO_ATOMIC, BASELINE_4WIDE)
    data = FigureData(
        title=f"HTM realism: atomic+aggr-inline on {bench} across "
              "best-effort substrate variants",
        columns=["speedup%", "abort%", "capacity", "lock-acq", "setjmp-dlv"],
    )
    tight_cache = CacheConfig(512, 2, 64, 4)   # 4 sets x 2 ways
    pressure = [
        BASELINE_4WIDE.scaled(
            name="rock-4", htm_mode="store_buffer",
            spec_store_buffer_entries=4),
        BASELINE_4WIDE.scaled(
            name="cache-4x2", htm_mode="cache_shaped",
            l1_config=tight_cache),
        BASELINE_4WIDE.scaled(
            name="rock4+lock", htm_mode="store_buffer",
            spec_store_buffer_entries=4, fallback_lock_mode="begin"),
        BASELINE_4WIDE.scaled(
            name="cache+sjmp", htm_mode="cache_shaped",
            l1_config=tight_cache, abort_delivery="setjmp"),
    ]
    for hw in list(htm_variant_configs()) + pressure:
        run = run_workload(workload, ATOMIC_AGGRESSIVE, hw)
        label = hw.name.replace("4wide-htm-", "")
        if label == BASELINE_4WIDE.name:
            label = "unbounded"
        capacity = sum(s.stats.capacity_aborts for s in run.samples)
        lock_acq = sum(s.stats.fallback_lock_acquisitions
                       for s in run.samples)
        setjmp = sum(s.stats.setjmp_deliveries for s in run.samples)
        data.add(label, [
            run.speedup_over(base),
            run.abort_pct,
            float(capacity),
            float(lock_acq),
            float(setjmp),
        ])
    return data


#: the primitive axis of the contention figure: the three architectural
#: atomics, monitor locking, and monitor locking under the atomic compiler
#: config (elided-lock regions) — the region-formation-policy dimension.
CONTENTION_PRIMITIVES = ("faa", "cas", "llsc", "lock", "lock-sle")


def run_contention_cell(scenario: str, primitive: str, threads: int,
                        iters: int = 4, seed: int = 0,
                        quantum: tuple[int, int] = (8, 32)) -> dict:
    """One cell of the contention matrix, oracle-checked.

    Runs the (scenario, primitive, threads) workload under the seeded
    deterministic scheduler via :func:`run_concurrency_chaos` — so every
    cell's guest results are validated against the serializability oracle
    (or the linearizability invariants where whole-thread serializability
    does not apply) — and distills the stats into the throughput/retry
    numbers the scaling figure plots.  ``primitive`` may be any of
    :data:`CONTENTION_PRIMITIVES`; ``lock-sle`` runs the monitor build
    under the atomic compiler config, so its critical sections execute as
    speculative elided-lock regions and its retry traffic is conflict
    aborts rather than failed CAS/SC attempts.
    """
    guest_primitive = "lock" if primitive == "lock-sle" else primitive
    compiler_config = ATOMIC if primitive == "lock-sle" else NO_ATOMIC
    workload = contention_workload(scenario, guest_primitive, threads, iters)
    report = run_concurrency_chaos(
        workload, compiler_config, seeds=(seed,), quantum=quantum,
    )
    check = report.checks[0]
    stats = check.stats
    steps = sum(stats.uops_by_thread.values())
    if scenario == "msqueue":
        ops = sum(args[1] + args[2] for args in workload.thread_args)
    else:
        ops = threads * iters
    retries = (stats.cas_failures + stats.sc_failures
               + stats.conflict_retries)
    return {
        "scenario": scenario,
        "primitive": primitive,
        "threads": threads,
        "iters": iters,
        "seed": seed,
        "ops": ops,
        "steps": steps,
        "steps_per_op": round(steps / ops, 2) if ops else 0.0,
        "throughput_ops_per_kstep": (
            round(1000.0 * ops / steps, 3) if steps else 0.0),
        "cas_failures": stats.cas_failures,
        "sc_failures": stats.sc_failures,
        "conflict_retries": stats.conflict_retries,
        "retries": retries,
        "retries_per_op": round(retries / ops, 4) if ops else 0.0,
        "regions_entered": stats.regions_entered,
        "regions_aborted": stats.regions_aborted,
        "real_conflict_aborts": stats.real_conflict_aborts,
        "context_switches": stats.context_switches,
        "oracle": ("serial-order" if workload.serializable
                   else "invariants"),
        "oracle_ok": check.ok,
        "serial_order_matched": check.serial_order is not None,
    }


def figure_contention(
    scenarios: tuple = SCENARIOS,
    primitives: tuple = CONTENTION_PRIMITIVES,
    threads: tuple = (2, 8, 32),
    iters: int = 4,
    seed: int = 0,
) -> FigureData:
    """Contention scaling: throughput and retry curves vs. thread count.

    The repo's first O(n) vs O(n²) figure: FAA is one indivisible uop, so
    its steps-per-op stays flat as threads pile onto the line, while the
    CAS/LL-SC retry loops span several guest steps and their lost-attempt
    retry traffic grows superlinearly with the thread count.  Not part of
    :func:`all_figures` — the paper's single-threaded figures are pinned
    byte-identical and this one is deliberately additive.
    """
    data = FigureData(
        title="Contention scaling: shared-memory primitives vs. threads",
        columns=["ops/kstep", "steps/op", "retries/op", "aborts", "oracle"],
    )
    for scenario in scenarios:
        for primitive in primitives:
            for count in threads:
                cell = run_contention_cell(
                    scenario, primitive, count, iters=iters, seed=seed,
                )
                data.add(f"{scenario}/{primitive}/t{count}", [
                    cell["throughput_ops_per_kstep"],
                    cell["steps_per_op"],
                    cell["retries_per_op"],
                    float(cell["regions_aborted"]),
                    1.0 if cell["oracle_ok"] else 0.0,
                ])
    data.notes.append(
        "oracle 1.00 = the threaded run matched a serial order "
        "(or every linearizability invariant, for msqueue)")
    return data


def all_figures() -> list[FigureData]:
    """Everything, in paper order (used by the quickstart example).

    :func:`figure_contention` is deliberately NOT included: the paper's
    figures are single-threaded and pinned; the contention figure is the
    additive multi-threaded scaling study (see ``bench_contention.py``).
    """
    return [table2(), figure7(), figure8(), table3(), figure9(),
            section62(), section63(), section7_adaptive(),
            figure_htm_variants()]
