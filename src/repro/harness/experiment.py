"""Experiment driver: run a workload under a compiler+hardware config.

Mirrors the paper's method (§5): warm the VM up until the staged optimizer
has produced fully optimized code, then measure a bounded amount of
program-level work, identical across compiler configurations, and weight
multi-phase benchmarks by each phase's contribution.

Results are memoized per (workload, compiler, hardware, flags) because
every figure shares runs with every other figure.  Warm-up is memoized too,
per workload sample: it is pure tier-0 profiling, identical under every
configuration, so each sample is warmed once and every cell starts from a
private copy of that state.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..faults import FaultPlan
from ..hw.config import BASELINE_4WIDE, HardwareConfig
from ..hw.stats import ExecStats
from ..vm.adaptive import AdaptiveController
from ..vm.compiler import CompilerConfig
from ..vm.vm import TieredVM, VMOptions, WarmState
from ..workloads.base import Workload
from . import diskcache


@dataclass
class SampleResult:
    """One measured phase."""

    weight: float
    stats: ExecStats
    guest_results: list
    compiled_methods: int
    recompilations: int = 0

    @property
    def cycles(self) -> float:
        return self.stats.cycles

    @property
    def uops(self) -> int:
        return self.stats.uops_retired


@dataclass
class RunResult:
    """One workload under one configuration (all phases)."""

    workload: str
    compiler: str
    hardware: str
    samples: list[SampleResult] = field(default_factory=list)

    def weighted(self, metric) -> float:
        total_weight = sum(s.weight for s in self.samples)
        return sum(metric(s) * s.weight for s in self.samples) / total_weight

    @property
    def cycles(self) -> float:
        return self.weighted(lambda s: s.cycles)

    @property
    def uops(self) -> float:
        return self.weighted(lambda s: float(s.uops))

    def weighted_ratio(self, baseline: "RunResult", metric) -> float:
        """Per-sample ratio vs. baseline, phase-weighted (the paper's
        methodology for multi-sample benchmarks)."""
        total_weight = sum(s.weight for s in self.samples)
        acc = 0.0
        for mine, base in zip(self.samples, baseline.samples):
            acc += (metric(base) / metric(mine)) * mine.weight
        return acc / total_weight

    def speedup_over(self, baseline: "RunResult") -> float:
        """Percent execution-time speedup over ``baseline`` (Figure 7)."""
        return (self.weighted_ratio(baseline, lambda s: s.cycles) - 1.0) * 100.0

    def uop_reduction_over(self, baseline: "RunResult") -> float:
        """Percent dynamic-uop reduction (Figure 8)."""
        ratio = self.weighted_ratio(baseline, lambda s: float(s.uops))
        return (1.0 - 1.0 / ratio) * 100.0

    # -- Table 3 aggregates ---------------------------------------------------
    @property
    def coverage(self) -> float:
        return self.weighted(lambda s: s.stats.coverage)

    @property
    def unique_regions(self) -> float:
        return self.weighted(lambda s: float(len(s.stats.unique_regions)))

    @property
    def mean_region_size(self) -> float:
        return self.weighted(lambda s: s.stats.mean_region_size)

    @property
    def abort_pct(self) -> float:
        return self.weighted(lambda s: s.stats.abort_rate) * 100.0

    @property
    def aborts_per_kuop(self) -> float:
        return self.weighted(lambda s: s.stats.aborts_per_kuop)


_cache: dict[tuple, RunResult] = {}
#: warmed state per workload sample; see :func:`warmed`.
_warm: dict[tuple, WarmState] = {}


def clear_cache() -> None:
    """Drop memoized results and warm-ups: the next cells run cold."""
    _cache.clear()
    _warm.clear()


def warmed(workload: Workload, index: int) -> WarmState:
    """A private copy of the tier-0 warm-up state of sample ``index``.

    The first call per sample builds the program and warms it up; later
    calls copy the stored state.  The key is everything warm-up reads —
    the build callable, the entry and the sample's index and warm args —
    not the workload's name, so a renamed variant with the same inputs
    shares the entry and a same-named one with other inputs does not.
    """
    sample = workload.samples[index]
    key = (workload.build, workload.entry, index,
           tuple(tuple(args) for args in sample.warm_args))
    state = _warm.get(key)
    if state is None:
        vm = TieredVM(workload.build(), options=VMOptions(enable_timing=False))
        state = _warm[key] = vm.warm_up(
            workload.entry, [list(a) for a in sample.warm_args])
    return state.copy()


def memo_key(
    workload_name: str,
    compiler_name: str,
    hardware_name: str = BASELINE_4WIDE.name,
    timing: bool = True,
    force_monomorphic: bool = False,
    adaptive: bool = False,
    fault_plan: FaultPlan | None = None,
) -> tuple:
    """The canonical memoization key for one experiment cell.

    Shared by :func:`run_workload` and the parallel runner (which computes
    cells in worker processes and installs the results here), so the two
    can never disagree about what identifies a cell.  Only what the
    modeled result depends on is in it: host-only knobs (the dispatch
    tier) are not, so each cell is computed and cached once.
    """
    return (
        workload_name, compiler_name, hardware_name, timing,
        force_monomorphic, adaptive, fault_plan,
    )


def install_cached(key: tuple, result: RunResult) -> None:
    """Seed the in-memory memo table with an externally computed cell."""
    _cache[key] = result


def run_workload(
    workload: Workload,
    compiler_config: CompilerConfig,
    hw_config: HardwareConfig = BASELINE_4WIDE,
    timing: bool = True,
    force_monomorphic: bool = False,
    adaptive: bool = False,
    fault_plan: FaultPlan | None = None,
    use_cache: bool = True,
    tracer=None,
    dispatch: str = "auto",
    disk_cache: bool | None = None,
) -> RunResult:
    """Run every sample of ``workload`` under the given configuration.

    ``tracer`` (a :class:`repro.obs.Tracer`) records region-lifecycle
    events across all samples; traced runs bypass the cache so a stateful
    tracer never leaks into (or out of) memoized results.

    ``use_cache=False`` bypasses only the result memo.  Every cell starts
    from a private copy of its samples' memoized warm-up (:func:`warmed`),
    whatever ``use_cache`` says: warm-up reads no configuration, so
    sharing it cannot change a result.

    ``dispatch`` selects the machine's uop dispatch tier (see
    :class:`repro.hw.machine.Machine`).  Every tier is observationally
    identical, so it is not part of the memo key: a memoised cell is
    returned whatever tier is asked for, and tests that compare tiers
    pass ``use_cache=False``.

    ``disk_cache`` additionally consults/updates the on-disk result cache
    (:mod:`repro.harness.diskcache`, content-hash keyed so any source
    change invalidates it); None defers to ``REPRO_DISK_CACHE``.
    """
    if tracer is not None:
        use_cache = False
    key = memo_key(
        workload.name, compiler_config.name, hw_config.name, timing,
        force_monomorphic, adaptive, fault_plan,
    )
    if use_cache and key in _cache:
        return _cache[key]
    on_disk = diskcache.enabled(disk_cache) and tracer is None
    if on_disk:
        cached = diskcache.load(key)
        if cached is not None:
            if use_cache:
                _cache[key] = cached
            return cached

    result = RunResult(
        workload=workload.name,
        compiler=compiler_config.name,
        hardware=hw_config.name,
    )
    for index, sample in enumerate(workload.samples):
        warm = warmed(workload, index)
        config = compiler_config
        if force_monomorphic and workload.force_monomorphic_sites is not None:
            sites = workload.force_monomorphic_sites(warm.program)
            config = replace(
                config,
                name=config.name + "+mono",
                inline=replace(config.inline, force_monomorphic=sites),
            )
        vm = TieredVM(
            warm,
            compiler_config=config,
            hw_config=hw_config,
            options=VMOptions(
                enable_timing=timing,
                compile_threshold=3,
                dispatch=dispatch,
            ),
            fault_plan=fault_plan,
            tracer=tracer,
            # the warm-up VM validated this program's original
            validate=False,
        )
        vm.compile_hot(min_invocations=1)

        controller = (
            AdaptiveController(vm, abort_rate_threshold=0.01,
                               min_region_entries=20)
            if adaptive else None
        )
        vm.start_measurement()
        guest_results = []
        for args in sample.measure_args:
            guest_results.append(vm.run(workload.entry, list(args)))
            if controller is not None:
                controller.poll()
        stats = vm.end_measurement()
        result.samples.append(
            SampleResult(
                weight=sample.weight,
                stats=stats,
                guest_results=guest_results,
                compiled_methods=len(vm.compiled),
                recompilations=len(controller.decisions) if controller else 0,
            )
        )
    if use_cache:
        _cache[key] = result
    if on_disk:
        diskcache.store(key, result)
    return result


def verify_workload_correctness(workload: Workload, compiler_config,
                                hw_config=BASELINE_4WIDE) -> None:
    """Assert VM results equal pure-interpreter results for every sample."""
    from ..runtime.interpreter import Interpreter

    run = run_workload(workload, compiler_config, hw_config, timing=False,
                       use_cache=False)
    for sample_cfg, sample_run in zip(workload.samples, run.samples):
        program = workload.build()
        interp = Interpreter(program)
        method = program.resolve_static(workload.entry)
        for args in sample_cfg.warm_args:
            interp.invoke(method, list(args))
        expected = [
            interp.invoke(method, list(args)) for args in sample_cfg.measure_args
        ]
        if expected != sample_run.guest_results:
            raise AssertionError(
                f"{workload.name} under {compiler_config.name}: "
                f"VM results {sample_run.guest_results} != interpreter "
                f"{expected}"
            )
