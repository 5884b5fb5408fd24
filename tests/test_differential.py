"""Cross-tier differential-fuzz sweep, with tracing as a no-op observer.

Every seeded random guest program is pushed through every execution tier —
tier-0 interpreter, raw IR, the optimization pipeline, atomic-region
formation, and the compiled machine — and all five must agree on the
observable outcome (return value, guest exception, heap digest where
available).  Programs are ``parametric``: they are profiled with one
argument and measured with another, so region-formed code genuinely fires
its hardware asserts and the sweep exercises abort/rollback, not just the
commit path.

On top of the tier oracle, the sweep proves the observability subsystem is
invisible: running with a live :class:`repro.obs.Tracer` must produce
byte-identical outcomes and ``ExecStats.summary()`` dicts as the null
tracer, and two traced runs of the same seed must produce bit-identical
event streams.

The seed window is CI-shardable: ``DIFF_SEED_BASE`` / ``DIFF_SEED_COUNT``
environment variables move it (defaults cover seeds 0..49).
"""

from __future__ import annotations

import os
from dataclasses import replace
from functools import partial

import pytest

from repro.atomic import form_regions
from repro.faults import FaultPlan
from repro.harness import experiment, run_workload
from repro.harness.parallel import HARDWARE_CONFIGS
from repro.hw import BASELINE_4WIDE, CacheConfig
from repro.obs import Tracer
from repro.opt import optimize
from repro.runtime import GuestError
from repro.testutil import outcome_bytecode, outcome_ir, profiled
from repro.testutil.genprog import GenConfig, ProgramGenerator
from repro.vm import ATOMIC_AGGRESSIVE, TieredVM, VMOptions
from repro.workloads import get_workload, workload_names

_SEED_BASE = int(os.environ.get("DIFF_SEED_BASE", "0"))
_SEED_COUNT = int(os.environ.get("DIFF_SEED_COUNT", "50"))
SEEDS = list(range(_SEED_BASE, _SEED_BASE + _SEED_COUNT))

#: profile with one argument, measure with another: the cold paths the
#: profile never saw become asserts in region-formed code, and the
#: measurement argument walks straight into them.
WARM_ARG = 1
RUN_ARG = -3


def _generate(seed: int):
    return ProgramGenerator(
        GenConfig(seed=seed, parametric=True, max_statements=10)
    ).generate()


def _run_tiered(program, tracer=None, timing=True, dispatch="auto", hw=None,
                fault_plan=None):
    """Full tiered execution: warm-up, compile, measure one call."""
    kwargs = {} if hw is None else {"hw_config": hw}
    vm = TieredVM(
        program,
        ATOMIC_AGGRESSIVE,
        options=VMOptions(enable_timing=timing, compile_threshold=1,
                          dispatch=dispatch),
        fault_plan=fault_plan,
        tracer=tracer,
        **kwargs,
    )
    vm.warm_up("main", [[WARM_ARG]] * 3)
    vm.compile_hot(min_invocations=1)
    vm.start_measurement()
    try:
        value, error = vm.run("main", [RUN_ARG]), None
    except GuestError as exc:
        value, error = None, type(exc).__name__
    stats = vm.end_measurement()
    return value, error, stats


class TestCrossTierSweep:
    """Seeded programs through interpreter -> IR -> opt -> regions -> machine."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_all_tiers_agree(self, seed):
        program = _generate(seed)
        expected = outcome_bytecode(program, args=(RUN_ARG,))
        profiles = profiled(program, args=(WARM_ARG,))

        raw_ir, _ = outcome_ir(program, args=(RUN_ARG,), profiles=profiles)
        assert raw_ir == expected, f"seed {seed}: raw IR diverged"

        def opt_only(graph, _program):
            optimize(graph)  # mutates in place; returns pipeline stats

        opt_ir, _ = outcome_ir(
            program, args=(RUN_ARG,), transform=opt_only, profiles=profiles,
        )
        assert opt_ir == expected, f"seed {seed}: optimized IR diverged"

        def regions_then_opt(graph, _program):
            form_regions(graph)
            optimize(graph)

        region_ir, _ = outcome_ir(
            program, args=(RUN_ARG,), transform=regions_then_opt,
            profiles=profiles,
        )
        assert region_ir == expected, f"seed {seed}: region-formed IR diverged"

        value, error, _stats = _run_tiered(program, timing=False)
        assert (value, error) == (expected.value, expected.error), (
            f"seed {seed}: compiled machine diverged"
        )

    def test_sweep_fires_asserts(self):
        """The parametric warm/run split must actually exercise aborts:
        a sweep where every region commits would prove nothing about
        rollback."""
        aborted = 0
        for seed in SEEDS:
            _, _, stats = _run_tiered(_generate(seed), timing=False)
            aborted += stats.regions_aborted
        assert aborted > 0


class TestTracingChangesNothing:
    """The headline oracle: a live tracer is observationally inert."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_traced_run_byte_identical(self, seed):
        program = _generate(seed)
        null_value, null_error, null_stats = _run_tiered(program)
        tracer = Tracer()
        value, error, stats = _run_tiered(_generate(seed), tracer=tracer)
        assert (value, error) == (null_value, null_error)
        assert stats.summary() == null_stats.summary()
        # Same seed, same tracer: the event stream replays bit-for-bit.
        replay = Tracer()
        _run_tiered(_generate(seed), tracer=replay)
        assert replay.events == tracer.events
        assert replay.emitted == tracer.emitted

    def test_region_activity_is_traced(self):
        """At least one sweep seed must produce region lifecycle events —
        otherwise the bit-identical assertion above compares empty lists."""
        kinds = set()
        for seed in SEEDS[:10]:
            tracer = Tracer()
            _run_tiered(_generate(seed), tracer=tracer)
            kinds.update(event.kind for event in tracer.events)
        assert "region_enter" in kinds
        assert "tier_compile" in kinds


#: the host fast tier under differential test, by the fault plan that
#: selects each profile under ``dispatch="auto"``: an attached injector
#: with ``FaultPlan.none()`` runs the faulted profile's fused code, whose
#: region functions probe after every uop (the test id is the one the
#: sweep has always used for that cell), no injector the unfaulted
#: profile's, traced or not.
FAST_TIERS = [pytest.param(FaultPlan.none(), id="predecoded"),
              pytest.param(None, id="jit")]


class TestDispatchEquivalence:
    """Every fast dispatch tier is observationally inert: byte-identical
    outcomes, ``ExecStats.summary()`` dicts, and traced event streams
    versus the interpretive loop, seed by seed."""

    @pytest.mark.parametrize("plan", FAST_TIERS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_fast_path_byte_identical(self, seed, plan):
        """Timed run: same outcome and stats summary — including every
        cycle-level counter the timing model feeds — both dispatch ways."""
        fast = _run_tiered(_generate(seed), fault_plan=plan)
        slow = _run_tiered(_generate(seed), dispatch="interpretive")
        assert (fast[0], fast[1]) == (slow[0], slow[1]), (
            f"seed {seed}: fast tier ({plan}) disagrees on the outcome"
        )
        assert fast[2].summary() == slow[2].summary(), (
            f"seed {seed}: fast tier ({plan}) disagrees on ExecStats"
        )

    @pytest.mark.parametrize("plan", FAST_TIERS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_fast_path_byte_identical_functional(self, seed, plan):
        """Untimed run: the functional-mode stats agree too."""
        fast = _run_tiered(_generate(seed), timing=False, fault_plan=plan)
        slow = _run_tiered(_generate(seed), timing=False,
                           dispatch="interpretive")
        assert (fast[0], fast[1]) == (slow[0], slow[1])
        assert fast[2].summary() == slow[2].summary()

    @pytest.mark.parametrize("plan", FAST_TIERS)
    @pytest.mark.parametrize("seed", SEEDS[:10])
    def test_traced_event_streams_identical(self, seed, plan):
        """With a live tracer the fast tier itself runs — traced runs
        take the same tables as untraced ones — and emits an event
        stream bit-identical to the reference loop's."""
        fast_tracer = Tracer()
        fast = _run_tiered(_generate(seed), tracer=fast_tracer,
                           fault_plan=plan)
        slow_tracer = Tracer()
        slow = _run_tiered(_generate(seed), tracer=slow_tracer,
                           dispatch="interpretive")
        assert (fast[0], fast[1]) == (slow[0], slow[1])
        assert fast[2].summary() == slow[2].summary()
        assert fast_tracer.events == slow_tracer.events
        assert fast_tracer.emitted == slow_tracer.emitted


#: bounded-capacity x fallback-mode x delivery matrix for the variant
#: equivalence sweep: tight bounds so seeded programs actually trip them.
_TINY_L1 = CacheConfig(256, 2, 64, 4)
HTM_MATRIX = [
    BASELINE_4WIDE.scaled(name="diff-rock", htm_mode="store_buffer",
                          spec_store_buffer_entries=2),
    BASELINE_4WIDE.scaled(name="diff-cache", htm_mode="cache_shaped",
                          l1_config=_TINY_L1),
    BASELINE_4WIDE.scaled(name="diff-rock-lock-begin",
                          htm_mode="store_buffer",
                          spec_store_buffer_entries=2,
                          fallback_lock_mode="begin"),
    BASELINE_4WIDE.scaled(name="diff-cache-lock-end",
                          htm_mode="cache_shaped", l1_config=_TINY_L1,
                          fallback_lock_mode="end"),
    BASELINE_4WIDE.scaled(name="diff-rock-setjmp", htm_mode="store_buffer",
                          spec_store_buffer_entries=2,
                          abort_delivery="setjmp"),
    BASELINE_4WIDE.scaled(name="diff-rock-lock-setjmp",
                          htm_mode="store_buffer",
                          spec_store_buffer_entries=2,
                          fallback_lock_mode="begin",
                          abort_delivery="setjmp"),
]


class TestHTMVariantEquivalence:
    """Every best-effort HTM shape is a *performance* variant, never a
    semantics variant: seeded programs must produce the same observable
    outcome on capacity-bounded, fallback-locked, and setjmp-delivered
    machines as on the idealized unbounded substrate."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_variants_agree_with_unbounded(self, seed):
        program = _generate(seed)
        base_value, base_error, _ = _run_tiered(program, timing=False)
        for hw in HTM_MATRIX:
            value, error, _ = _run_tiered(
                _generate(seed), timing=False, hw=hw)
            assert (value, error) == (base_value, base_error), (
                f"seed {seed}: {hw.name} diverged from unbounded baseline"
            )

    @pytest.mark.parametrize("hw", HTM_MATRIX, ids=lambda h: h.name)
    def test_jit_matches_interpretive_on_variants(self, hw):
        """The fused tier specialises its emitted code per HTM shape
        (store bounds, cache-shaped overflow tracking, fallback-begin
        lock checks, setjmp delivery) — every specialisation must stay
        byte-identical to the interpretive loop on that same shape."""
        for seed in SEEDS[:15]:
            jit = _run_tiered(_generate(seed), timing=False,
                              dispatch="auto", hw=hw)
            slow = _run_tiered(_generate(seed), timing=False,
                               dispatch="interpretive", hw=hw)
            assert (jit[0], jit[1]) == (slow[0], slow[1]), (
                f"seed {seed}: jit diverged on {hw.name}"
            )
            assert jit[2].summary() == slow[2].summary(), (
                f"seed {seed}: jit stats diverged on {hw.name}"
            )

    def test_sweep_fires_capacity_aborts(self):
        """The tight bounds must actually trip on sweep programs — a
        sweep where no region ever hits capacity proves nothing about
        the bounded recovery paths."""
        total = 0
        for seed in SEEDS:
            _, _, stats = _run_tiered(
                _generate(seed), timing=False, hw=HTM_MATRIX[0])
            total += stats.capacity_aborts
            if total:
                break
        assert total > 0


#: deterministic atomic-uop programs (scenario builders driven
#: single-threaded): name -> (program factory, warm worker args, run
#: worker args).  Warm and run args differ so compiled code sees operand
#: shapes the profile never did.
def _atomic_cases():
    from repro.workloads.contention import (
        build_counter, build_msqueue, build_ticket,
    )

    cases = []
    for primitive in ("faa", "cas", "llsc", "lock"):
        cases.append((f"counter-{primitive}",
                      lambda p=primitive: build_counter(p), [3], [12]))
    for primitive in ("faa", "llsc"):
        cases.append((f"ticket-{primitive}",
                      lambda p=primitive: build_ticket(p), [2, 9], [6, 7]))
    for primitive in ("cas", "lock"):
        cases.append((f"msqueue-{primitive}",
                      lambda p=primitive: build_msqueue(p, 1, 1, 4),
                      [1, 2, 2, 0], [1, 4, 4, 0]))
    return cases


ATOMIC_CASES = _atomic_cases()


def _run_atomic(build, warm_args, run_args, tracer=None, timing=True,
                dispatch="auto", hw=None, fault_plan=None):
    """Tiered run of a contention worker: returns (value, heap fp, stats)."""
    kwargs = {} if hw is None else {"hw_config": hw}
    vm = TieredVM(
        build(),
        ATOMIC_AGGRESSIVE,
        options=VMOptions(enable_timing=timing, compile_threshold=1,
                          dispatch=dispatch),
        fault_plan=fault_plan,
        tracer=tracer,
        **kwargs,
    )
    for _ in range(3):
        warm_shared = vm.run("setup")  # fresh state per warm invocation
        vm.warm_up("worker", [[warm_shared] + list(warm_args)])
    vm.compile_hot(min_invocations=1)
    shared = vm.run("setup")
    vm.start_measurement()
    value = vm.run("worker", [shared] + list(run_args))
    stats = vm.end_measurement()
    return value, vm.heap.fingerprint(), stats


class TestAtomicUopEquivalence:
    """The atomic primitives are execution-strategy invariant: every
    FAA/CAS/LL-SC/monitor program produces a byte-identical outcome (return
    value, heap fingerprint, ``ExecStats.summary()`` — which now carries
    the atomic-uop counters) across the interpretive loop, both fast
    tiers, tracing on/off, and every best-effort HTM shape."""

    @pytest.mark.parametrize("plan", FAST_TIERS)
    @pytest.mark.parametrize("name,build,warm,run",
                             ATOMIC_CASES,
                             ids=[c[0] for c in ATOMIC_CASES])
    def test_dispatch_modes_byte_identical(self, name, build, warm, run,
                                           plan):
        fast = _run_atomic(build, warm, run, fault_plan=plan)
        slow = _run_atomic(build, warm, run, dispatch="interpretive")
        assert fast[0] == slow[0], f"{name}: return values diverged"
        assert fast[1] == slow[1], f"{name}: heap fingerprints diverged"
        assert fast[2].summary() == slow[2].summary(), (
            f"{name}: dispatch modes disagree on ExecStats"
        )
        # The sweep must actually execute atomic uops to prove anything.
        summary = fast[2].summary()
        if "lock" not in name:
            assert (summary["faa_ops"] + summary["cas_ops"]
                    + summary["sc_ops"]) > 0, f"{name}: no atomic uops ran"

    @pytest.mark.parametrize("name,build,warm,run",
                             ATOMIC_CASES,
                             ids=[c[0] for c in ATOMIC_CASES])
    def test_tracing_is_inert(self, name, build, warm, run):
        null = _run_atomic(build, warm, run)
        tracer = Tracer()
        traced = _run_atomic(build, warm, run, tracer=tracer)
        assert traced[0] == null[0]
        assert traced[1] == null[1]
        assert traced[2].summary() == null[2].summary()
        replay = Tracer()
        _run_atomic(build, warm, run, tracer=replay)
        assert replay.events == tracer.events
        assert replay.emitted == tracer.emitted

    @pytest.mark.parametrize("name,build,warm,run",
                             ATOMIC_CASES,
                             ids=[c[0] for c in ATOMIC_CASES])
    def test_htm_variants_agree(self, name, build, warm, run):
        from repro.hw import htm_variant_configs

        base_value, base_fp, _ = _run_atomic(build, warm, run, timing=False)
        for hw in htm_variant_configs():
            value, fp, _ = _run_atomic(build, warm, run, timing=False, hw=hw)
            assert (value, fp) == (base_value, base_fp), (
                f"{name}: {hw.name} diverged from unbounded baseline"
            )


class TestParallelSweepEquivalence:
    """Sweeps through the supervisor's pool merge deterministically:
    parallel and serial sweeps over the same seeds/cells are
    byte-identical."""

    BENCHES = ["fop", "hsqldb"]

    def test_figure_tables_identical_parallel_vs_serial(self):
        from repro.harness import (
            SupervisorConfig, clear_cache, figure7, figure8,
            prewarm_figures, render,
        )

        clear_cache()
        serial = (render(figure7(self.BENCHES)),
                  render(figure8(self.BENCHES)))
        clear_cache()
        outcome = prewarm_figures(self.BENCHES,
                                  supervisor=SupervisorConfig(workers=2))
        assert outcome.ok and outcome.completed > 0
        parallel = (render(figure7(self.BENCHES)),
                    render(figure8(self.BENCHES)))
        clear_cache()
        assert parallel == serial

    def test_chaos_matrix_identical_parallel_vs_serial(self):
        from repro.harness import (
            SupervisorConfig, run_chaos, run_chaos_parallel,
        )
        from repro.harness.parallel import COMPILER_CONFIGS

        seeds = (0, 1, 2, 3)
        serial = run_chaos(
            get_workload("fop"), COMPILER_CONFIGS[ATOMIC_AGGRESSIVE.name],
            seeds=seeds, max_samples=1,
        )
        parallel = run_chaos_parallel(
            "fop", seeds=seeds, max_samples=1,
            supervisor=SupervisorConfig(workers=2),
        )
        assert parallel.host_failures == []
        assert parallel.describe() == serial.describe()
        assert [c.stats.summary() for c in parallel.checks] == [
            c.stats.summary() for c in serial.checks
        ]


class TestCellIdentity:
    """Host-only knobs do not identify a cell: the memo key is the
    modeled configuration, and a cell has no dispatch knob at all (the
    machine picks its path from what is attached to it)."""

    def test_memo_key_is_the_modeled_configuration(self):
        import inspect

        from repro.harness.experiment import memo_key

        assert list(inspect.signature(memo_key).parameters) == [
            "workload_name", "compiler_name", "hardware_name", "timing",
            "force_monomorphic", "adaptive", "fault_plan",
        ]
        assert "dispatch" not in inspect.signature(run_workload).parameters


def _interpretive(monkeypatch) -> None:
    """Make every VM ``run_workload`` builds run the reference loop: the
    production cell with only the dispatch changed."""
    monkeypatch.setattr(experiment, "VMOptions",
                        partial(VMOptions, dispatch="interpretive"))


def _cell_observables(result) -> list:
    return [(s.guest_results, s.stats.summary()) for s in result.samples]


class TestWorkloadFiguresUnchanged:
    """Figure 7/8 inputs are byte-identical with tracing enabled (the
    EXPERIMENTS.md contract: published figures run with the null tracer,
    but a traced rerun reproduces them exactly)."""

    @pytest.mark.parametrize("name", workload_names())
    def test_stats_identical_traced_vs_null(self, name):
        workload = get_workload(name)
        baseline = run_workload(workload, ATOMIC_AGGRESSIVE, use_cache=False)
        traced = run_workload(
            workload, ATOMIC_AGGRESSIVE, tracer=Tracer(capacity=1 << 16)
        )
        assert len(baseline.samples) == len(traced.samples)
        for base, trace in zip(baseline.samples, traced.samples):
            assert trace.guest_results == base.guest_results
            assert trace.stats.summary() == base.stats.summary()

    @pytest.mark.parametrize("plan", FAST_TIERS)
    @pytest.mark.parametrize("name", workload_names())
    def test_stats_identical_fast_vs_interpretive(self, name, plan,
                                                  monkeypatch):
        """Figure 7/8 inputs are byte-identical on every dispatch path
        — the published tables cannot depend on the host fast tiers."""
        workload = get_workload(name)
        fast = run_workload(workload, ATOMIC_AGGRESSIVE, use_cache=False,
                            fault_plan=plan)
        _interpretive(monkeypatch)
        slow = run_workload(workload, ATOMIC_AGGRESSIVE, use_cache=False,
                            fault_plan=plan)
        assert len(fast.samples) == len(slow.samples)
        assert _cell_observables(fast) == _cell_observables(slow)

    @pytest.mark.parametrize("plan", [FaultPlan.seeded(1), None],
                             ids=["seeded-1", "no-plan"])
    @pytest.mark.parametrize("hw", ["4wide", "4wide-htm-lock-begin"])
    def test_traced_cell_matches_interpretive(self, hw, plan, monkeypatch):
        """A traced cell runs fused code (the faulted profile's under a
        fault plan) and still reproduces the reference loop's results,
        stats and full event stream — fault arming, interrupts, retries
        and the fallback lock included."""
        workload = get_workload("hsqldb")
        workload = replace(workload, samples=workload.samples[:1])
        hw_config = HARDWARE_CONFIGS[hw]
        runs = []
        for reference in (False, True):
            if reference:
                _interpretive(monkeypatch)
            tracer = Tracer()
            result = run_workload(workload, ATOMIC_AGGRESSIVE, hw_config,
                                  fault_plan=plan, tracer=tracer)
            assert not tracer.truncated
            runs.append((_cell_observables(result), tracer.events))
        assert runs[0] == runs[1]
        kinds = {event.kind for event in runs[0][1]}
        assert {"region_enter", "region_commit"} <= kinds
        if plan is not None:
            assert {"fault_armed", "interrupt", "region_abort",
                    "region_retry"} <= kinds
            assert ("fallback_lock" in kinds) == (hw != "4wide")
