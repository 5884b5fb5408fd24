"""Best-effort HTM realism: capacity bounds, fallback lock, abort delivery.

Three families of variants, all riding the same abort/recover substrate:

- **capacity bounds** — a Rock-style tiny speculative store buffer
  (``htm_mode="store_buffer"``) and an L1-geometry bound
  (``htm_mode="cache_shaped"``) abort with the reason ``"capacity"``;
- **hybrid fallback lock** — regions that exhaust their budget serialize
  on a global lock, subscribed either at ``aregion_begin`` (eager
  conflict) or validated at the commit instant (sandboxed);
- **abort delivery** — RTM-style handler arguments (reason code + retry
  hint in registers) vs. Power/z setjmp-style condition-code re-landing.

Every variant must produce the *same guest outcomes* as the idealized
unbounded substrate; the chaos and serializability oracles run unchanged
against the variant hardware configs.
"""

import os

import pytest

from repro.faults import FaultPlan
from repro.harness import run_chaos, run_concurrency_chaos
from repro.hw import (
    ABORT_REASON_CODES,
    BASELINE_4WIDE,
    CacheConfig,
    HTM_FALLBACK_LOCK_BEGIN,
    HTM_FALLBACK_LOCK_END,
    htm_variant_configs,
)
from repro.lang import ProgramBuilder
from repro.runtime import Interpreter, MonitorStateError
from repro.testutil.uopgen import stats_fingerprint
from repro.vm import ATOMIC, TieredVM, VMOptions
from repro.workloads import HSQLDB_THREADED, get_workload

#: tiny L1 for cache-shaped tests: 2 sets x 2 ways of 64-byte lines — any
#: region with three speculative lines in one set overflows.
TINY_L1 = CacheConfig(256, 2, 64, 4)


def chaos_seeds() -> tuple[int, ...]:
    """Scheduler seeds for the threaded fallback-lock sweep; CI shards
    the window via ``CHAOS_SEEDS`` (same contract as test_chaos.py)."""
    spec = os.environ.get("CHAOS_SEEDS", "0,1")
    return tuple(int(part) for part in spec.split(","))


def stride_store_program(stores_per_iter=8, stride_elems=8):
    """Hot loop with a never-taken cold path (so region formation has a
    speculation benefit) whose body stores ``stores_per_iter`` array
    slots, ``stride_elems`` apart (one 64-byte line per store at 8)."""
    pb = ProgramBuilder()
    pb.cls("Acc", fields=["total", "spill"])
    m = pb.method("work", params=("n",))
    n = m.param(0)
    acc = m.new("Acc")
    arr = m.newarr(m.const(stores_per_iter * stride_elems + 1))
    i = m.const(0)
    one = m.const(1)
    zero = m.const(0)
    m.label("head")
    m.safepoint()
    m.br("ge", i, n, "done")
    t = m.getfield(acc, "total")
    m.putfield(acc, "total", m.add(t, i))
    for k in range(stores_per_iter):
        idx = m.add(zero, m.const(k * stride_elems))
        m.astore(arr, idx, i)
    m.br("lt", i, zero, "cold")               # never taken: becomes assert
    m.jmp("next")
    m.label("cold")
    s = m.getfield(acc, "spill")
    m.putfield(acc, "spill", m.add(s, one))
    m.label("next")
    m.add(i, one, dst=i)
    m.jmp("head")
    m.label("done")
    m.ret(m.getfield(acc, "total"))
    return pb.build()


def read_only_region_program(loads_per_iter=8, stride_elems=8):
    """Hot loop whose region body only *reads*: ``loads_per_iter`` array
    loads, one line apart, accumulated in a register — zero buffered
    stores, so any footprint abort proves the bound meters the read set."""
    pb = ProgramBuilder()
    m = pb.method("work", params=("n",))
    n = m.param(0)
    arr = m.newarr(m.const(loads_per_iter * stride_elems + 1))
    i = m.const(0)
    one = m.const(1)
    zero = m.const(0)
    total = m.const(0)
    m.label("head")
    m.safepoint()
    m.br("ge", i, n, "done")
    for k in range(loads_per_iter):
        idx = m.add(zero, m.const(k * stride_elems))
        v = m.aload(arr, idx)
        m.add(total, v, dst=total)
    m.add(total, i, dst=total)
    m.br("lt", i, zero, "cold")               # never taken: becomes assert
    m.jmp("next")
    m.label("cold")
    m.add(total, one, dst=total)
    m.label("next")
    m.add(i, one, dst=i)
    m.jmp("head")
    m.label("done")
    m.ret(total)
    return pb.build()


def make_vm(program, hw, fault_plan=None, dispatch="auto"):
    return TieredVM(
        program, compiler_config=ATOMIC, hw_config=hw,
        options=VMOptions(enable_timing=False, compile_threshold=3,
                          dispatch=dispatch),
        fault_plan=fault_plan,
    )


def run_program(program, hw, n=24, fault_plan=None, dispatch="auto"):
    vm = make_vm(program, hw, fault_plan=fault_plan, dispatch=dispatch)
    vm.warm_up("work", [[200]] * 3)
    vm.compile_hot(min_invocations=1)
    vm.start_measurement()
    result = vm.run("work", [n])
    stats = vm.end_measurement()
    return result, stats, vm


def reference(program, n=24):
    interp = Interpreter(program)
    return interp.invoke(program.resolve_static("work"), [n])


class TestCapacityBounds:
    def test_store_buffer_bound_aborts_with_capacity(self):
        """Rock shape: more buffered stores than the buffer has entries
        aborts "capacity" — and recovery still produces the right answer."""
        program = stride_store_program(stores_per_iter=8, stride_elems=1)
        hw = BASELINE_4WIDE.scaled(
            name="test-rock-4", htm_mode="store_buffer",
            spec_store_buffer_entries=4, region_fallback_threshold=None,
        )
        result, stats, vm = run_program(program, hw)
        assert result == reference(program)
        assert stats.abort_reasons.get("capacity", 0) > 0
        assert stats.capacity_aborts == stats.abort_reasons["capacity"]
        assert vm.machine.abort_reason_register == "capacity"
        assert vm.machine.abort_code_register == ABORT_REASON_CODES["capacity"]
        # Capacity is deterministic for a region's footprint: never
        # hinted as retryable.
        assert vm.machine.abort_retry_hint_register is False

    def test_unbounded_mode_commits_same_program(self):
        """Control: the idealized substrate commits where Rock aborts."""
        program = stride_store_program(stores_per_iter=8, stride_elems=1)
        result, stats, _ = run_program(program, BASELINE_4WIDE)
        assert result == reference(program)
        assert stats.capacity_aborts == 0
        assert stats.abort_reasons.get("capacity", 0) == 0
        assert stats.regions_committed > 0

    def test_cache_shaped_bound_uses_l1_geometry(self):
        """Cache shape: more speculative lines in one L1 set than the
        cache has ways aborts "capacity" (2 sets x 2 ways here; the
        region's 8-line array scan lands 4 lines in each set)."""
        program = stride_store_program(stores_per_iter=8, stride_elems=8)
        hw = BASELINE_4WIDE.scaled(
            name="test-cache-tiny", htm_mode="cache_shaped",
            l1_config=TINY_L1, region_fallback_threshold=None,
        )
        result, stats, _ = run_program(program, hw)
        assert result == reference(program)
        assert stats.abort_reasons.get("capacity", 0) > 0
        # Control: the same tiny L1 *without* the cache-shaped mode never
        # fires capacity — the idealized substrate only meters the global
        # line limit, which this footprint is far below.
        unbounded = BASELINE_4WIDE.scaled(
            name="test-cache-tiny-off", l1_config=TINY_L1,
        )
        result2, stats2, _ = run_program(program, unbounded)
        assert result2 == result
        assert stats2.abort_reasons.get("capacity", 0) == 0
        assert stats2.regions_committed > 0

    def test_reads_only_region_hits_line_limit(self):
        """``region_line_limit`` covers the union of both line sets: a
        region with *zero buffered stores* overflows exactly like a
        store-heavy one once its read set exceeds the bound."""
        program = read_only_region_program(loads_per_iter=8, stride_elems=8)
        hw = BASELINE_4WIDE.scaled(
            name="test-lines-4", region_line_limit=4,
            region_fallback_threshold=None,
        )
        result, stats, vm = run_program(program, hw)
        assert result == reference(program)
        assert stats.abort_reasons.get("overflow", 0) > 0
        assert vm.machine.abort_reason_register == "overflow"
        # every abort in this run is a footprint overflow driven purely
        # by tracked loads.
        assert stats.abort_reasons["overflow"] == stats.regions_aborted


class TestAbortDelivery:
    def test_handler_delivery_reports_code_and_hint(self):
        """RTM shape: after an abort the handler sees the numeric reason
        code and the retry hint in architectural registers."""
        program = stride_store_program()
        plan = FaultPlan.single("assert", region_index=2, offset=2)
        result, stats, vm = run_program(program, BASELINE_4WIDE,
                                        fault_plan=plan)
        assert result == reference(program)
        assert stats.abort_reasons.get("assert", 0) == 1
        assert vm.machine.abort_code_register == ABORT_REASON_CODES["assert"]
        assert vm.machine.abort_retry_hint_register is False

        plan = FaultPlan.single("conflict", region_index=2, offset=2)
        result, stats, vm = run_program(program, BASELINE_4WIDE,
                                        fault_plan=plan)
        assert result == reference(program)
        assert vm.machine.abort_code_register == ABORT_REASON_CODES["conflict"]
        assert vm.machine.abort_retry_hint_register is True

    def test_setjmp_delivery_sets_condition_code(self):
        """Power/z shape: every software-visible abort re-lands on the
        ``aregion_begin`` with the condition code pending — one delivery
        per visible abort, transparent conflict retries excluded."""
        program = stride_store_program()
        hw = BASELINE_4WIDE.scaled(
            name="test-setjmp", abort_delivery="setjmp",
        )
        plan = FaultPlan.storm("assert")
        result, stats, _ = run_program(program, hw, fault_plan=plan)
        assert result == reference(program)
        assert stats.setjmp_deliveries > 0
        assert stats.setjmp_deliveries == (
            stats.regions_aborted - stats.conflict_retries
        )

    def test_setjmp_outcomes_match_handler(self):
        """Delivery is a control-transfer shape, not a semantics change:
        both variants produce identical guest results and abort mixes."""
        program = stride_store_program()
        plan = FaultPlan.seeded(11, interrupt_gap=None)
        handler_result, handler_stats, _ = run_program(
            program, BASELINE_4WIDE, fault_plan=plan)
        setjmp_hw = BASELINE_4WIDE.scaled(
            name="test-setjmp-diff", abort_delivery="setjmp",
        )
        setjmp_result, setjmp_stats, _ = run_program(
            program, setjmp_hw, fault_plan=plan)
        assert setjmp_result == handler_result == reference(program)
        assert setjmp_stats.abort_reasons == handler_stats.abort_reasons
        assert setjmp_stats.regions_committed == handler_stats.regions_committed
        assert handler_stats.setjmp_deliveries == 0

    def test_setjmp_dispatch_equivalence(self):
        """The pre-decoded fast path mirrors setjmp delivery exactly."""
        program = stride_store_program()
        hw = BASELINE_4WIDE.scaled(
            name="test-setjmp-disp", abort_delivery="setjmp",
        )
        plan = FaultPlan.storm("assert")
        fast = run_program(program, hw, fault_plan=plan,
                           dispatch="predecoded")
        slow = run_program(program, hw, fault_plan=plan,
                           dispatch="interpretive")
        assert fast[0] == slow[0]
        assert fast[1].summary() == slow[1].summary()


class TestFallbackLock:
    def _forced_owner_vm(self, mode, dispatch="auto"):
        program = stride_store_program()
        hw = BASELINE_4WIDE.scaled(
            name=f"test-lock-{mode}", fallback_lock_mode=mode,
        )
        vm = make_vm(program, hw, dispatch=dispatch)
        vm.warm_up("work", [[200]] * 3)
        vm.compile_hot(min_invocations=1)
        vm.start_measurement()
        # A foreign thread "holds" the fallback lock; single-threaded, no
        # scheduler can ever release it.
        vm.machine.fallback_lock.force_owner(7)
        return vm

    def test_begin_subscriber_aborts_while_lock_taken(self):
        """Begin-time subscription: the region conflicts immediately on a
        held lock, burns its retry budget, and the escalation fails fast
        with no scheduler to wait on (mirroring contended monitors)."""
        vm = self._forced_owner_vm("begin")
        with pytest.raises(MonitorStateError, match="fallback lock"):
            vm.run("work", [24])
        stats = vm.machine.stats
        budget = vm.machine.config.region_retry_budget
        assert stats.regions_committed == 0
        # transparent retries + the one visible abort that escalated.
        assert stats.abort_reasons.get("conflict", 0) == budget + 1
        assert stats.conflict_retries == budget
        assert stats.real_conflict_aborts == budget + 1

    def test_end_subscriber_validates_at_commit_instant(self):
        """Sandboxed subscription: the region runs blind and only fails
        its lock validation at ``aregion_end`` — every attempt executes
        the whole body before aborting, unlike the begin-time probe."""
        begin_vm = self._forced_owner_vm("begin")
        with pytest.raises(MonitorStateError, match="fallback lock"):
            begin_vm.run("work", [24])
        end_vm = self._forced_owner_vm("end")
        with pytest.raises(MonitorStateError, match="fallback lock"):
            end_vm.run("work", [24])
        stats = end_vm.machine.stats
        budget = end_vm.machine.config.region_retry_budget
        assert stats.regions_committed == 0
        assert stats.abort_reasons.get("conflict", 0) == budget + 1
        # Same abort ladder, strictly more speculative work: each end-mode
        # attempt ran to the commit point before noticing the lock.
        assert end_vm.machine.uops_executed > begin_vm.machine.uops_executed

    @pytest.mark.parametrize("mode", ["begin", "end"])
    def test_escalation_error_is_raised_on_every_tier(self, mode):
        """An error the abort machinery itself raises (the escalation to a
        foreign-owned fallback lock with no scheduler) propagates from the
        reference loop exactly as from the fast tiers: it is not a guest
        fault of the aborting uop, so it never becomes an ``exception``
        abort of the same region."""
        outcomes = []
        for dispatch in ("interpretive", "auto"):
            vm = self._forced_owner_vm(mode, dispatch)
            with pytest.raises(MonitorStateError) as raised:
                vm.run("work", [24])
            stats = vm.machine.stats
            assert "exception" not in stats.abort_reasons
            outcomes.append((str(raised.value), stats_fingerprint(stats),
                             vm.machine.uops_executed))
        assert outcomes[0] == outcomes[1]

    def test_begin_mode_adds_exactly_the_lock_line(self):
        """Eager subscription costs one read-set line per region; the
        sandboxed mode tracks nothing until the commit instant."""
        program = stride_store_program()
        begin_hw = BASELINE_4WIDE.scaled(
            name="test-lock-lines-b", fallback_lock_mode="begin")
        end_hw = BASELINE_4WIDE.scaled(
            name="test-lock-lines-e", fallback_lock_mode="end")
        _, begin_stats, _ = run_program(program, begin_hw)
        _, end_stats, _ = run_program(program, end_hw)
        assert begin_stats.regions_committed == end_stats.regions_committed
        assert begin_stats.region_lines == [
            lines + 1 for lines in end_stats.region_lines
        ]

    def test_escalation_serializes_and_releases(self):
        """End to end, lock free: a capacity storm escalates every region
        to the lock; the recovery passes serialize, the answer is right,
        and the lock is free again when the run ends."""
        program = stride_store_program()
        hw = BASELINE_4WIDE.scaled(
            name="test-lock-escalate", fallback_lock_mode="begin",
        )
        plan = FaultPlan.storm("capacity")
        result, stats, vm = run_program(program, hw, fault_plan=plan)
        assert result == reference(program)
        assert stats.capacity_aborts > 0
        assert stats.fallback_lock_acquisitions > 0
        assert vm.machine.fallback_lock.is_free()

    @pytest.mark.parametrize("hw", [HTM_FALLBACK_LOCK_BEGIN,
                                    HTM_FALLBACK_LOCK_END],
                             ids=lambda hw: hw.name)
    def test_fallback_modes_stay_serializable(self, hw):
        """The serializability oracle passes unchanged on the hybrid
        fallback-lock machines under seeded thread schedules."""
        report = run_concurrency_chaos(
            HSQLDB_THREADED, ATOMIC, seeds=chaos_seeds(), hw_config=hw,
        )
        assert report.checks
        report.raise_on_failure()


class TestVariantChaosMatrix:
    """The acceptance sweep: every best-effort shape through the 3-way
    chaos oracle with capacity faults armed (5 variants x 4 seeds = 20
    seeded runs)."""

    VARIANTS = [hw for hw in htm_variant_configs()
                if hw.name != BASELINE_4WIDE.name]

    @pytest.mark.parametrize("hw", VARIANTS, ids=lambda hw: hw.name)
    def test_variant_survives_seeded_chaos(self, hw):
        plan_factory = lambda seed: FaultPlan.seeded(  # noqa: E731
            seed, capacity_rate=0.08)
        report = run_chaos(
            get_workload("hsqldb"), ATOMIC, seeds=(0, 1, 2, 3),
            hw_config=hw, plan_factory=plan_factory, max_samples=1,
        )
        assert len(report.checks) == 4
        report.raise_on_failure()
        assert report.total_faults_scheduled > 0

    def test_matrix_fires_capacity_aborts(self):
        """The sweep genuinely exercises the new reason: under the Rock
        shape the seeded capacity faults produce "capacity" aborts that
        are visible in ExecStats and the metrics projection."""
        from repro.obs import Metrics

        plan_factory = lambda seed: FaultPlan.seeded(  # noqa: E731
            seed, capacity_rate=0.3)
        hw = next(hw for hw in self.VARIANTS
                  if hw.htm_mode == "store_buffer")
        report = run_chaos(
            get_workload("hsqldb"), ATOMIC, seeds=(0, 1, 2, 3),
            hw_config=hw, plan_factory=plan_factory, max_samples=1,
        )
        report.raise_on_failure()
        total = sum(check.stats.capacity_aborts for check in report.checks)
        assert total > 0
        for check in report.checks:
            metrics = Metrics.from_stats(check.stats)
            assert metrics.counter("capacity_aborts") == (
                check.stats.capacity_aborts
            )
            assert metrics.summary() == check.stats.summary()
