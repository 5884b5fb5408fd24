"""Forward-progress guarantee: retry budgets, backoff, permanent fallback.

The paper (§3, §5) requires that the hardware "guarantee forward progress":
a region that aborts persistently must not live-lock the program.  The
machine retries conflict aborts from the checkpoint (with exponential
backoff) up to a budget, then takes the software recovery path; a region
whose aborts form a long enough streak is patched so its ``aregion_begin``
jumps straight to the alt-PC forever after.
"""

import pytest

from repro.faults import FaultInjector, FaultPlan
from repro.hw import BASELINE_4WIDE
from repro.lang import ProgramBuilder
from repro.runtime import Interpreter
from repro.vm import ATOMIC, TieredVM, VMOptions

from test_faults import region_loop_program


def run(program, hw, fault_plan=None, measure=(200, 0), timing=False):
    vm = TieredVM(
        program, compiler_config=ATOMIC, hw_config=hw,
        options=VMOptions(enable_timing=timing, compile_threshold=3),
        fault_plan=fault_plan,
    )
    vm.warm_up("work", [[100, 0]] * 3)
    vm.compile_hot(min_invocations=1)
    vm.start_measurement()
    result = vm.run("work", list(measure))
    stats = vm.end_measurement()
    return result, stats, vm


def expected(program, args):
    interp = Interpreter(program)
    return interp.invoke(program.resolve_static("work"), list(args))


class TestConflictRetry:
    def test_single_conflict_retries_within_budget(self):
        """One conflicting region entry: retried, then it succeeds."""
        program = region_loop_program()
        hw = BASELINE_4WIDE.scaled(region_retry_budget=4)
        plan = FaultPlan.single("conflict", region_index=5, offset=2)
        result, stats, _ = run(program, hw, plan)
        assert result == expected(program, (200, 0))
        # The retry redraws the schedule; the one-shot event is spent, so
        # exactly one conflict abort and one transparent retry happen.
        assert stats.abort_reasons["conflict"] == 1
        assert stats.conflict_retries == 1
        assert stats.region_fallbacks == {}

    def test_persistent_conflict_exhausts_budget_then_recovers(self):
        """A region that conflicts on every attempt burns budget+1 aborts,
        then takes the software recovery path — it never live-locks."""
        program = region_loop_program()
        hw = BASELINE_4WIDE.scaled(
            region_retry_budget=3, region_fallback_threshold=None,
        )
        plan = FaultPlan.storm("conflict", offset=2)
        result, stats, _ = run(program, hw, plan, measure=(40, 0))
        assert result == expected(program, (40, 0))
        entries = stats.entries_by_region[("work", 0)]
        aborts = stats.aborts_by_region[("work", 0)]
        # Every original entry retries 3 times then falls back: 4 aborts per
        # logical entry, and all entries abort.
        assert aborts == entries
        assert stats.conflict_retries == (aborts // 4) * 3

    def test_exponential_backoff_accounted(self):
        program = region_loop_program()
        hw = BASELINE_4WIDE.scaled(
            region_retry_budget=3, region_backoff_cycles=10,
            region_fallback_threshold=None,
        )
        plan = FaultPlan.single("conflict", region_index=2, offset=2)

        # The one-shot event is consumed by the first attempt; to keep the
        # conflict persistent across retries use a storm limited by measure
        # size instead.
        plan = FaultPlan.storm("conflict", offset=2)
        result, stats, _ = run(program, hw, plan, measure=(2, 0))
        assert result == expected(program, (2, 0))
        # Each logical entry stalls 10 + 20 + 40 cycles before giving up.
        per_entry = 10 + 20 + 40
        logical_entries = stats.conflict_retries // 3
        assert stats.backoff_cycles == per_entry * logical_entries

    def test_backoff_charged_to_timing(self):
        program = region_loop_program()
        hw = BASELINE_4WIDE.scaled(
            region_retry_budget=2, region_backoff_cycles=1000,
            region_fallback_threshold=None,
        )
        plan = FaultPlan.storm("conflict", offset=2)
        _, with_backoff, _ = run(program, hw, plan, measure=(20, 0),
                                 timing=True)
        hw_free = hw.scaled(region_backoff_cycles=0)
        _, without, _ = run(program, hw_free, plan, measure=(20, 0),
                            timing=True)
        assert with_backoff.backoff_cycles > 0
        assert without.backoff_cycles == 0
        assert with_backoff.cycles > without.cycles

    def test_commit_resets_retry_state(self):
        """Spaced-out conflicts never accumulate toward the budget."""
        program = region_loop_program()
        hw = BASELINE_4WIDE.scaled(region_retry_budget=1,
                                   region_fallback_threshold=4)
        # One conflict every 10th region entry: commits in between reset
        # both the retry count and the abort streak.
        events = tuple(
            FaultPlan.single("conflict", region_index=i, offset=2).events[0]
            for i in range(10, 100, 10)
        )
        plan = FaultPlan(events=events)
        result, stats, _ = run(program, hw, plan)
        assert result == expected(program, (200, 0))
        assert stats.abort_reasons["conflict"] >= 1
        assert stats.region_fallbacks == {}  # streaks never reached 4


class TestPermanentFallback:
    def test_abort_storm_escalates_to_fallback(self):
        """The acceptance scenario: a perpetual-abort schedule terminates
        via the retry-budget fallback, visible in ExecStats."""
        program = region_loop_program()
        hw = BASELINE_4WIDE.scaled(
            region_retry_budget=2, region_fallback_threshold=5,
        )
        plan = FaultPlan.storm("conflict", offset=2)
        result, stats, vm = run(program, hw, plan)
        assert result == expected(program, (200, 0))
        assert stats.region_fallbacks == {("work", 0): 1}
        assert stats.regions_suppressed > 0
        # After the patch no further region entries (or faults) happen.
        record = vm.compiled["work"]
        assert record.compiled.disabled_regions == {0}
        # 5 streak entries x (2 retries + 1 fallback abort) = 15 aborts.
        assert stats.regions_aborted == 15

    def test_assert_storm_also_escalates(self):
        """Non-conflict aborts skip the retry budget but still escalate."""
        program = region_loop_program()
        hw = BASELINE_4WIDE.scaled(region_fallback_threshold=5)
        plan = FaultPlan.storm("assert", offset=2)
        result, stats, _ = run(program, hw, plan)
        assert result == expected(program, (200, 0))
        assert stats.abort_reasons["assert"] == 5
        assert stats.region_fallbacks == {("work", 0): 1}
        assert stats.conflict_retries == 0

    def test_threshold_none_disables_escalation(self):
        program = region_loop_program()
        hw = BASELINE_4WIDE.scaled(
            region_retry_budget=0, region_fallback_threshold=None,
        )
        plan = FaultPlan.storm("assert", offset=2)
        result, stats, _ = run(program, hw, plan, measure=(50, 0))
        assert result == expected(program, (50, 0))
        assert stats.region_fallbacks == {}
        assert stats.regions_suppressed == 0
        # Every entry aborted; recovery always made progress regardless.
        assert stats.regions_aborted == stats.regions_entered

    def test_recompilation_preserves_the_patch(self):
        """The patch is a durable forward-progress decision: recompiling
        (adaptively or otherwise) carries it onto the new code object."""
        program = region_loop_program()
        hw = BASELINE_4WIDE.scaled(region_retry_budget=0,
                                   region_fallback_threshold=3)
        vm = TieredVM(
            program, compiler_config=ATOMIC, hw_config=hw,
            options=VMOptions(enable_timing=False, compile_threshold=3),
            fault_plan=FaultPlan.storm("conflict", offset=2),
        )
        vm.warm_up("work", [[100, 0]] * 3)
        vm.compile_hot(min_invocations=1)
        vm.start_measurement()
        vm.run("work", [100, 0])
        vm.end_measurement()
        assert vm.compiled["work"].compiled.disabled_regions == {0}

        vm.recompile("work", set())
        fresh = vm.compiled["work"].compiled
        assert fresh.disabled_regions == {0}

        # The suppressed region must stay suppressed on the fresh code:
        # re-running enters no regions and injects no further faults.
        vm.start_measurement()
        result = vm.run("work", [100, 0])
        stats = vm.end_measurement()
        assert result == expected(program, (100, 0))
        assert stats.regions_entered == 0
        assert stats.regions_suppressed > 0

    def test_summary_exposes_forward_progress_counters(self):
        program = region_loop_program()
        hw = BASELINE_4WIDE.scaled(region_retry_budget=1,
                                   region_fallback_threshold=3)
        plan = FaultPlan.storm("conflict", offset=2)
        _, stats, _ = run(program, hw, plan)
        summary = stats.summary()
        assert summary["region_fallbacks"] == 1
        assert summary["conflict_retries"] > 0
        assert summary["regions_suppressed"] > 0


class TestProgressStateIsolation:
    def test_streaks_are_per_region_code(self):
        """Two regions in different methods escalate independently."""
        pb = ProgramBuilder()
        pb.cls("Acc", fields=["total"])
        for name in ("work", "work2"):
            m = pb.method(name, params=("n", "trip"))
            n, trip = m.param(0), m.param(1)
            acc = m.new("Acc")
            i = m.const(0)
            one = m.const(1)
            zero = m.const(0)
            m.label("head")
            m.safepoint()
            m.br("ge", i, n, "done")
            t = m.getfield(acc, "total")
            t2 = m.add(t, i)
            m.putfield(acc, "total", t2)
            m.br("le", trip, zero, "next")
            r = m.mod(i, trip)
            m.br("ne", r, zero, "next")
            big = m.mul(t2, t2)
            m.putfield(acc, "total", big)
            m.label("next")
            m.add(i, one, dst=i)
            m.jmp("head")
            m.label("done")
            out = m.getfield(acc, "total")
            m.ret(out)
        program = pb.build()
        hw = BASELINE_4WIDE.scaled(region_retry_budget=0,
                                   region_fallback_threshold=3)
        vm = TieredVM(
            program, compiler_config=ATOMIC, hw_config=hw,
            options=VMOptions(enable_timing=False, compile_threshold=3),
            fault_injector=FaultInjector(FaultPlan.storm("assert", offset=2)),
        )
        vm.warm_up("work", [[100, 0]] * 3)
        vm.warm_up("work2", [[100, 0]] * 3)
        vm.compile_hot(min_invocations=1)
        vm.start_measurement()
        r1 = vm.run("work", [50, 0])
        r2 = vm.run("work2", [50, 0])
        stats = vm.end_measurement()
        assert r1 == r2 == expected(program, (50, 0))
        assert stats.region_fallbacks[("work", 0)] == 1
        assert stats.region_fallbacks[("work2", 0)] == 1


class TestPredecodeInvalidation:
    """The dispatch cache (the fused-run tables) honours a
    forward-progress patch without being rebuilt: ``disable_region``
    keeps it, and the fast path suppresses the patched region."""

    def _patched_vm(self, dispatch):
        program = region_loop_program()
        hw = BASELINE_4WIDE.scaled(region_retry_budget=0,
                                   region_fallback_threshold=3)
        vm = TieredVM(
            program, compiler_config=ATOMIC, hw_config=hw,
            options=VMOptions(enable_timing=False, compile_threshold=3,
                              dispatch=dispatch),
            fault_plan=FaultPlan.storm("conflict", offset=2),
        )
        vm.warm_up("work", [[100, 0]] * 3)
        vm.compile_hot(min_invocations=1)
        vm.start_measurement()
        result = vm.run("work", [100, 0])
        vm.end_measurement()
        return program, vm, result

    def test_disable_region_keeps_dispatch_form(self):
        program, vm, result = self._patched_vm("auto")
        compiled = vm.compiled["work"].compiled
        assert result == expected(program, (100, 0))
        assert compiled.disabled_regions == {0}
        # The fast path executed this method, then the storm escalated to
        # a patch: the dispatch form built before the patch stays.
        jm = compiled._jitted
        assert jm is not None

        # The next fast-path run reuses it and honours the patched region
        # table: no region entries, correct result.
        vm.start_measurement()
        again = vm.run("work", [100, 0])
        stats = vm.end_measurement()
        assert again == result
        assert stats.regions_entered == 0
        assert stats.regions_suppressed > 0
        assert compiled._jitted is jm

    def test_patched_fast_and_slow_paths_agree(self):
        """Post-patch behaviour is dispatch-invariant: the suppressed
        region suppresses identically either way."""
        outcomes = {}
        for dispatch in ("auto", "interpretive"):
            program, vm, result = self._patched_vm(dispatch)
            vm.start_measurement()
            again = vm.run("work", [100, 0])
            stats = vm.end_measurement()
            outcomes[dispatch] = (result, again, stats.summary())
        assert outcomes["auto"] == outcomes["interpretive"]

    def test_adaptive_recompile_keeps_regions_quiet(self):
        """An AdaptiveController recompile after an assert storm must not
        resurrect aborting regions — across the recompile *and* the fresh
        pre-decode cache, the method stays on the non-speculative path."""
        from repro.vm import AdaptiveController

        program = region_loop_program()
        # Genuine assert aborts: the cold path (every iteration, trip=1)
        # was never profiled, so its branch became a region assert.
        hw = BASELINE_4WIDE.scaled(region_fallback_threshold=None)
        vm = TieredVM(
            program, compiler_config=ATOMIC, hw_config=hw,
            options=VMOptions(enable_timing=False, compile_threshold=3),
            # an injector with no fault armed: the faulted profile
            fault_plan=FaultPlan.none(),
        )
        vm.warm_up("work", [[100, 0]] * 3)
        vm.compile_hot(min_invocations=1)
        vm.start_measurement()
        first = vm.run("work", [60, 1])
        stats = vm.end_measurement()
        assert first == expected(program, (60, 1))
        assert stats.abort_reasons["assert"] > 0

        controller = AdaptiveController(
            vm, abort_rate_threshold=0.01, min_region_entries=1,
        )
        decisions = controller.poll()
        assert decisions, "the assert storm must trigger a recompile"
        assert decisions[0].method == "work"

        # Post-recompile: same results, and the offending assert is gone —
        # no aborts on the rebuilt (and freshly pre-decoded) code.
        vm.start_measurement()
        again = vm.run("work", [60, 1])
        stats = vm.end_measurement()
        assert again == first
        assert stats.regions_aborted == 0
