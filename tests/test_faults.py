"""Tests for the deterministic fault-injection subsystem (repro.faults)."""

import pytest

from repro.faults import (
    FAULT_KINDS,
    FaultEvent,
    FaultInjector,
    FaultPlan,
)
from repro.hw import BASELINE_4WIDE
from repro.lang import ProgramBuilder
from repro.runtime import VMError
from repro.vm import ATOMIC, TieredVM, VMOptions


def region_loop_program():
    """Hot loop with a region-friendly cold path (see test_hw_machine)."""
    pb = ProgramBuilder()
    pb.cls("Acc", fields=["total"])
    m = pb.method("work", params=("n", "trip"))
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
    return pb.build()


def run_with_faults(program, fault_plan=None, fault_injector=None,
                    measure=(200, 0), warm=(100, 0), config=ATOMIC,
                    hw=BASELINE_4WIDE, **vm_kwargs):
    vm = TieredVM(
        program, compiler_config=config, hw_config=hw,
        options=VMOptions(enable_timing=False, compile_threshold=3),
        fault_plan=fault_plan, fault_injector=fault_injector, **vm_kwargs,
    )
    vm.warm_up("work", [list(warm)] * 3)
    vm.compile_hot(min_invocations=1)
    vm.start_measurement()
    result = vm.run("work", list(measure))
    stats = vm.end_measurement()
    return result, stats, vm


def reference_result(program, args):
    from repro.runtime import Interpreter

    interp = Interpreter(program)
    method = program.resolve_static("work")
    return interp.invoke(method, list(args))


class TestFaultPlan:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultEvent("meltdown")

    def test_interrupt_needs_absolute_uop(self):
        with pytest.raises(ValueError, match="absolute at_uop"):
            FaultEvent("interrupt")
        with pytest.raises(ValueError, match="region-relative"):
            FaultEvent("conflict", at_uop=100)

    def test_seeded_schedules_need_seed(self):
        with pytest.raises(ValueError, match="need a seed"):
            FaultPlan(region_rates=(("conflict", 0.5),))

    def test_plans_are_hashable_cache_keys(self):
        a = FaultPlan.seeded(7)
        b = FaultPlan.seeded(7)
        c = FaultPlan.seeded(8)
        assert a == b and hash(a) == hash(b)
        assert a != c
        assert len({a, b, c}) == 2

    def test_describe_mentions_layers(self):
        text = FaultPlan.seeded(3).describe()
        assert "seed=3" in text
        assert FaultPlan.periodic_interrupts(100).describe() == (
            "interrupts every 100 uops"
        )
        assert FaultPlan().describe() == "no faults"

    def test_storm_covers_every_region(self):
        plan = FaultPlan.storm("conflict", offset=5)
        injector = FaultInjector(plan)
        for _ in range(10):
            sched = injector.schedule_region(record=None)
            assert sched.conflict_at == 5
        assert injector.scheduled["conflict"] == 10


class TestFaultInjectorDeterminism:
    def test_same_seed_same_schedule(self):
        seeds_a = FaultInjector(FaultPlan.seeded(42))
        seeds_b = FaultInjector(FaultPlan.seeded(42))
        for _ in range(200):
            a = seeds_a.schedule_region(record=None)
            b = seeds_b.schedule_region(record=None)
            assert (a.conflict_at, a.assert_at, a.exception_at, a.line_limit) \
                == (b.conflict_at, b.assert_at, b.exception_at, b.line_limit)
        assert seeds_a.scheduled == seeds_b.scheduled

    def test_different_seeds_diverge(self):
        a = FaultInjector(FaultPlan.seeded(1))
        b = FaultInjector(FaultPlan.seeded(2))
        draws_a = [a.schedule_region(None).conflict_at for _ in range(100)]
        draws_b = [b.schedule_region(None).conflict_at for _ in range(100)]
        assert draws_a != draws_b

    def test_reset_rewinds_schedule(self):
        injector = FaultInjector(FaultPlan.seeded(9))
        first = [injector.schedule_region(None).assert_at for _ in range(50)]
        injector.reset()
        again = [injector.schedule_region(None).assert_at for _ in range(50)]
        assert first == again

    def test_indexed_event_fires_once_on_target_region(self):
        plan = FaultPlan.single("assert", region_index=3, offset=7)
        injector = FaultInjector(plan)
        offsets = [injector.schedule_region(None).assert_at for _ in range(6)]
        assert offsets == [None, None, None, 7, None, None]


class TestInterruptThreshold:
    def test_threshold_never_silently_missed(self):
        """An interrupt whose boundary lands between checks still pends.

        The old ``uops % interval == 0`` test fired only if a check landed
        exactly on the modulo boundary; an absolute threshold fires at the
        first check at-or-after it.
        """
        injector = FaultInjector(FaultPlan.periodic_interrupts(100))
        # Checks at 97 and 205: the uop-100 boundary falls between them.
        assert not injector.take_interrupt(97)
        assert injector.take_interrupt(205)
        # Re-armed relative to delivery: no stale-interrupt storm.
        assert not injector.take_interrupt(206)
        assert injector.take_interrupt(305)

    def test_one_shot_absolute_interrupt(self):
        injector = FaultInjector(FaultPlan.single("interrupt", at_uop=500))
        assert not injector.take_interrupt(499)
        assert injector.take_interrupt(10_000)   # late check still fires
        assert not injector.take_interrupt(20_000)  # one-shot

    def test_machine_interrupt_uses_absolute_threshold(self):
        """End to end: a sparse-check execution still sees interrupts."""
        program = region_loop_program()
        result, stats, _ = run_with_faults(
            program, fault_plan=FaultPlan.periodic_interrupts(997),
            measure=(300, 0),
        )
        assert result == reference_result(program, (300, 0))
        assert stats.abort_reasons.get("interrupt", 0) >= 1


class TestInjectedFaultKinds:
    @pytest.mark.parametrize("kind", ["assert", "exception", "conflict"])
    def test_region_fault_aborts_and_recovers(self, kind):
        program = region_loop_program()
        plan = FaultPlan.single(kind, region_index=5, offset=2)
        result, stats, vm = run_with_faults(program, fault_plan=plan)
        assert result == reference_result(program, (200, 0))
        assert stats.abort_reasons.get(kind, 0) >= 1
        assert vm.machine.abort_reason_register == kind

    def test_capacity_pressure_forces_overflow(self):
        program = region_loop_program()
        plan = FaultPlan.single("overflow", region_index=5, line_limit=0)
        result, stats, vm = run_with_faults(program, fault_plan=plan)
        assert result == reference_result(program, (200, 0))
        assert stats.abort_reasons.get("overflow", 0) >= 1
        assert vm.machine.abort_reason_register == "overflow"

    def test_store_buffer_pressure_forces_capacity(self):
        program = region_loop_program()
        plan = FaultPlan.single("capacity", region_index=5, store_limit=0)
        result, stats, vm = run_with_faults(program, fault_plan=plan)
        assert result == reference_result(program, (200, 0))
        assert stats.abort_reasons.get("capacity", 0) >= 1
        assert stats.capacity_aborts >= 1
        assert vm.machine.abort_reason_register == "capacity"

    def test_capacity_storm_terminates(self):
        """Every region hits the shrunken store buffer; the fallback
        escalation must still finish with the right answer."""
        program = region_loop_program()
        plan = FaultPlan.storm("capacity")
        result, stats, _ = run_with_faults(program, fault_plan=plan)
        assert result == reference_result(program, (200, 0))
        assert stats.capacity_aborts >= 1
        assert stats.regions_committed == 0

    def test_all_kinds_named(self):
        assert set(FAULT_KINDS) == {
            "interrupt", "conflict", "overflow", "assert", "exception",
            "capacity",
        }


class TestLegacyShims:
    """What remains of the old hook shims: one fault source per VM."""

    def test_plan_and_injector_are_exclusive(self):
        program = region_loop_program()
        with pytest.raises(VMError, match="not both"):
            TieredVM(
                program, compiler_config=ATOMIC,
                options=VMOptions(enable_timing=False),
                fault_plan=FaultPlan.seeded(0),
                fault_injector=FaultInjector(FaultPlan.seeded(0)),
            )
