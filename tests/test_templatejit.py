"""Template-JIT suite: generative equivalence battery, golden source,
cache-eviction and fallback regressions.

The fast tier's contract is *observational inertness*: for any installed
code, any heap, and any hardware shape, fused code must be
byte-identical to the instrumented interpretive loop — outcome, stats,
heap fingerprint, trace events and, for timed runs, the timing model's
full state — with no fault injector attached (traced or not) and with
one (``FaultPlan.none()`` when no fault is wanted), which selects the
profile whose region functions probe after every uop.  The battery here
attacks that contract with randomly generated straight-line and branchy
uop programs (:mod:`repro.testutil.uopgen`), with and without seeded
fault plans, whose operands deliberately wander off the templates' happy
paths, so every bail edge steps the reference loop mid-program.

The golden tests pin the *generated host source* — the fused runs of a
hand-built region that exercises every template, and the probing region
functions of a fault-injected machine: an emitter change that silently
reorders counter flushes, moves a probe or drops a read-set insert fails
here first.  Regenerate intentionally with::

    REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_templatejit.py

The battery's seed windows start at ``DIFF_SEED_BASE`` (default 0), so a
sweep can move them off the fixed seeds, as ``tests/test_differential.py``
does with its own window.  The two checks that every handler path and
stepped case is reached keep a fixed window of their own.
"""

from __future__ import annotations

import os
import re
from collections import Counter
from dataclasses import replace
from functools import partial
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.faults import FaultInjector, FaultPlan
from repro.hw.config import BASELINE_4WIDE, OOO_2WIDE
from repro.hw.isa import CompiledMethod, MInstr, MOp, machine_compare
from repro.hw.machine import DISPATCH_MODES, Machine
from repro.hw.stats import ExecStats
from repro.harness import experiment, figures
from repro.harness.parallel import Cell
from repro.hw import templatejit
from repro.hw.templatejit import (
    _RUN_ENDS,
    _STEPPED,
    MAX_RUN,
    clear_code_cache,
    fused_runs,
    get_jitted,
    jit_profile,
    jit_source,
)
from repro.hw.timing import TimingModel
from repro.lang import ProgramBuilder
from repro.obs.tracer import Tracer
from repro.runtime.errors import MonitorStateError, VMError
from repro.runtime.heap import GuestObject, Heap
from repro.runtime.locks import MAIN_THREAD
from repro.testutil.uopgen import (
    branchy_case,
    fault_plan,
    run_uop_case,
    stats_fingerprint,
    step_snapshots,
    timing_snapshot,
    uop_case,
)
from repro.vm import ATOMIC, ATOMIC_AGGRESSIVE, TieredVM, VMOptions
from repro.workloads import get_workload

GOLDEN_DIR = Path(__file__).parent / "golden"

_SEED_BASE = int(os.environ.get("DIFF_SEED_BASE", "0"))


def _seeds(count: int) -> range:
    """The battery's window of ``count`` seeds, from ``DIFF_SEED_BASE``."""
    return range(_SEED_BASE, _SEED_BASE + count)


def _reach_seeds(count: int) -> range:
    """A fixed window of ``count`` seeds for the checks that one window
    reaches every path: which paths a window reaches depends on the
    window, so these do not move with ``DIFF_SEED_BASE``."""
    return range(count)


#: a regioned seed whose region commits under speculation (returns 1)
#: and whose recovery sentinel is distinct (-1102) — the pair makes
#: region-disable visible in the return value alone.
COMMITTING_REGION_SEED = 102
DISABLED_SENTINEL = -1102

#: HTM shapes whose fused code *differs* (fallback-begin emits a lock
#: check, store_buffer emits a store bound, cache_shaped emits overflow
#: tracking, setjmp changes abort delivery at re-landed begins).
JIT_HTM_MATRIX = [
    BASELINE_4WIDE,
    BASELINE_4WIDE.scaled(name="jit-rock", htm_mode="store_buffer",
                          spec_store_buffer_entries=2),
    BASELINE_4WIDE.scaled(name="jit-cache", htm_mode="cache_shaped"),
    BASELINE_4WIDE.scaled(name="jit-lock-begin", htm_mode="store_buffer",
                          spec_store_buffer_entries=2,
                          fallback_lock_mode="begin"),
    BASELINE_4WIDE.scaled(name="jit-setjmp", htm_mode="store_buffer",
                          spec_store_buffer_entries=2,
                          abort_delivery="setjmp"),
]
JIT_HTM = {hw.name: hw for hw in JIT_HTM_MATRIX}


#: the fused code of both profiles, by the fault plan that selects each
#: under ``dispatch="auto"``: an injector with no fault armed runs the
#: faulted profile's probing code, no injector the unfaulted profile's.
FAST_TIERS = {"faulted": FaultPlan.none(), "fused": None}


def _fast_tiers(plan) -> dict:
    """The fast tiers a case runs on under ``plan``: both profiles with
    no plan, the faulted profile alone under a real one."""
    return FAST_TIERS if plan is None else {"faulted": plan}


def _assert_tiers_agree(seed: int, timing: bool = False,
                        hw=BASELINE_4WIDE, make=uop_case,
                        faults: bool = False) -> None:
    case = make(seed)
    plan = fault_plan(seed) if faults else None
    base = run_uop_case(case, "interpretive", timing=timing, hw=hw,
                        faults=plan)
    for tier, tier_plan in _fast_tiers(plan).items():
        got = run_uop_case(case, "auto", timing=timing, hw=hw,
                           faults=tier_plan)
        assert got == base, (
            f"{make.__name__}({seed}) ({hw.name}, timed={timing}, "
            f"faults={faults}): {tier} diverged\n"
            f"  {tier}: {got[0]}\n  interpretive: {base[0]}"
        )


class TestGenerativeEquivalence:
    """Satellite battery: random straight-line uop programs, three tiers,
    byte-identical outcome + stats + heap fingerprint (+ timing state)."""

    @pytest.mark.parametrize("seed", _seeds(60))
    def test_fixed_seeds_untimed(self, seed):
        _assert_tiers_agree(seed, timing=False)

    @pytest.mark.parametrize("seed", _seeds(30))
    def test_fixed_seeds_timed(self, seed):
        _assert_tiers_agree(seed, timing=True)

    @pytest.mark.parametrize("hw", JIT_HTM_MATRIX[1:], ids=lambda h: h.name)
    def test_fixed_seeds_tight_htm(self, hw):
        for seed in _seeds(20):
            _assert_tiers_agree(seed, timing=False, hw=hw)

    @pytest.mark.parametrize("hw", JIT_HTM_MATRIX[1:], ids=lambda h: h.name)
    def test_fixed_seeds_tight_htm_timed(self, hw):
        """Tight HTM shapes abort inside fused code: the timing state
        written back before ``_fast_abort`` must equal the per-uop
        model's at that point, or the abort's pipeline flush diverges."""
        for seed in _seeds(20):
            _assert_tiers_agree(seed, timing=True, hw=hw)

    def test_timed_battery_checks_cycles(self):
        """Timed runs carry the timing model's full state, so the
        battery compares cycle counts — not just ``ExecStats``."""
        cycles = set()
        for seed in _seeds(10):
            snapshot = run_uop_case(uop_case(seed), "auto", timing=True)[3]
            assert snapshot is not None
            cycles.add(snapshot[0])
        assert len(cycles) > 1 and max(cycles) > 0
        assert run_uop_case(uop_case(0), "auto")[3] is None

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_random_seeds(self, seed):
        _assert_tiers_agree(seed, timing=False)

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_random_seeds_timed(self, seed):
        _assert_tiers_agree(seed, timing=True)

    def test_battery_reaches_every_outcome_class(self):
        """The generator must keep producing committed values, guest
        traps, *and* host-level type errors — a drift toward all-fatal
        (or all-clean) programs would quietly hollow out the battery."""
        kinds = set()
        for seed in _seeds(200):
            outcome = run_uop_case(uop_case(seed), "auto")[0]
            kinds.add(outcome[0] if outcome[0] == "value" else outcome[1])
        assert "value" in kinds
        assert any(k.startswith("Guest") or k in
                   ("NullPointerError", "BoundsError") for k in kinds)
        assert "VMError" in kinds or "TypeError" in kinds


class TestHandlerBattery:
    """Branchy programs and fault plans: forward ``BR``/``BR_ABORT``/
    ``JMP`` edges and a bounded back edge, lock-word stores (which end
    their run) and atomic RMW (which are stepped), and seeded fault
    schedules (which select the faulted profile, as in fault-injected
    service cells).  Every probe the schedules fire — assert, exception,
    conflict, interrupt, line and store-buffer capacity shrinks — reads
    the counters fused code flushes before it, so its abort point is
    compared across tiers."""

    @pytest.mark.parametrize("seed", _seeds(60))
    def test_branchy_seeds_untimed(self, seed):
        _assert_tiers_agree(seed, timing=False, make=branchy_case)

    @pytest.mark.parametrize("seed", _seeds(30))
    def test_branchy_seeds_timed(self, seed):
        _assert_tiers_agree(seed, timing=True, make=branchy_case)

    @pytest.mark.parametrize("seed", _seeds(40))
    def test_fault_plans(self, seed):
        for make in (uop_case, branchy_case):
            for timing in (False, True):
                _assert_tiers_agree(seed, timing=timing, make=make,
                                    faults=True)

    @pytest.mark.parametrize("seed", _seeds(30))
    def test_every_fault_offset(self, seed):
        """An assert injected at each region-relative offset in turn
        lands on every kind of uop a region retires — a taken branch
        included — so a probe skipped or moved off any of them moves
        the abort point."""
        case = branchy_case(seed)
        for offset in range(1, 13):
            plan = FaultPlan.single("assert", offset=offset)
            base = run_uop_case(case, "interpretive", faults=plan)
            got = run_uop_case(case, "auto", faults=plan)
            assert got == base, f"branchy_case({seed}), offset {offset}"

    @pytest.mark.parametrize("hw", JIT_HTM_MATRIX[1:], ids=lambda h: h.name)
    def test_branchy_tight_htm(self, hw):
        for seed in _seeds(15):
            _assert_tiers_agree(seed, timing=True, hw=hw, make=branchy_case)
            _assert_tiers_agree(seed, timing=False, hw=hw, make=branchy_case,
                                faults=True)

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_random_branchy_seeds(self, seed):
        _assert_tiers_agree(seed, timing=True, make=branchy_case)
        _assert_tiers_agree(seed, timing=False, make=branchy_case,
                            faults=True)

    def test_battery_reaches_handler_paths(self):
        """The generators must keep reaching what the battery claims to
        compare: taken back edges and forward branches, fired aborts,
        lock-word stores and atomic RMW, and every kind of injected fault."""
        seen = Counter()
        for seed in _reach_seeds(150):
            case = branchy_case(seed)
            for plan in (None, fault_plan(seed)):
                outcome, stats, _, _ = run_uop_case(case, "interpretive",
                                                    faults=plan)
                seen["trap"] += outcome[:2] == ("raise", "GuestError")
                summary = dict(stats[0])
                for kind in ("faa_ops", "cas_ops", "ll_ops", "sc_ops"):
                    seen[kind] += summary[kind] > 0
                seen["stores"] += stats[2] > 0
                seen["branches>3"] += stats[3] > 3
                seen["committed"] += stats[6] > 0
                seen["abort_site"] += bool(stats[9])
                for reason, count in stats[8]:
                    seen[reason] += count
            ops = {instr.op for instr in case.compiled.instrs}
            seen["storelock"] += MOp.STORELOCK in ops
            seen["jmp"] += MOp.JMP in ops
        for key in ("faa_ops", "cas_ops", "ll_ops", "sc_ops", "stores",
                    "branches>3", "committed", "abort_site", "storelock",
                    "jmp", "trap", "assert", "exception", "conflict",
                    "interrupt", "overflow", "capacity"):
            assert seen[key] > 0, f"battery never reached {key}: {seen}"

    def test_every_stepped_path_is_reached(self, monkeypatch):
        """Every uop with no template, and every case a template hands to
        the reference loop before it has any effect, is stepped from a
        fast tier somewhere in the battery's inputs; each of those runs
        still equals the interpretive loop's."""
        from test_differential import _generate, _run_tiered
        from test_forward_progress import TestPredecodeInvalidation
        from test_htm_variants import (
            TestFallbackLock,
            run_program,
            stride_store_program,
        )

        seen = Counter()
        step = Machine._step

        def recorded_step(machine, fr, pc):
            seen[_step_kind(machine, fr, pc)] += 1
            return step(machine, fr, pc)

        monkeypatch.setattr(Machine, "_step", recorded_step)
        for seed in _reach_seeds(60):
            _assert_tiers_agree(seed, make=branchy_case)
        for hw in (JIT_HTM["jit-lock-begin"], JIT_HTM["jit-setjmp"]):
            for seed in _reach_seeds(20):
                for make in (uop_case, branchy_case):
                    _assert_tiers_agree(seed, hw=hw, make=make, faults=True)
            runs = [run_program(stride_store_program(), hw,
                                fault_plan=FaultPlan.seeded(3),
                                dispatch=dispatch)
                    for dispatch in ("interpretive", "auto")]
            assert len({(r[0], str(r[1].summary())) for r in runs}) == 1
        # A fallback lock another thread holds fails every commit-instant
        # validation; the escalation then fails fast.
        outcomes = set()
        for dispatch, plan in (("interpretive", None),
                               *(("auto", p) for p in FAST_TIERS.values())):
            vm = TestFallbackLock()._forced_owner_vm("end", dispatch, plan)
            with pytest.raises(MonitorStateError) as raised:
                vm.run("work", [24])
            outcomes.add((str(raised.value),
                          stats_fingerprint(vm.machine.stats),
                          vm.machine.uops_executed))
        assert len(outcomes) == 1
        # A region patched to its recovery path.
        outcomes = set()
        for dispatch in ("interpretive", "auto"):
            _, vm, result = TestPredecodeInvalidation()._patched_vm(dispatch)
            vm.start_measurement()
            again = vm.run("work", [100, 0])
            outcomes.add((result, again, str(vm.end_measurement().summary())))
        assert len(outcomes) == 1
        # Calls: one static call that survives inlining, and a virtual
        # call on a polymorphic receiver.
        for plan in FAST_TIERS.values():
            for run in (partial(_run_tiered, _generate(1)),
                        _run_polymorphic_call):
                got = run(fault_plan=plan)
                want = run(dispatch="interpretive")
                assert got[:2] == want[:2]
                assert got[2].summary() == want[2].summary()

        for kind in ((MOp.BR_TRAP, True, "taken"),
                     (MOp.BR_TRAP, False, "taken"),
                     (MOp.STORELOCK, True, "foreign enter"),
                     (MOp.AREGION_END, True, "fallback held"),
                     (MOp.AREGION_BEGIN, False, "pending cc"),
                     (MOp.AREGION_BEGIN, False, "fallback held"),
                     (MOp.AREGION_BEGIN, False, "disabled"),
                     (MOp.RET, False, None),
                     (MOp.CALLVM, False, None),
                     (MOp.VCALLVM, False, None),
                     (MOp.AREGION_ABORT, True, None)):
            assert seen[kind] > 0, f"never stepped {kind}: {seen}"
        for op in (MOp.FAA, MOp.CAS, MOp.LL, MOp.SC):
            assert seen[op, False, None] + seen[op, True, None] > 0, (
                f"never stepped {op.name}: {seen}")


def _step_kind(machine, fr, pc: int) -> tuple:
    """``(op, in a region, case)`` of a uop about to step the reference
    loop; ``case`` names the cold case a template hands over, if any."""
    instr = fr.compiled.instrs[pc]
    op, inside, case = instr.op, fr.region is not None, None
    if op is MOp.BR_TRAP:
        b = fr.regs[instr.b] if instr.b is not None else None
        try:
            if machine_compare(instr.cond, fr.regs[instr.a], b):
                case = "taken"
        except (TypeError, VMError):
            pass  # the reference raises the same error

    elif op is MOp.STORELOCK and instr.imm == 1:
        obj = fr.regs[instr.a]
        if isinstance(obj, GuestObject) and obj.lock.held_by_other(fr.tid):
            case = "foreign enter"
    elif op is MOp.AREGION_BEGIN and not inside:
        if fr.tid in machine._pending_cc:
            case = "pending cc"
        elif machine._fallback_holds:
            case = "fallback held"
        elif instr.imm in fr.compiled.disabled_regions:
            case = "disabled"
    elif (op is MOp.AREGION_END and inside
          and machine._fallback_mode == "end"
          and machine.fallback_lock.held_by_other(fr.tid)):
        case = "fallback held"
    return op, inside, case


def _run_polymorphic_call(dispatch: str = "auto", fault_plan=None):
    """Measure a loop whose one virtual call site sees two receiver
    classes, so the inliner leaves the ``VCALLVM`` in place."""
    pb = ProgramBuilder()
    for name, k in (("A", 1), ("B", 2)):
        pb.cls(name, fields=["v"])
        get = pb.method("get", params=("this",), owner=name)
        get.ret(get.add(get.getfield(get.param(0), "v"), get.const(k)))
    m = pb.method("work", params=("n",))
    n = m.param(0)
    two = m.const(2)
    receivers = m.newarr(two)
    m.astore(receivers, m.const(0), m.new("A"))
    m.astore(receivers, m.const(1), m.new("B"))
    i, one, total = m.const(0), m.const(1), m.const(0)
    m.label("head")
    m.br("ge", i, n, "done")
    receiver = m.aload(receivers, m.mod(i, two))
    m.add(total, m.vcall(receiver, "get", ()), dst=total)
    m.add(i, one, dst=i)
    m.jmp("head")
    m.label("done")
    m.ret(total)
    vm = TieredVM(pb.build(), compiler_config=ATOMIC,
                  options=VMOptions(compile_threshold=1, dispatch=dispatch),
                  fault_plan=fault_plan)
    vm.warm_up("work", [[6]] * 3)
    vm.compile_hot(min_invocations=1)
    vm.start_measurement()
    value = vm.run("work", [6])
    return value, None, vm.end_measurement()


#: the region-relative storm kinds, one per seed in turn.
_STORMS = ("conflict", "assert", "exception", "overflow", "capacity")


class TestTracedBattery:
    """A tracer picks no dispatch path: traced fused code, with no plan
    or with a storm plan, emits the reference loop's event stream, byte
    for byte.  Each case runs twice on one code object, and every other
    seed escalates on its first abort, so the second activation enters a
    region patched to its fallback: the battery reaches retry, fallback,
    suppressed-region, capacity and fallback-lock events that the
    workloads do not."""

    @pytest.mark.parametrize("timing", [False, True],
                             ids=["untimed", "timed"])
    def test_event_streams_match_interpretive(self, timing, monkeypatch):
        compiles = _record_compiles(monkeypatch)
        kinds = Counter()
        for make in (uop_case, branchy_case):
            for seed in _seeds(60):
                hw = JIT_HTM_MATRIX[seed % len(JIT_HTM_MATRIX)]
                if seed % 2:
                    hw = hw.scaled(name=f"{hw.name}-escalating",
                                   region_retry_budget=0,
                                   region_fallback_threshold=1)
                for plan in (None, FaultPlan.storm(_STORMS[seed % 5])):
                    runs = []
                    for dispatch in ("interpretive", "auto"):
                        case, tracer = make(seed), Tracer()
                        outcomes = [
                            run_uop_case(case, dispatch, timing, hw=hw,
                                         faults=plan, tracer=tracer)
                            for _ in range(2)]
                        runs.append((outcomes, tracer.events))
                    assert runs[1] == runs[0], (
                        f"{make.__name__}({seed}) on {hw.name}, plan "
                        f"{plan}: auto diverged from interpretive")
                    kinds.update(event.kind for event in runs[0][1])
        assert compiles, "no fused code ran"
        for kind in ("region_commit", "region_abort", "region_retry",
                     "region_fallback", "region_suppressed",
                     "region_capacity", "fallback_lock", "fault_armed"):
            assert kinds[kind] > 0, f"battery never traced {kind}: {kinds}"


class TestDeoptInvariant:
    """Wherever fused code hands a uop to the reference loop — a bail,
    a uop with no template, or a pc that starts no run — the frame, the
    region, the counters and the timing state equal the reference
    loop's when it fetches that uop at the same retired-uop count (the
    deoptimization invariant of Flückiger et al.).  Checked on machines
    with no fault injector and on fault-injected ones, under
    ``FaultPlan.none()`` and under seeded plans, whose probing fused
    code flushes before every probe."""

    @pytest.mark.parametrize("make,timing,faults,count", [
        (uop_case, False, False, 60),
        (uop_case, True, False, 30),
        (branchy_case, False, False, 60),
        (branchy_case, True, False, 30),
        (uop_case, False, True, 40),
        (uop_case, True, True, 40),
        (branchy_case, False, True, 40),
        (branchy_case, True, True, 40),
    ], ids=["straight", "straight-timed", "branchy", "branchy-timed",
            "straight-faults", "straight-faults-timed", "branchy-faults",
            "branchy-faults-timed"])
    def test_state_at_every_step_is_the_references(self, make, timing,
                                                    faults, count):
        steps = 0
        for seed in _seeds(count):
            case = make(seed)
            plan = fault_plan(seed) if faults else None
            reference = dict(step_snapshots(case, "interpretive", timing,
                                            faults=plan))
            for tier, tier_plan in _fast_tiers(plan).items():
                log = step_snapshots(case, "auto", timing, faults=tier_plan)
                assert case.compiled._jitted.profile.faulted == (
                    tier_plan is not None)
                keys = [key for key, _ in log]
                assert len(set(keys)) == len(keys)
                for key, snapshot in log:
                    assert snapshot == reference.get(key), (
                        f"{make.__name__}({seed}) {tier}: state at the "
                        f"step after {key} uops differs from the reference")
                steps += len(log)
        assert steps > 0


# -- golden generated source -------------------------------------------------

def _golden_method() -> CompiledMethod:
    """A hand-built method exercising every fused template exactly once:
    a plain run that the region begin ends, a regioned run that the
    region end ends, and a one-uop run."""
    instrs = [
        # run 1: plain straight-line code up to the region begin.
        MInstr(MOp.CONST, dst=0, imm=7),
        MInstr(MOp.CONST_NULL, dst=1),
        MInstr(MOp.MOV, dst=2, a=0),
        MInstr(MOp.ADD, dst=2, a=2, b=0),
        MInstr(MOp.SUB, dst=3, a=2, b=0),
        MInstr(MOp.MUL, dst=3, a=3, b=3),
        MInstr(MOp.DIV, dst=4, a=3, b=0),
        MInstr(MOp.MOD, dst=4, a=3, b=0),
        MInstr(MOp.AND, dst=5, a=3, b=4),
        MInstr(MOp.OR, dst=5, a=5, b=0),
        MInstr(MOp.XOR, dst=5, a=5, b=2),
        MInstr(MOp.SHL, dst=6, a=0, b=2),
        MInstr(MOp.SHR, dst=6, a=6, b=0),
        MInstr(MOp.BR_TRAP, cond="ge", a=6, b=None),
        MInstr(MOp.AREGION_BEGIN, imm=1, target=28),
        # run 2: the speculative body — memory traffic of every kind.
        MInstr(MOp.NEWOBJ, dst=7, cls="Node"),
        MInstr(MOp.STOREF, a=7, b=0, fieldname="f0"),
        MInstr(MOp.LOADF, dst=8, a=7, fieldname="f0"),
        MInstr(MOp.CONST, dst=9, imm=2),
        MInstr(MOp.NEWARR, dst=10, a=9),
        MInstr(MOp.CONST, dst=11, imm=0),
        MInstr(MOp.STOREA, a=10, b=11, c=8),
        MInstr(MOp.LOADA, dst=8, a=10, b=11),
        MInstr(MOp.LOADLEN, dst=9, a=10),
        MInstr(MOp.LOADLOCK, dst=9, a=7),
        MInstr(MOp.CLASSOF, dst=9, a=7),
        MInstr(MOp.AREGION_END),
        # pc 27: a one-uop run (a phi copy), cut off by the leader below.
        MInstr(MOp.MOV, dst=8, a=9),
        # pc 28: shared tail (also the abort recovery target).
        MInstr(MOp.STORESPILL, a=8, imm=0),
        MInstr(MOp.LOADSPILL, dst=8, imm=0),
        MInstr(MOp.LOADG, dst=9, imm=0x7000),
        MInstr(MOp.BR_TRAP, cond="eq", a=8, b=1),
        MInstr(MOp.RET, a=8),
    ]
    compiled = CompiledMethod(
        name="golden_region", num_params=0, instrs=instrs,
        num_regs=12, num_spill_slots=1,
        region_entries={1: 14}, uses_regions=True,
    )
    compiled.param_locations = ()
    return compiled


def _golden_extras() -> CompiledMethod:
    """One uop of every template shape the golden method lacks: the
    other control-flow shapes and both lock-word stores, then the
    stepped uops, which no run holds."""
    instrs = [
        MInstr(MOp.CONST_CLASS, dst=0, cls="Node"),
        MInstr(MOp.JMP, target=2),
        MInstr(MOp.BR, cond="lt", a=0, b=1, target=0),
        MInstr(MOp.BR, cond="ne", a=0, target=0),
        MInstr(MOp.BR_ABORT, cond="gt", a=0, b=1, target=16),
        MInstr(MOp.BR_TRAP, cond="uge", fieldname="bounds", a=0, b=1),
        MInstr(MOp.LOADG, dst=0, imm=None),
        MInstr(MOp.STORELOCK, a=0, imm=1),
        MInstr(MOp.STORELOCK, a=0, imm=-1),
        MInstr(MOp.FAA, dst=1, a=0, b=2, fieldname="f0"),
        MInstr(MOp.CAS, dst=1, a=0, b=2, c=3, fieldname="f0"),
        MInstr(MOp.LL, dst=1, a=0, fieldname="f0"),
        MInstr(MOp.SC, dst=1, a=0, b=2, fieldname="f0"),
        MInstr(MOp.CALLVM, dst=0, method="helper", args=(0, -1)),
        MInstr(MOp.VCALLVM, dst=0, method="helper", args=(0,)),
        MInstr(MOp.RET),
        MInstr(MOp.AREGION_ABORT, imm=1, cls="assert", abort_id=10_000),
    ]
    compiled = CompiledMethod(name="golden_extras", num_params=0,
                              instrs=instrs, num_regs=4, num_spill_slots=1)
    compiled.param_locations = ()
    return compiled


def _assert_golden(source: str, name: str) -> None:
    path = GOLDEN_DIR / name
    if os.environ.get("REGEN_GOLDEN"):
        path.write_text(source)
        pytest.skip(f"regenerated {path}")
    assert path.exists(), (
        f"missing golden file {path}; run with REGEN_GOLDEN=1 to create it"
    )
    assert source == path.read_text(), (
        f"generated source in {name} changed; if the emitter change is "
        "intentional, regenerate with REGEN_GOLDEN=1 and re-run the full "
        "differential battery"
    )


class TestGoldenSource:
    def _profile(self, faulted: bool = False):
        # The profile depends only on the hardware config and whether a
        # fault injector is attached, not on the guest program, so any
        # machine on BASELINE_4WIDE yields the golden key.
        machine = Machine(uop_case(0).program, Heap(),
                          config=BASELINE_4WIDE, stats=ExecStats(),
                          fault_injector=(FaultInjector(FaultPlan.none())
                                          if faulted else None))
        return jit_profile(machine)

    def test_generated_source_matches_golden(self):
        _assert_golden(jit_source(_golden_method(), self._profile()),
                       "templatejit_source.txt")

    def test_faulted_source_matches_golden(self):
        """The region functions of a fault-injected machine, untimed and
        timed, for every run of the golden method and its extras: they
        flush and probe in full after every uop at the reference loop's
        probe points, and call the timing model per uop, so a change that
        moves a counter flush past a probe, drops a probe or a model
        call, or applies an effect before a bail shows here."""
        profile = self._profile(faulted=True)
        assert profile.faulted and not self._profile().faulted
        parts = []
        for compiled in (_golden_method(), _golden_extras()):
            runs = fused_runs(compiled)
            parts += [f"# faulted region functions: {compiled.name}",
                      f"# fused runs: {runs}"]
            for (start, end), timed in product(runs, (False, True)):
                parts += templatejit._emit_fn(compiled, start, end, profile,
                                              timed, True)
        source = "\n".join(parts) + "\n"
        compile(source, "<golden-faulted>", "exec")
        _assert_golden(source, "templatejit_faulted.txt")

    def test_golden_method_fully_fused(self):
        """The golden method must stay wall-to-wall fused apart from the
        RET — otherwise the golden file stops pinning the templates it
        claims to pin."""
        compiled = _golden_method()
        runs = fused_runs(compiled)
        fused = sum(end - start for start, end in runs)
        assert fused == len(compiled.instrs) - 1

    def test_golden_source_is_compilable_python(self):
        source = jit_source(_golden_method(), self._profile())
        compile(source, "<golden>", "exec")


# -- cache eviction / invalidation -------------------------------------------

class TestCacheEviction:
    def test_disable_region_keeps_fused_code(self):
        """A forward-progress patch leaves the dispatch form in place:
        no fused run is built from ``disabled_regions`` (the
        ``aregion_begin`` template reads it on every entry), so the same
        fused code takes the permanent fallback path and still agrees
        with the interpretive loop on the patched code."""
        case = uop_case(COMMITTING_REGION_SEED)
        outcome = run_uop_case(case, "auto")[0]
        assert outcome == ("value", 1)
        jm = case.compiled._jitted
        assert jm is not None
        case.compiled.disable_region(1)
        assert case.compiled._jitted is jm
        for timing in (False, True):
            reference = run_uop_case(case, "interpretive", timing=timing)
            assert reference[0] == ("value", DISABLED_SENTINEL)
            assert run_uop_case(case, "auto", timing=timing) == reference
        assert case.compiled._jitted is jm
        for timing in (False, True):
            reference = run_uop_case(case, "interpretive", timing=timing)
            assert run_uop_case(case, "auto", timing=timing,
                                faults=FaultPlan.none()) == reference

    def test_fused_tables_share_one_slot(self):
        """Both timing variants' tables live on one cached
        ``JittedMethod``, built once per profile and kept through
        ``disable_region``; a fault-injected machine's profile differs,
        so it builds its own."""
        case = uop_case(COMMITTING_REGION_SEED)
        run_uop_case(case, "auto")
        jm = case.compiled._jitted
        assert jm is not None and not jm.profile.faulted
        assert jm._tables[0] is not None and jm._tables[1] is None
        run_uop_case(case, "auto", timing=True)
        assert case.compiled._jitted is jm
        assert jm._tables[1] is not None
        case.compiled.disable_region(1)
        assert case.compiled._jitted is jm
        run_uop_case(case, "auto", faults=FaultPlan.none())
        faulted = case.compiled._jitted
        assert faulted is not jm and faulted.profile.faulted
        assert faulted.runs == jm.runs

    def test_profile_change_rebuilds_fused_code(self):
        """A machine with a different specialisation key (HTM shape,
        fallback mode, line size) must never reuse fused code built for
        another machine's key."""
        case = uop_case(COMMITTING_REGION_SEED)
        compiled, program = case.compiled, case.program
        mach_a = Machine(program, Heap(), config=BASELINE_4WIDE,
                         stats=ExecStats(), dispatch="auto")
        jm_a = get_jitted(compiled, mach_a)
        assert get_jitted(compiled, mach_a) is jm_a
        hw_b = BASELINE_4WIDE.scaled(name="evict-b",
                                     htm_mode="store_buffer",
                                     spec_store_buffer_entries=2,
                                     fallback_lock_mode="begin")
        mach_b = Machine(program, Heap(), config=hw_b,
                         stats=ExecStats(), dispatch="auto")
        jm_b = get_jitted(compiled, mach_b)
        assert jm_b is not jm_a
        assert jm_b.profile != jm_a.profile

    def test_variants_compile_lazily(self):
        """Only the timing variant a machine actually uses is host-
        compiled; the other stays unbuilt until first use."""
        case = uop_case(COMMITTING_REGION_SEED)
        mach = Machine(case.program, Heap(), config=BASELINE_4WIDE,
                       stats=ExecStats(), dispatch="auto")
        jm = get_jitted(case.compiled, mach)
        assert jm._tables == [None, None]
        untimed = jm.table(False)
        assert jm._tables[0] is untimed and jm._tables[1] is None
        assert jm.table(False) is untimed  # cached, not rebuilt
        timed = jm.table(True)
        assert timed is not untimed

    def test_runs_compile_on_first_execution(self):
        """A table starts with a stub per run; executing the run
        compiles the function of the mode it runs in (plain: the first
        run starts the method, outside any region) and patches the
        table in place."""
        case = uop_case(COMMITTING_REGION_SEED)
        heap = Heap()
        mach = Machine(case.program, heap, config=BASELINE_4WIDE,
                       stats=ExecStats(), dispatch="auto")
        mach.prepare(case.compiled)
        jm = case.compiled._jitted
        table = jm.table(False)
        start = jm.runs[0][0]
        stub = table[start]
        assert stub.__name__ == "compile_and_run"
        mach.execute(case.compiled, case.make_args(heap))
        assert table[start] is not stub
        assert table[start].__name__ == f"_f{start}_u_plain"
        # The mode that never ran, and runs that never executed, stay
        # uncompiled.
        namespace = table[start].__globals__
        assert namespace[f"_f{start}_u_region"].__name__ == "compile_and_run"
        assert jm.table(True)[start].__name__ == "compile_and_run"

    def test_long_blocks_split_at_max_run(self):
        """A straight-line block longer than MAX_RUN becomes several
        runs, each at most MAX_RUN uops, and still runs exactly."""
        compiled = _long_block()
        runs = fused_runs(compiled)
        assert len(runs) == 3
        assert all(end - start <= MAX_RUN for start, end in runs)
        assert runs[0][0] == 0 and runs[-1][1] == len(compiled.instrs) - 1
        assert _run_timed(compiled, "auto") == _run_timed(compiled,
                                                         "interpretive")


# -- timed fused code: entry guard and config binding ------------------------

def _long_block() -> CompiledMethod:
    """One straight-line block of 2 * MAX_RUN + 7 uops: ALU chains with
    multiply latency, then a return."""
    body = [MInstr(MOp.CONST, dst=0, imm=1)]
    for k in range(2 * MAX_RUN + 5):
        body.append(MInstr(MOp.ADD if k % 3 else MOp.MUL,
                           dst=k % 4 + 1, a=k % 4, b=0))
    body.append(MInstr(MOp.RET, a=3))
    compiled = CompiledMethod(name="long_block", num_params=0,
                              instrs=body, num_regs=6)
    compiled.param_locations = ()
    return compiled


def _run_timed(compiled: CompiledMethod, dispatch: str,
               pending: str | None = None, hw=BASELINE_4WIDE):
    """Run ``compiled`` timed on a fresh ``hw`` machine whose model
    already retired a few uops (and, if ``pending`` names a model flag,
    has that event pending); returns value, stats and model snapshot."""
    timing = TimingModel(hw)
    for _ in range(3):
        timing.uop(MInstr(MOp.MUL, dst=0, a=0, b=0), None)
    if pending is not None:
        setattr(timing, pending, True)
    stats = ExecStats()
    mach = Machine(uop_case(0).program, Heap(), config=hw,
                   stats=stats, timing=timing, dispatch=dispatch)
    value = mach.execute(compiled, [])
    return value, stats.summary(), timing_snapshot(timing)


class TestTimedFusion:
    @pytest.mark.parametrize("flag", ["_pending_mispredict",
                                      "_record_commit_next"])
    def test_pending_timing_event_bails_at_entry(self, flag):
        """A run entered while the model carries a pending mispredict
        bubble or commit record steps its first uop on the reference
        loop, which applies the event exactly like the slow path."""
        compiled = _long_block()  # pc 0 starts a fused run
        base = _run_timed(compiled, "interpretive", flag)
        assert _run_timed(compiled, "auto", flag) == base
        snapshot = base[2]
        assert not snapshot[8] and not snapshot[9]  # both consumed

    def test_branchy_loop_is_cycle_exact(self):
        """A loop whose fused body ends in a data-dependent branch (and
        whose back edge is a one-uop run) trains the predictor from
        several runs in turn, mispredicts, and walks an array: every
        tier must leave the model in the same state."""
        B = MOp.BR
        instrs = [
            MInstr(MOp.CONST, dst=0, imm=0),
            MInstr(MOp.CONST, dst=1, imm=300),
            MInstr(MOp.CONST, dst=2, imm=1),
            MInstr(MOp.CONST, dst=9, imm=7),
            MInstr(MOp.CONST, dst=11, imm=2654435761),
            MInstr(MOp.CONST, dst=12, imm=16),
            MInstr(MOp.LOADLEN, dst=6, a=7),
            # pc 7: loop head; the branch below follows a hash bit
            MInstr(MOp.ADD, dst=0, a=0, b=2),
            MInstr(MOp.MUL, dst=3, a=0, b=11),
            MInstr(MOp.AND, dst=8, a=0, b=9),
            MInstr(MOp.LOADA, dst=10, a=7, b=8),
            MInstr(MOp.ADD, dst=10, a=10, b=2),
            MInstr(MOp.STOREA, a=7, b=8, c=10),
            MInstr(MOp.SHR, dst=4, a=3, b=12),
            MInstr(MOp.AND, dst=4, a=4, b=2),
            MInstr(B, cond="eq", a=4, b=2, target=17),
            MInstr(MOp.ADD, dst=5, a=5, b=4),
            # pc 17: loop latch
            MInstr(B, cond="lt", a=0, b=1, target=7),
            MInstr(MOp.RET, a=5),
        ]
        compiled = CompiledMethod(name="branchy_loop", num_params=1,
                                  instrs=instrs, num_regs=14)
        compiled.param_locations = (("r", 7),)
        assert any(instrs[end - 1].op is B for _, end in fused_runs(compiled))
        results = []
        for dispatch, plan in (("interpretive", None),
                               *(("auto", p) for p in FAST_TIERS.values())):
            heap = Heap()
            array = heap.new_array(8)
            timing = TimingModel(BASELINE_4WIDE)
            stats = ExecStats()
            mach = Machine(uop_case(0).program, heap, config=BASELINE_4WIDE,
                           stats=stats, timing=timing, dispatch=dispatch,
                           fault_injector=(FaultInjector(plan)
                                           if plan is not None else None))
            value = mach.execute(compiled, [array])
            results.append((value, stats.summary(), heap.fingerprint(),
                            timing_snapshot(timing)))
        assert results[1] == results[0] and results[2] == results[0]
        assert results[0][3][13] > 0  # the predictor did mispredict

    def test_mismatched_timing_config_fails_loudly(self):
        program = uop_case(0).program
        narrow = TimingModel(OOO_2WIDE)
        with pytest.raises(VMError, match="2wide"):
            Machine(program, Heap(), config=BASELINE_4WIDE,
                    stats=ExecStats(), timing=narrow)
        mach = Machine(program, Heap(), config=BASELINE_4WIDE,
                       stats=ExecStats())
        with pytest.raises(VMError):
            mach.timing = narrow
        assert mach.timing is None
        # An equal config (not necessarily the same object) is accepted.
        twin = BASELINE_4WIDE.scaled()
        mach.timing = TimingModel(twin)
        assert mach.timing.config == BASELINE_4WIDE
        mach.timing = None


# -- per-mode run functions and the process code cache ------------------------

def _two_mode_block(region_first: bool) -> CompiledMethod:
    """One fused run (array load, add, store, accumulate, branch) entered
    twice: first outside a region and then inside one, or, with
    ``region_first``, the reverse.  Register 7 holds a 2-element array."""
    M = MInstr
    if region_first:
        instrs = [
            M(MOp.CONST, dst=0, imm=1),
            M(MOp.CONST, dst=6, imm=0),
            M(MOp.AREGION_BEGIN, imm=1, target=12),
            # pc 3: the run — in the region, then after it
            M(MOp.LOADA, dst=10, a=7, b=6),
            M(MOp.ADD, dst=10, a=10, b=0),
            M(MOp.STOREA, a=7, b=6, c=10),
            M(MOp.ADD, dst=3, a=3, b=10),
            M(MOp.BR, cond="ne", a=6, target=11),
            M(MOp.CONST, dst=6, imm=1),
            M(MOp.AREGION_END),
            M(MOp.JMP, target=3),
            M(MOp.RET, a=3),
            # pc 12: abort recovery
            M(MOp.RET, a=0),
        ]
        begin = 2
    else:
        instrs = [
            M(MOp.CONST, dst=0, imm=1),
            M(MOp.CONST, dst=6, imm=0),
            # pc 2: the run — before the region, then in it
            M(MOp.LOADA, dst=10, a=7, b=6),
            M(MOp.ADD, dst=10, a=10, b=0),
            M(MOp.STOREA, a=7, b=6, c=10),
            M(MOp.ADD, dst=3, a=3, b=10),
            M(MOp.BR, cond="ne", a=6, target=10),
            M(MOp.CONST, dst=6, imm=1),
            M(MOp.AREGION_BEGIN, imm=1, target=12),
            M(MOp.JMP, target=2),
            M(MOp.AREGION_END),
            M(MOp.RET, a=3),
            # pc 12: abort recovery
            M(MOp.RET, a=0),
        ]
        begin = 8
    compiled = CompiledMethod(
        name="two_mode", num_params=1, instrs=instrs, num_regs=12,
        region_entries={1: begin}, uses_regions=True)
    compiled.param_locations = (("r", 7),)
    return compiled


def _run_two_mode(compiled: CompiledMethod, dispatch: str, timing: bool):
    """Two activations of a :func:`_two_mode_block` on one fresh machine:
    values, stats, heap fingerprint and the model's snapshot."""
    heap = Heap()
    array = heap.new_array(2)
    model = TimingModel(BASELINE_4WIDE) if timing else None
    stats = ExecStats()
    mach = Machine(uop_case(0).program, heap, config=BASELINE_4WIDE,
                   stats=stats, timing=model, dispatch=dispatch)
    values = [mach.execute(compiled, [array]) for _ in range(2)]
    return (values, stats.summary(), heap.fingerprint(),
            model and timing_snapshot(model))


def _record_compiles(monkeypatch) -> list:
    """Record the ``(filename, source)`` of every fused-run compile, from
    an empty code cache on."""
    compiles = []

    def recording(source, filename, mode):
        if filename.startswith("<jit:"):
            compiles.append((filename, source))
        return compile(source, filename, mode)

    clear_code_cache()
    monkeypatch.setattr(templatejit, "compile", recording, raising=False)
    return compiles


class TestRunModes:
    @pytest.mark.parametrize("timing", [False, True])
    @pytest.mark.parametrize("region_first", [False, True])
    def test_run_entered_in_both_modes(self, monkeypatch, region_first,
                                       timing):
        """Each mode's function compiles once, on the run's first entry
        in that mode, and the entry guard of either hands the other mode
        over: the run stays fused in both, and every observable equals
        the reference loop's."""
        compiled = _two_mode_block(region_first)
        # Every uop but the returns is in a run: the region begin ends
        # the run in front of it, the region end the one it closes, and
        # the back-edge jump is a one-uop run.  Listed in the order they
        # first run, with the mode of that first entry.
        if region_first:
            start = 3
            assert fused_runs(compiled) == [(0, 3), (3, 8), (8, 10),
                                            (10, 11)]
            order = [(0, "plain"), (3, "region"), (8, "region"),
                     (10, "plain"), (3, "plain")]
        else:
            start = 2
            assert fused_runs(compiled) == [(0, 2), (2, 7), (7, 9),
                                            (9, 10), (10, 11)]
            order = [(0, "plain"), (2, "plain"), (7, "plain"),
                     (9, "region"), (2, "region"), (10, "region")]
        compiles = _record_compiles(monkeypatch)
        got = _run_two_mode(compiled, "auto", timing)
        assert got == _run_two_mode(_two_mode_block(region_first),
                                    "interpretive", timing)
        assert got[0] == [2, 4]
        summary = got[1]
        assert summary["regions"] == 2 and summary["abort_rate"] == 0.0
        variant = "t" if timing else "u"
        assert [filename.split(":")[1] for filename, _ in compiles] == [
            f"_f{pc}_{variant}_{mode}" for pc, mode in order]
        names = [f"_f{start}_{variant}_{mode}" for mode in ("plain",
                                                             "region")]
        namespace = compiled._jitted.table(timing)[start].__globals__
        assert [namespace[name].__name__ for name in names] == names

    def test_equal_runs_share_code_per_profile(self, monkeypatch):
        """Distinct methods with equal instructions, on machines with
        equal profiles, compile each run once between them; another
        profile compiles again, and so does a cleared cache."""
        compiles = _record_compiles(monkeypatch)
        first, second = _long_block(), _long_block()
        base = _run_timed(first, "auto")
        runs = len(fused_runs(first))
        assert len(compiles) == runs
        assert _run_timed(second, "auto") == base
        assert len(compiles) == runs
        assert second._jitted is not first._jitted
        assert second._jitted.profile == first._jitted.profile
        # The run sources do not depend on the method's name.
        renamed = _long_block()
        renamed.name = "other_method"
        _run_timed(renamed, "auto")
        assert len(compiles) == runs
        # Another profile (here, the fetch width) bakes other constants.
        narrow = _long_block()
        _run_timed(narrow, "auto", hw=OOO_2WIDE)
        assert narrow._jitted.profile != first._jitted.profile
        assert len(compiles) == 2 * runs
        # A cleared cache compiles cold.
        experiment.clear_cache()
        assert not templatejit._CODE
        assert _run_timed(_long_block(), "auto") == base
        assert len(compiles) == 3 * runs
        # Shared code is named for its content, not for a method.
        assert all(filename.count(":") == 2 and "long_block" not in filename
                   for filename, _ in compiles)

    def test_cold_round_compiles_each_source_once(self, monkeypatch):
        """A cold figure round compiles each distinct run source once,
        and every compiled source holds one mode's body only."""
        experiment.clear_cache()
        compiles = _record_compiles(monkeypatch)
        figures.figure7(["hsqldb"])
        sources = [source for _, source in compiles]
        assert sources
        assert len(sources) == len(set(sources))
        for source in sources:
            [name] = re.findall(r"^def (\w+)\(", source, re.MULTILINE)
            assert name.endswith(("_plain", "_region"))
            if name.endswith("_plain"):
                assert "region." not in source

    def test_cold_round_emits_only_what_it_compiles(self, monkeypatch):
        """A cold figure round emits a run's source only to compile it:
        a code-cache hit installs without emitting, and the cache key is
        the emitter's whole input, so equal keys emit equal source."""
        experiment.clear_cache()
        compiles = _record_compiles(monkeypatch)
        emit, key = templatejit._emit_fn, templatejit._code_key
        emitted, installs = [], []

        def emitting(*args):
            emitted.append(args)
            return emit(*args)

        def keying(*args):
            installs.append(args)
            return key(*args)

        monkeypatch.setattr(templatejit, "_emit_fn", emitting)
        monkeypatch.setattr(templatejit, "_code_key", keying)
        figures.figure7(["hsqldb"])
        figures.figure8(["hsqldb"])
        assert len(emitted) == len(compiles) > 0
        assert len(installs) > len(compiles)  # cache hits install too
        sources: dict = {}
        for args in installs:
            source = emit(*args)
            assert sources.setdefault(key(*args), source) == source
        assert len(sources) == len(compiles)

    def test_code_key_covers_what_the_emitter_reads(self):
        """Changing any uop field the emitter reads changes the code key
        whenever it changes a run's source, so a cache hit can never
        install another run's code."""
        profile = TestGoldenSource()._profile()
        key, emit = templatejit._code_key, templatejit._emit_fn
        alternatives = {
            "op": lambda v: MOp.MOV if v is not MOp.MOV else MOp.CONST,
            "dst": lambda v: 5, "a": lambda v: 5, "b": lambda v: 5,
            "c": lambda v: 5, "imm": lambda v: 3,
            "cond": lambda v: "le" if v != "le" else "lt",
            "target": lambda v: 2, "fieldname": lambda v: "f1",
            "cls": lambda v: "Other", "args": lambda v: (4,),
        }
        assert set(alternatives) == set(templatejit._EMITTED_FIELDS)
        changed = set()
        for compiled in (_golden_method(), _lone_run_method("latch", True)):
            for (start, end), timed, regioned in product(
                    fused_runs(compiled), (False, True), (False, True)):
                args = (start, end, profile, timed, regioned)
                base_key = key(compiled, *args)
                base_source = emit(compiled, *args)
                for pc, name in product(range(start, end), alternatives):
                    instrs = list(compiled.instrs)
                    instrs[pc] = replace(instrs[pc], **{
                        name: alternatives[name](getattr(instrs[pc], name))})
                    other = replace(compiled, instrs=instrs)
                    if emit(other, *args) != base_source:
                        changed.add(name)
                        assert key(other, *args) != base_key, name
        assert changed == set(alternatives)


# -- one-uop runs -------------------------------------------------------------

#: the pc of the run-ending uop in front of every one-uop run below.
_LONE_HEAD = 3

#: one-uop run shapes: the body after the head, the pc of the shape's
#: one-uop run, and the pc of the run end whose retirement leaves a
#: mispredict pending in the armed runs (the uop in front of that run,
#: or of the run it follows).
_LONE_SHAPES = {
    # a monitor exit right after a phi copy and a monitor enter: the
    # enter ends the copy's run, so the exit is a run of its own
    "mov": ([MInstr(MOp.MOV, dst=1, a=0),
             MInstr(MOp.STORELOCK, a=7, imm=1),
             MInstr(MOp.STORELOCK, a=7, imm=-1)], 6, 5),
    # a loop whose latch branch follows a monitor exit
    "latch": ([MInstr(MOp.ADD, dst=1, a=1, b=2),
               MInstr(MOp.STORELOCK, a=7, imm=1),
               MInstr(MOp.STORELOCK, a=7, imm=-1),
               MInstr(MOp.BR, cond="lt", a=1, b=0, target=4)], 7, 6),
    # a jump over a constant that never runs
    "jmp": ([MInstr(MOp.JMP, target=6),
             MInstr(MOp.CONST, dst=1, imm=99)], 4, _LONE_HEAD),
    # a straight-line span, tail included, one uop longer than MAX_RUN:
    # the tail is the lone run
    "remainder": ([MInstr(MOp.ADD if k % 2 else MOp.MUL, dst=1, a=1, b=2)
                   for k in range(MAX_RUN)], 4 + MAX_RUN, _LONE_HEAD),
}


def _lone_run_method(shape: str, regioned: bool) -> CompiledMethod:
    """Three constants (a trip count of 9 in register 0), a head, the
    body of ``shape``, a tail and ``RET r1``.  The head and tail are
    ``AREGION_BEGIN``/``AREGION_END`` when ``regioned``, else a monitor
    enter and exit on the object in register 7 (the parameter), so the
    body runs in the chosen mode between run ends either way."""
    M = MInstr
    body = _LONE_SHAPES[shape][0]
    tail = _LONE_HEAD + 1 + len(body)
    if regioned:
        head = M(MOp.AREGION_BEGIN, imm=1, target=tail + 2)
        end = M(MOp.AREGION_END)
    else:
        head = M(MOp.STORELOCK, a=7, imm=1)
        end = M(MOp.STORELOCK, a=7, imm=-1)
    instrs = [M(MOp.CONST, dst=0, imm=9), M(MOp.CONST, dst=1, imm=1),
              M(MOp.CONST, dst=2, imm=2), head,
              *map(replace, body), end,
              M(MOp.RET, a=1),
              M(MOp.RET, a=2)]  # abort recovery
    compiled = CompiledMethod(
        name=f"lone_{shape}", num_params=1, instrs=instrs, num_regs=8,
        region_entries={1: _LONE_HEAD} if regioned else {},
        uses_regions=regioned)
    compiled.param_locations = (("r", 7),)
    return compiled


class _ArmedModel(TimingModel):
    """A timing model that leaves a mispredict pending when it retires
    ``arm``, so whatever runs next is entered with the bubble pending:
    the same point on every tier, since a run end always retires
    through :meth:`TimingModel.uop`."""

    arm = None

    def uop(self, instr, mem_address):
        super().uop(instr, mem_address)
        if instr is self.arm:
            self._pending_mispredict = True


def _run_lone(shape: str, regioned: bool, dispatch: str, timing: bool,
              armed: bool, plan=None):
    """Run a :func:`_lone_run_method` on a fresh machine: value, stats
    fingerprint, heap fingerprint and the model's snapshot."""
    compiled = _lone_run_method(shape, regioned)
    program = uop_case(0).program
    heap = Heap()
    obj = heap.new_object("Node", program.field_layout("Node"))
    model = None
    if timing:
        model = _ArmedModel(BASELINE_4WIDE)
        if armed:
            model.arm = compiled.instrs[_LONE_SHAPES[shape][2]]
    stats = ExecStats()
    mach = Machine(program, heap, config=BASELINE_4WIDE, stats=stats,
                   timing=model, dispatch=dispatch,
                   fault_injector=(FaultInjector(plan)
                                   if plan is not None else None))
    value = mach.execute(compiled, [obj])
    return (value, stats_fingerprint(stats), heap.fingerprint(),
            model and timing_snapshot(model))


class TestOneUopRuns:
    @pytest.mark.parametrize("shape", sorted(_LONE_SHAPES))
    def test_every_fusable_pc_is_in_one_run(self, shape):
        """Every templated uop starts or continues exactly one run,
        however short its span, and a lock-word store or region
        begin/end only ends one: the stepped closures are entered only
        at stepped uops, at bails and at retry re-lands."""
        lone = _LONE_SHAPES[shape][1]
        for regioned in (False, True):
            runs = fused_runs(_lone_run_method(shape, regioned))
            assert (lone, lone + 1) in runs
        for compiled in (_lone_run_method(shape, False),
                         _lone_run_method(shape, True), _golden_method(),
                         _two_mode_block(False), _long_block(),
                         uop_case(7).compiled, branchy_case(7).compiled):
            covered = Counter(pc for start, end in fused_runs(compiled)
                              for pc in range(start, end))
            fusable = {pc for pc, instr in enumerate(compiled.instrs)
                       if instr.op not in _STEPPED}
            assert set(covered) == fusable and set(covered.values()) <= {1}
            for start, end in fused_runs(compiled):
                assert end - start <= MAX_RUN
                assert not any(compiled.instrs[pc].op in _RUN_ENDS
                               for pc in range(start, end - 1))

    @pytest.mark.parametrize("timing,armed", [(False, False), (True, False),
                                              (True, True)],
                             ids=["untimed", "timed", "timed-pending"])
    @pytest.mark.parametrize("regioned", [False, True],
                             ids=["plain", "region"])
    @pytest.mark.parametrize("shape", sorted(_LONE_SHAPES))
    def test_matches_reference(self, monkeypatch, shape, regioned, timing,
                               armed):
        """A one-uop run, entered in either mode, timed or not, and with
        a mispredict pending at entry, compiles and leaves the value,
        stats, heap and timing model exactly as the reference loop does,
        with and without a fault injector attached."""
        base = _run_lone(shape, regioned, "interpretive", timing, armed)
        compiles = _record_compiles(monkeypatch)
        for tier, plan in FAST_TIERS.items():
            got = _run_lone(shape, regioned, "auto", timing, armed, plan)
            assert got == base, f"{tier} diverged"
        name = (f"_f{_LONE_SHAPES[shape][1]}_{'t' if timing else 'u'}_"
                f"{'region' if regioned else 'plain'}")
        assert name in {filename.split(":")[1] for filename, _ in compiles}
        summary = dict(base[1][0])
        assert summary["regions"] == int(regioned)
        assert summary["abort_rate"] == 0.0
        if armed:
            # The armed bubble was applied: it is not left pending.
            assert not base[3][8]

    def test_non_run_pcs_enter_only_at_stepped_uops(self, monkeypatch):
        """Pinned traffic: a pc that starts no run is entered only at a
        stepped uop, or where a conflict retry re-lands on a begin that
        ends a run — over a warmed timed pass of the steady workloads, a
        cold hsqldb Figure 7 round, and a seeded hsqldb:atomic cell,
        whose fault-injected machines run fused code and match the
        reference loop byte for byte.  Counted by wrapping each dispatch
        table's entries as the table is built."""
        entries: Counter = Counter()
        profiles: set = set()
        build = templatejit._build_table

        def counted(entry, op):
            def step(fr):
                entries[op] += 1
                return entry(fr)
            return step

        def counting(jm, timed):
            table = build(jm, timed)
            profiles.add(jm.profile.faulted)
            starts = {start for start, _ in jm.runs}
            for pc, instr in enumerate(jm._compiled.instrs):
                if pc not in starts:
                    table[pc] = counted(table[pc], instr.op)
            return table

        monkeypatch.setattr(templatejit, "_build_table", counting)

        def stepped_only(retries: int = 0) -> int:
            relands = entries.pop(MOp.AREGION_BEGIN, 0)
            assert relands <= retries
            assert set(entries) <= _STEPPED, entries
            total = sum(entries.values())
            entries.clear()
            return total

        vms = []
        for bench in ("hsqldb", "xalan", "jython"):
            workload = get_workload(bench)
            for sample in workload.samples:
                vm = TieredVM(workload.build(),
                              compiler_config=ATOMIC_AGGRESSIVE,
                              options=VMOptions(enable_timing=True,
                                                compile_threshold=3))
                vm.warm_up(workload.entry,
                           [list(a) for a in sample.warm_args])
                vm.compile_hot(min_invocations=1)
                vms.append((vm, workload, sample))

        def run_pass():
            for vm, workload, sample in vms:
                for args in sample.measure_args:
                    vm.run(workload.entry, list(args))

        run_pass()  # warming: compiles the runs the pass reaches
        entries.clear()
        run_pass()
        assert stepped_only() == 42

        experiment.clear_cache()
        figures.figure7(["hsqldb"])
        assert stepped_only() == 12
        assert profiles == {False}

        cell = Cell("hsqldb", ATOMIC.name, seed=3)
        compiles = _record_compiles(monkeypatch)
        fast = cell.run()
        assert compiles and profiles == {False, True}
        retries = sum(s.stats.conflict_retries for s in fast.samples)
        assert retries > 0
        assert stepped_only(retries) > 0
        monkeypatch.setattr(experiment, "VMOptions",
                            partial(VMOptions, dispatch="interpretive"))
        slow = cell.run()
        assert [(s.guest_results, stats_fingerprint(s.stats))
                for s in fast.samples] == [
            (s.guest_results, stats_fingerprint(s.stats))
            for s in slow.samples]


# -- run ends: lock-word stores, region begin and end -------------------------

def _region_loop(lead: bool = True, stores: int = 1,
                 locks: bool = False) -> CompiledMethod:
    """A four-trip loop around a region: ``stores`` field stores to the
    object in register 7, a load, and an abort branch that fires on the
    third trip, so the recovery path (which adds 2 to the sum) runs once.
    With ``lead``, two uops sit in front of the region begin in its run;
    without, the begin is the loop head and a run of its own.  With
    ``locks``, the region enters the monitor of the object in register
    6 twice before the abort branch and exits it twice after, and the
    loop latch nests a monitor enter and exit on the object in register
    7 around the trip count."""
    M = MInstr
    instrs = [M(MOp.CONST, dst=0, imm=4), M(MOp.CONST, dst=1, imm=1),
              M(MOp.CONST, dst=2, imm=0), M(MOp.CONST, dst=5, imm=2)]
    loop = len(instrs)
    if lead:
        instrs += [M(MOp.MOV, dst=3, a=2), M(MOp.ADD, dst=3, a=3, b=1)]
    begin = M(MOp.AREGION_BEGIN, imm=1)
    abort = M(MOp.BR_ABORT, cond="eq", a=0, b=5, abort_id=7)
    instrs.append(begin)
    instrs += [M(MOp.STOREF, a=7, b=0, fieldname=f"f{k}")
               for k in range(stores)]
    if locks:
        instrs += [M(MOp.STORELOCK, a=6, imm=1)] * 2
    instrs += [M(MOp.LOADF, dst=4, a=7, fieldname="f0"),
               M(MOp.ADD, dst=2, a=2, b=4), abort]
    if locks:
        instrs += [M(MOp.STORELOCK, a=6, imm=-1)] * 2
    instrs.append(M(MOp.AREGION_END))
    join = len(instrs)
    if locks:
        instrs += [M(MOp.STORELOCK, a=7, imm=1), M(MOp.STORELOCK, a=7, imm=1),
                   M(MOp.SUB, dst=0, a=0, b=1), M(MOp.STORELOCK, a=7, imm=-1),
                   M(MOp.STORELOCK, a=7, imm=-1)]
    else:
        instrs.append(M(MOp.SUB, dst=0, a=0, b=1))
    instrs += [M(MOp.BR, cond="gt", a=0, target=loop), M(MOp.RET, a=2)]
    begin.target = len(instrs)
    instrs += [M(MOp.ADD, dst=2, a=2, b=5), M(MOp.JMP, target=join)]
    abort.target = len(instrs)
    instrs.append(M(MOp.AREGION_ABORT, imm=7, cls="assert", abort_id=7))
    compiled = CompiledMethod(
        name="region_loop", num_params=2, instrs=instrs, num_regs=8,
        region_entries={1: instrs.index(begin)}, uses_regions=True)
    compiled.param_locations = (("r", 7), ("r", 6))
    return compiled


def _run_region_loop(hw, dispatch: str, timing: bool, plan, foreign=None,
                     **shape):
    """Run a :func:`_region_loop` on a fresh ``hw`` machine, traced, with
    a fault injector for ``plan`` if it is not None, and, when
    ``foreign`` names it, the ``"data"`` object's monitor, the
    ``"region"`` object's or the fallback lock held by another thread:
    the outcome, stats fingerprint, heap fingerprint (lock words
    included), the model's snapshot and the event stream."""
    compiled = _region_loop(**shape)
    program = uop_case(0).program
    heap = Heap()
    data = heap.new_object("Node", program.field_layout("Node"))
    heap.new_array(8)  # keeps the two objects' lock words a line apart
    locked = heap.new_object("Node", program.field_layout("Node"))
    model = TimingModel(hw) if timing else None
    stats, tracer = ExecStats(), Tracer()
    mach = Machine(program, heap, config=hw, stats=stats, timing=model,
                   dispatch=dispatch, tracer=tracer,
                   fault_injector=(FaultInjector(plan)
                                   if plan is not None else None))
    held = {"data": data.lock, "region": locked.lock,
            "fallback": mach.fallback_lock}
    if foreign is not None:
        held[foreign].force_owner(9)
    try:
        outcome = ("value", mach.execute(compiled, [data, locked]))
    except Exception as exc:  # noqa: BLE001 - the comparison IS the test
        outcome = ("raise", type(exc).__name__, str(exc))
    return (outcome, stats_fingerprint(stats), heap.fingerprint(),
            model and timing_snapshot(model), tracer.events)


#: the fault plans every run-end case runs under: no injector, one with
#: no fault armed, and two dense seeded schedules.
_RUN_END_PLANS = {"none": None, "empty": FaultPlan.none(),
                  "seeded-0": fault_plan(0), "seeded-1": fault_plan(1)}


class TestRunEnds:
    """Lock-word stores and region begin/end end their fused run: each
    case runs timed and untimed, under every plan of
    :data:`_RUN_END_PLANS`, and must match the reference loop on value,
    ``ExecStats``, heap (lock words included), timing state and event
    stream.  Each also checks that the bail it is about reached the
    reference step from fused code."""

    def _agree(self, monkeypatch, hw=BASELINE_4WIDE, **kw):
        """Compare every (timing, plan) pair; returns the ``_step``
        kinds fused code stepped and the names of the functions it
        compiled."""
        seen: Counter = Counter()
        step = Machine._step

        def recorded_step(machine, fr, pc):
            seen[_step_kind(machine, fr, pc)] += 1
            return step(machine, fr, pc)

        compiles = _record_compiles(monkeypatch)
        monkeypatch.setattr(Machine, "_step", recorded_step)
        for timing in (False, True):
            for name, plan in _RUN_END_PLANS.items():
                want = _run_region_loop(hw, "interpretive", timing, plan,
                                        **kw)
                got = _run_region_loop(hw, "auto", timing, plan, **kw)
                assert got == want, (f"{hw.name} {kw} timed={timing} "
                                     f"plan={name}: auto diverged")
        return seen, {filename.split(":")[1] for filename, _ in compiles}

    @staticmethod
    def _run_ending_at(op, **shape) -> int:
        """The start of the (first) run that ``op`` ends."""
        compiled = _region_loop(**shape)
        [start] = [start for start, end in fused_runs(compiled)
                   if compiled.instrs[end - 1].op is op][:1]
        return start

    @pytest.mark.parametrize("hw", [
        BASELINE_4WIDE,
        BASELINE_4WIDE.scaled(name="ends-one-line", region_line_limit=1),
    ], ids=lambda hw: hw.name)
    def test_lock_stores(self, monkeypatch, hw):
        """Plain and speculative monitor enters, nested enters and
        exits, each ending a run; the region's enters roll back when its
        abort branch fires, or, with one line of room, when a lock word
        overflows the region's line sets."""
        seen, names = self._agree(monkeypatch, hw, locks=True)
        compiled = _region_loop(locks=True)
        ends = [start for start, end in fused_runs(compiled)
                if compiled.instrs[end - 1].op is MOp.STORELOCK]
        assert len(ends) == 8
        for mode, timed in product(("plain", "region"), "ut"):
            assert any(f"_f{start}_{timed}_{mode}" in names
                       for start in ends), (mode, timed)
        reference = _run_region_loop(hw, "interpretive", False, None,
                                     locks=True)
        reasons = dict(reference[1][8])
        if hw.region_line_limit == 1:
            # Every trip overflows; each recovery pass adds 2.
            assert reference[0] == ("value", 4 * 2)
            assert reasons == {"overflow": 4}
        else:
            assert reference[0] == ("value", 4 + 3 + 2 + 1)
            assert reasons == {"assert": 1}

    @pytest.mark.parametrize("where", ["data", "region"])
    def test_lock_store_bails_on_foreign_owner(self, monkeypatch, where):
        """A monitor another thread owns: a plain enter steps the
        reference (a monitor error with no scheduler), a speculative one
        aborts the region as a real conflict, whose retries re-land on
        the begin in the middle of its run."""
        seen, _ = self._agree(monkeypatch, locks=True, foreign=where)
        assert seen[MOp.STORELOCK, where == "region", "foreign enter"] > 0
        if where == "region":
            assert seen[MOp.AREGION_BEGIN, False, None] > 0

    @pytest.mark.parametrize("bail", ["pending cc", "fallback held",
                                      "disabled"])
    def test_begin_bails(self, monkeypatch, bail):
        """A begin that ends a plain run hands each of its three cold
        cases to the reference: a setjmp re-landing (the begin heads the
        loop, so the re-landing enters its run), a recovery pass's
        fallback-lock hold (a capacity abort escalates), and a region
        disabled by its first abort."""
        if bail == "pending cc":
            hw = BASELINE_4WIDE.scaled(name="ends-setjmp",
                                       abort_delivery="setjmp")
            shape = {"lead": False}
        elif bail == "fallback held":
            hw = BASELINE_4WIDE.scaled(name="ends-hold",
                                       htm_mode="store_buffer",
                                       spec_store_buffer_entries=1,
                                       fallback_lock_mode="end")
            shape = {"stores": 2}
        else:
            hw = BASELINE_4WIDE.scaled(name="ends-disable",
                                       region_fallback_threshold=1)
            shape = {}
        seen, names = self._agree(monkeypatch, hw, **shape)
        assert seen[MOp.AREGION_BEGIN, False, bail] > 0
        start = self._run_ending_at(MOp.AREGION_BEGIN, **shape)
        assert {f"_f{start}_u_plain", f"_f{start}_t_plain"} <= names

    @pytest.mark.parametrize("held", [False, True],
                             ids=["commit", "fallback-held"])
    def test_end_bails(self, monkeypatch, held):
        """An end that ends a region run commits inline, or, with the
        fallback lock another thread's at the commit instant under
        ``fallback_lock_mode="end"``, hands the failed validation to the
        reference (a real conflict that escalates and fails fast)."""
        hw = BASELINE_4WIDE.scaled(name="ends-end", fallback_lock_mode="end")
        seen, names = self._agree(monkeypatch, hw,
                                  foreign="fallback" if held else None)
        assert (seen[MOp.AREGION_END, True, "fallback held"] > 0) == held
        start = self._run_ending_at(MOp.AREGION_END)
        assert {f"_f{start}_u_region", f"_f{start}_t_region"} <= names

    def test_retry_relands_mid_run(self, monkeypatch):
        """A conflict retry resumes at the begin, in the middle of the
        run the begin ends: the stepped closure there retires it on the
        reference, and the body runs fused again."""
        shape = {"locks": True, "foreign": "region"}
        compiled = _region_loop(locks=True)
        begin = compiled.region_entries[1]
        assert begin not in {start for start, _ in fused_runs(compiled)}
        seen, _ = self._agree(monkeypatch, **shape)
        assert seen[MOp.AREGION_BEGIN, False, None] > 0
        reference = _run_region_loop(BASELINE_4WIDE, "interpretive", False,
                                     None, **shape)
        assert dict(reference[1][0])["conflict_retries"] > 0


# -- LL/SC reservations under plain stores ------------------------------------

def _plain_stores() -> CompiledMethod:
    """A field store to the object in register 7 and an element store to
    the array in register 6, outside any region, in one fused run."""
    M = MInstr
    instrs = [M(MOp.CONST, dst=0, imm=5),
              M(MOp.STOREF, a=7, b=0, fieldname="f0"),
              M(MOp.CONST, dst=1, imm=1),
              M(MOp.STOREA, a=6, b=1, c=0),
              M(MOp.LOADF, dst=2, a=7, fieldname="f0"),
              M(MOp.RET, a=2)]
    compiled = CompiledMethod(name="plain_stores", num_params=2,
                              instrs=instrs, num_regs=8)
    compiled.param_locations = (("r", 7), ("r", 6))
    return compiled


#: reservations held when the stores run, by case: foreign ones on the
#: stored field's and element's lines, a foreign one on another line,
#: and the storing thread's own on the stored line.
_RESERVATIONS = {
    "stored-lines": lambda obj, arr, far: {
        7: obj.base + 16 + obj.field_index["f0"] * 8,
        8: arr.element_address(1)},
    "other-line": lambda obj, arr, far: {7: far.base + 16},
    "own": lambda obj, arr, far: {
        MAIN_THREAD: obj.base + 16 + obj.field_index["f0"] * 8},
}


def _run_plain_stores(dispatch: str, timing: bool, plan, case: str):
    """Run :func:`_plain_stores` with the reservations of ``case`` held:
    the outcome, the reservations left, stats, heap and timing state."""
    program = uop_case(0).program
    heap = Heap()
    layout = program.field_layout("Node")
    obj = heap.new_object("Node", layout)
    arr = heap.new_array(4)
    heap.new_array(8)  # puts ``far`` a line away from the stores
    far = heap.new_object("Node", layout)
    for tid, address in _RESERVATIONS[case](obj, arr, far).items():
        heap.set_reservation(tid, address)
    model = TimingModel(BASELINE_4WIDE) if timing else None
    stats = ExecStats()
    mach = Machine(program, heap, config=BASELINE_4WIDE, stats=stats,
                   timing=model, dispatch=dispatch,
                   fault_injector=(FaultInjector(plan)
                                   if plan is not None else None))
    value = mach.execute(_plain_stores(), [obj, arr])
    return (value, dict(heap.reservations), stats_fingerprint(stats),
            heap.fingerprint(), model and timing_snapshot(model))


class TestReservations:
    """A committed plain store kills every other thread's LL/SC
    reservation on its line, in fused code as on the reference loop.
    ``heap.fingerprint()`` leaves reservations out, so they are compared
    on their own."""

    @pytest.mark.parametrize("timing", [False, True])
    @pytest.mark.parametrize("case", sorted(_RESERVATIONS))
    def test_plain_stores_match_reference(self, case, timing):
        want = _run_plain_stores("interpretive", timing, None, case)
        for tier, plan in FAST_TIERS.items():
            got = _run_plain_stores("auto", timing, plan, case)
            assert got == want, f"{tier} timed={timing}: diverged"
        # only foreign reservations on a stored line die
        assert bool(want[1]) == (case != "stored-lines")


# -- fallback gating ----------------------------------------------------------

class TestJitGating:
    def _machine(self, **kw):
        case = uop_case(0)
        return Machine(case.program, Heap(), config=BASELINE_4WIDE,
                       stats=ExecStats(), **kw)

    def test_auto_dispatch_takes_the_fused_tier(self, monkeypatch):
        """One rule picks the path: every auto-dispatch machine with no
        scheduler — traced, fault-injected or neither — runs fused
        code; a fault injector only selects the probing profile."""
        assert DISPATCH_MODES == ("auto", "interpretive")
        for kw, faulted in (({}, False), ({"tracer": Tracer()}, False),
                            ({"fault_injector":
                              FaultInjector(FaultPlan.none())}, True)):
            case = uop_case(COMMITTING_REGION_SEED)
            compiles = _record_compiles(monkeypatch)
            mach = self._machine(dispatch="auto", **kw)
            assert mach._jit_profile.faulted == faulted
            mach.execute(case.compiled, case.make_args(mach.heap))
            assert compiles
            assert case.compiled._jitted.profile.faulted == faulted

    @pytest.mark.parametrize("mode", ["jit", "fast"])
    def test_retired_dispatch_spellings_are_rejected(self, mode):
        with pytest.raises(VMError, match="unknown dispatch mode"):
            self._machine(dispatch=mode)

    def test_fault_injector_runs_fused_tier(self, monkeypatch):
        """A fault-injected machine runs the fused table of its own
        profile, whose region functions probe in full after every uop,
        and its fault schedule fires exactly where the reference's
        does."""
        plan = FaultPlan.storm("assert", offset=2)
        case = uop_case(COMMITTING_REGION_SEED)
        compiles = _record_compiles(monkeypatch)
        got = run_uop_case(case, "auto", faults=plan)
        assert got == run_uop_case(case, "interpretive", faults=plan)
        assert case.compiled._jitted.profile.faulted
        region_sources = [source for filename, source in compiles
                          if filename.split(":")[1].endswith("_region")]
        assert region_sources
        assert all("mach._hw_condition(region)" in source
                   for source in region_sources)
        assert dict(got[1][0])["abort_rate"] > 0

    @pytest.mark.parametrize("timing", [False, True],
                             ids=["untimed", "timed"])
    def test_traced_run_takes_fused_tier_byte_identically(self, timing,
                                                          monkeypatch):
        """A tracer does not re-route execution: a traced machine runs
        fused code, and its outcome, stats, timing state and full event
        stream match the reference loop's."""
        results = []
        for dispatch in ("auto", "interpretive"):
            compiles = _record_compiles(monkeypatch)
            tracer = Tracer()
            results.append(run_uop_case(
                uop_case(COMMITTING_REGION_SEED), dispatch, timing,
                tracer=tracer) + (tracer.events,))
            assert bool(compiles) == (dispatch == "auto")
        assert results[0] == results[1]
        assert results[0][0] == ("value", 1)
        assert "region_commit" in {e.kind for e in results[0][4]}

    def test_prepare_builds_active_tier_cache(self):
        case = uop_case(COMMITTING_REGION_SEED)
        mach = self._machine(dispatch="auto", timing=None)
        mach.prepare(case.compiled)
        jm = case.compiled._jitted
        assert jm is not None
        assert jm._tables[0] is not None  # untimed variant, ready to run
        slow = Machine(uop_case(0).program, Heap(), config=BASELINE_4WIDE,
                       stats=ExecStats(), dispatch="interpretive")
        other = uop_case(1)
        slow.prepare(other.compiled)
        assert other.compiled._jitted is None
