"""Random uop programs for the dispatch-tier battery.

:mod:`repro.testutil.genprog` fuzzes whole guest programs through the
compiler; this module fuzzes the *machine* directly.  Each seed builds a
hand-crafted :class:`~repro.hw.isa.CompiledMethod` plus a deterministic
seeded heap, and runs it on a fresh :class:`~repro.hw.machine.Machine`
under any dispatch tier:

- :func:`uop_case` — a straight-line sequence of the uops the template
  JIT fuses (ALU, typed memory, spill/global traffic, allocation, lock
  probes, hardware traps), optionally wrapped in an atomic region with a
  recovery path;
- :func:`branchy_case` — segments of those uops plus lock-word stores
  (which end their fused run) and atomic RMW (which always step the
  reference loop), joined by forward ``BR``/``BR_ABORT``/``JMP`` edges,
  with one bounded loop;
- :func:`fault_plan` — a dense seeded fault schedule to run either
  under, so injected assert, exception, conflict, interrupt and
  capacity-shrink probes fire at the retirement points fault-injected
  fused code probes.

The point is adversarial coverage of the templates' *bail* edges and
probe points: registers deliberately hold a soup of ints, nulls,
objects, and arrays, so generated operands routinely hit every
deoptimization path (non-int ALU operands, null/junk memory bases,
out-of-bounds and non-int indexes, reference comparisons, negative array
lengths, division by zero, foreign lock owners, traps inside and outside
regions).  Whatever happens — a value, a guest trap, a host
``VMError``/``TypeError`` from genuinely malformed code — every tier must
agree byte-for-byte on the outcome, the :func:`stats_fingerprint`, the
heap fingerprint and, for timed runs, the timing model's full state
(:func:`run_uop_case` returns all four; the battery in
``tests/test_templatejit.py`` compares them across tiers).

:func:`step_snapshots` checks the same contract at every point where
fused code hands a uop to the reference loop (``Machine._step``, on a
bail, for a uop with no template, or at a pc that starts no fused run):
the frame, the region, the counters and the timing state there must
equal the reference loop's when it fetches the uop at the same
retired-uop count — the deoptimization invariant.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field

from ..faults import FaultInjector, FaultPlan
from ..hw.config import BASELINE_4WIDE, HardwareConfig
from ..hw.isa import CompiledMethod, MInstr, MOp
from ..hw.machine import Machine
from ..hw.stats import ExecStats
from ..hw.timing import TimingModel
from ..lang.bytecode import ClassDef, Program
from ..runtime.heap import Heap

__all__ = [
    "UopCase",
    "branchy_case",
    "fault_plan",
    "frame_snapshot",
    "run_uop_case",
    "stats_fingerprint",
    "step_snapshots",
    "timing_snapshot",
    "uop_case",
]

#: the one guest class seeded heaps instantiate.
_CLASS = "Node"
_FIELDS = ("f0", "f1", "f2")

#: binary ALU uops the generator draws from.
_ALU = (MOp.ADD, MOp.SUB, MOp.MUL, MOp.DIV, MOp.MOD,
        MOp.AND, MOp.OR, MOp.XOR, MOp.SHL, MOp.SHR)

#: trap conditions (``uge`` excluded: real codegen only emits it on
#: known-int bounds checks, and on references it raises a host TypeError
#: from *inside* ``machine_compare`` rather than a modeled error).
_TRAP_CONDS = ("eq", "ne", "lt", "le", "gt", "ge")

_NUM_REGS = 12
_NUM_PARAMS = 6
_NUM_SPILL = 4

#: branchy cases' loop registers, never written by their bodies: the
#: constant 1 and the trip counter.
_STEP_REG = 10
_LOOP_REG = 11

#: the guest thread owning a seeded object's monitor in ``rich`` heaps.
_OTHER_THREAD = 7


@dataclass
class UopCase:
    """One generated machine-level program plus its seeded-heap recipe."""

    seed: int
    compiled: CompiledMethod
    program: Program
    #: argument recipe: ("int", k) | ("null",) | ("obj", slot values) |
    #: ("obj", slot values, monitor owner tid) | ("arr", element values).
    #: Replayed against a fresh heap per run so every tier sees identical
    #: objects at identical addresses.
    arg_specs: list = field(default_factory=list)

    def make_args(self, heap: Heap) -> list:
        args = []
        layout = self.program.field_layout(_CLASS)
        for spec in self.arg_specs:
            kind = spec[0]
            if kind == "int":
                args.append(spec[1])
            elif kind == "null":
                args.append(None)
            elif kind == "obj":
                obj = heap.new_object(_CLASS, layout)
                for slot, value in enumerate(spec[1]):
                    obj.slots[slot] = value
                if len(spec) > 2:
                    obj.lock.force_owner(spec[2])
                args.append(obj)
            else:
                arr = heap.new_array(len(spec[1]))
                arr.values[:] = list(spec[1])
                args.append(arr)
        return args


def _base_program() -> Program:
    program = Program()
    program.add_class(ClassDef(name=_CLASS, fields=list(_FIELDS)))
    return program


class _Gen:
    """Seeded uop generator with static type shadows for operand picks.

    Operand picks draw from the matching shadow most of the time — a
    mistyped operand is usually *fatal* (host TypeError/VMError or a
    guest trap), so the wildcard rate directly sets expected program
    depth.  Even at 8% per operand (3% for branchy ``rich`` programs,
    whose joins already stale the shadows) most programs die early:
    over :func:`uop_case` seeds 0–59 the reference loop fetches 456 of
    the 1,499 static uops (a median of 6 dynamic uops per case) and
    only 10 of the 60 cases return a value; the rest end in a guest
    trap or a host ``TypeError``/``VMError``/``AttributeError``.
    :func:`branchy_case` seeds 0–59 fetch 496 of 1,336 and 26 return a
    value.  So the battery's strength is breadth — across its seeds
    every template's bail edge fires many times — not depth: the uops
    past the first handful of a case see little traffic.  ``rich`` adds
    the uops fused code never contains (lock-word stores, atomic RMW)
    and objects whose monitor another thread owns.
    """

    def __init__(self, rng: random.Random, regs: range,
                 rich: bool = False) -> None:
        self.rng = rng
        self.regs = regs
        self.rich = rich
        self.int_regs: set[int] = set()     # definitely holds an int
        self.small_regs: set[int] = set()   # definitely a small int
        self.tiny_regs: set[int] = set()    # definitely an int in 0..2
        self.obj_regs: set[int] = set()     # definitely a GuestObject
        self.arr_regs: set[int] = set()     # definitely a GuestArray

    def args(self) -> list:
        """Argument recipes for registers ``0.._NUM_PARAMS-1``."""
        rng = self.rng
        # Always seed at least one object and one array: without them
        # every memory uop's typed pick degenerates to a (usually fatal)
        # wildcard and the whole program dies within a handful of uops.
        kinds = ["obj", "arr"] + [
            rng.choice(("int", "int", "obj", "arr", "null"))
            for _ in range(_NUM_PARAMS - 2)]
        rng.shuffle(kinds)
        arg_specs = []
        for index, kind in enumerate(kinds):
            if kind == "int":
                value = rng.choice((0, 1, -1, 7, -(1 << 62), (1 << 62) + 11))
                arg_specs.append(("int", value))
                self.int_regs.add(index)
                if abs(value) <= 64:
                    self.small_regs.add(index)
                if 0 <= value <= 2:
                    self.tiny_regs.add(index)
            elif kind == "obj":
                spec = ("obj", [rng.randrange(-9, 9) for _ in _FIELDS])
                if self.rich and rng.random() < 0.2:
                    spec += (_OTHER_THREAD,)
                arg_specs.append(spec)
                self.obj_regs.add(index)
            elif kind == "arr":
                arg_specs.append(("arr", [rng.randrange(-9, 9)
                                          for _ in range(rng.randrange(1, 5))]))
                self.arr_regs.add(index)
            else:
                arg_specs.append(("null",))
        return arg_specs

    def wrote(self, reg: int) -> None:
        self.int_regs.discard(reg)
        self.small_regs.discard(reg)
        self.tiny_regs.discard(reg)
        self.obj_regs.discard(reg)
        self.arr_regs.discard(reg)

    def pick_from(self, pool: set[int]) -> int:
        if pool and self.rng.random() < (0.97 if self.rich else 0.92):
            return self.rng.choice(sorted(pool))
        return self.rng.choice(self.regs)

    def chunk(self, count: int) -> list[MInstr]:
        body: list[MInstr] = []
        for _ in range(count):
            self.uop(body)
        return body

    def uop(self, body: list[MInstr]) -> None:
        rng, regs, wrote, pick_from = (self.rng, self.regs, self.wrote,
                                       self.pick_from)
        int_regs, small_regs, tiny_regs, obj_regs, arr_regs = (
            self.int_regs, self.small_regs, self.tiny_regs, self.obj_regs,
            self.arr_regs)
        pick = rng.randrange(112 if self.rich else 100)
        dst = rng.choice(regs)
        if pick < 12:
            imm = rng.choice((0, 1, 2, -3, 64, (1 << 63) - 1))
            body.append(MInstr(MOp.CONST, dst=dst, imm=imm))
            wrote(dst)
            int_regs.add(dst)
            if abs(imm) <= 64:
                small_regs.add(dst)
            if 0 <= imm <= 2:
                tiny_regs.add(dst)
        elif pick < 16:
            a = rng.choice(regs)
            body.append(MInstr(MOp.MOV, dst=dst, a=a))
            was = (a in int_regs, a in small_regs, a in tiny_regs,
                   a in obj_regs, a in arr_regs)
            wrote(dst)
            for member, pool in zip(
                    was,
                    (int_regs, small_regs, tiny_regs, obj_regs, arr_regs)):
                if member:
                    pool.add(dst)
        elif pick < 34:
            a, b = pick_from(int_regs), pick_from(int_regs)
            body.append(MInstr(rng.choice(_ALU), dst=dst, a=a, b=b))
            wrote(dst)
            if a in int_regs and b in int_regs:
                int_regs.add(dst)
        elif pick < 40:
            body.append(MInstr(MOp.LOADF, dst=dst, a=pick_from(obj_regs),
                               fieldname=rng.choice(_FIELDS)))
            wrote(dst)
        elif pick < 46:
            body.append(MInstr(MOp.STOREF, a=pick_from(obj_regs),
                               b=rng.choice(regs),
                               fieldname=rng.choice(_FIELDS)))
        elif pick < 52:
            body.append(MInstr(MOp.LOADA, dst=dst, a=pick_from(arr_regs),
                               b=pick_from(tiny_regs)))
            wrote(dst)
        elif pick < 58:
            body.append(MInstr(MOp.STOREA, a=pick_from(arr_regs),
                               b=pick_from(tiny_regs), c=rng.choice(regs)))
        elif pick < 62:
            body.append(MInstr(MOp.LOADLEN, dst=dst, a=pick_from(arr_regs)))
            wrote(dst)
            int_regs.add(dst)
            small_regs.add(dst)
        elif pick < 66:
            body.append(MInstr(MOp.LOADLOCK, dst=dst,
                               a=pick_from(obj_regs)))
            wrote(dst)
            int_regs.add(dst)
            small_regs.add(dst)
            tiny_regs.add(dst)
        elif pick < 70:
            body.append(MInstr(MOp.CLASSOF, dst=dst,
                               a=pick_from(obj_regs)))
            wrote(dst)
        elif pick < 75:
            body.append(MInstr(MOp.LOADSPILL, dst=dst,
                               imm=rng.randrange(_NUM_SPILL)))
            wrote(dst)
        elif pick < 80:
            body.append(MInstr(MOp.STORESPILL, a=rng.choice(regs),
                               imm=rng.randrange(_NUM_SPILL)))
        elif pick < 83:
            body.append(MInstr(MOp.LOADG, dst=dst,
                               imm=rng.choice((None, 0x7000 + 8 * dst))))
            wrote(dst)
            int_regs.add(dst)
            small_regs.add(dst)
            tiny_regs.add(dst)
        elif pick < 87:
            body.append(MInstr(MOp.NEWOBJ, dst=dst, cls=_CLASS))
            wrote(dst)
            obj_regs.add(dst)
        elif pick < 91:
            # Array length must come from a provably small register: a
            # wildcard pick could alias a 2**62 int and the host would
            # genuinely try to allocate it.
            if not tiny_regs:
                length_reg = rng.choice(regs)
                body.append(MInstr(MOp.CONST, dst=length_reg,
                                   imm=rng.randrange(3)))
                wrote(length_reg)
                int_regs.add(length_reg)
                small_regs.add(length_reg)
                tiny_regs.add(length_reg)
            else:
                length_reg = rng.choice(sorted(tiny_regs))
            body.append(MInstr(MOp.NEWARR, dst=dst, a=length_reg))
            wrote(dst)
            arr_regs.add(dst)
        elif pick < 95:
            body.append(MInstr(MOp.CONST_NULL, dst=dst))
            wrote(dst)
        elif pick < 100:
            a, b = pick_from(int_regs), pick_from(int_regs)
            body.append(MInstr(MOp.BR_TRAP, cond=rng.choice(_TRAP_CONDS),
                               a=a, b=None if rng.random() < 0.4 else b))
        elif pick < 104:
            # Monitor enter/exit: unmatched exits and foreign owners
            # exercise the lock-store template's bails to the reference.
            body.append(MInstr(MOp.STORELOCK, a=pick_from(obj_regs),
                               imm=rng.choice((1, 1, -1))))
        else:
            op = rng.choice((MOp.FAA, MOp.CAS, MOp.LL, MOp.SC))
            obj = pick_from(obj_regs)
            field = rng.choice(_FIELDS)
            if op is MOp.FAA:
                body.append(MInstr(op, dst=dst, a=obj, b=pick_from(int_regs),
                                   fieldname=field))
            elif op is MOp.CAS:
                body.append(MInstr(op, dst=dst, a=obj, b=rng.choice(regs),
                                   c=rng.choice(regs), fieldname=field))
            elif op is MOp.LL:
                body.append(MInstr(op, dst=dst, a=obj, fieldname=field))
            else:
                body.append(MInstr(op, dst=dst, a=obj, b=rng.choice(regs),
                                   fieldname=field))
            wrote(dst)
            if op is MOp.CAS or op is MOp.SC:
                int_regs.add(dst)
                small_regs.add(dst)
                tiny_regs.add(dst)


def _compiled(name: str, instrs: list[MInstr], regioned: bool,
              region_entries: dict[int, int]) -> CompiledMethod:
    compiled = CompiledMethod(
        name=name,
        num_params=_NUM_PARAMS,
        instrs=instrs,
        num_regs=_NUM_REGS,
        num_spill_slots=_NUM_SPILL,
        region_entries=region_entries,
        uses_regions=regioned,
    )
    compiled.param_locations = tuple(  # type: ignore[attr-defined]
        ("r", index) for index in range(_NUM_PARAMS))
    return compiled


def uop_case(seed: int, region_bias: float = 0.5) -> UopCase:
    """Generate one seeded straight-line case (deterministic per seed).

    ``region_bias`` is the probability the body runs inside an atomic
    region with a constant-returning recovery path.
    """
    rng = random.Random(seed)
    gen = _Gen(rng, range(_NUM_REGS))
    arg_specs = gen.args()
    body = gen.chunk(rng.randrange(4, 40))
    ret_reg = rng.choice(gen.regs)
    regioned = rng.random() < region_bias

    instrs: list[MInstr] = []
    region_entries: dict[int, int] = {}
    if regioned:
        split = rng.randrange(len(body) + 1)
        instrs.extend(body[:split])
        begin_index = len(instrs)
        instrs.append(MInstr(MOp.AREGION_BEGIN, imm=1))
        region_entries[1] = begin_index
        instrs.extend(body[split:])
        instrs.append(MInstr(MOp.AREGION_END))
        instrs.append(MInstr(MOp.RET, a=ret_reg))
        # Recovery path: land here on any abort, return a sentinel.
        alt = len(instrs)
        instrs[begin_index].target = alt
        instrs.append(MInstr(MOp.CONST, dst=ret_reg,
                             imm=-(1000 + seed % 997)))
        instrs.append(MInstr(MOp.RET, a=ret_reg))
    else:
        instrs.extend(body)
        instrs.append(MInstr(MOp.RET, a=ret_reg))
    return UopCase(seed=seed,
                   compiled=_compiled(f"uopcase_{seed}", instrs, regioned,
                                      region_entries),
                   program=_base_program(), arg_specs=arg_specs)


def branchy_case(seed: int, region_bias: float = 0.7) -> UopCase:
    """Generate one seeded branchy case (deterministic per seed).

    The body is a few segments of :meth:`_Gen.chunk` uops — including
    lock-word stores and atomic RMW — joined by forward ``BR``/``JMP``
    edges (and, inside a region, ``BR_ABORT`` edges to an abort stub),
    with one segment wrapped in a loop whose back edge is a ``BR`` on a
    counter register the body never writes, so every run terminates.
    With probability ``region_bias`` everything after a short prologue
    runs inside an atomic region with a constant-returning recovery
    path.
    """
    rng = random.Random(f"branchy:{seed}")
    gen = _Gen(rng, range(_STEP_REG), rich=True)
    arg_specs = gen.args()
    prologue = gen.chunk(rng.randrange(0, 3))
    segments = [gen.chunk(rng.randrange(1, 6))
                for _ in range(rng.randrange(2, 6))]
    loop_at = rng.randrange(len(segments))
    trips = rng.randrange(1, 4)
    ret_reg = rng.choice(gen.regs)
    regioned = rng.random() < region_bias

    instrs = list(prologue)
    instrs.append(MInstr(MOp.CONST, dst=_STEP_REG, imm=1))
    region_entries: dict[int, int] = {}
    if regioned:
        region_entries[1] = len(instrs)
        instrs.append(MInstr(MOp.AREGION_BEGIN, imm=1))
    labels: list[int] = []
    forward: list[tuple[MInstr, int]] = []   # (branch, target segment)
    aborts: list[MInstr] = []
    for j, segment in enumerate(segments):
        if j == loop_at:
            instrs.append(MInstr(MOp.CONST, dst=_LOOP_REG, imm=trips))
        labels.append(len(instrs))
        instrs.extend(segment)
        if j == loop_at:
            instrs.append(MInstr(MOp.SUB, dst=_LOOP_REG, a=_LOOP_REG,
                                 b=_STEP_REG))
            instrs.append(MInstr(MOp.BR, cond="gt", a=_LOOP_REG,
                                 target=labels[j]))
        edge = rng.random()
        cond = rng.choice(_TRAP_CONDS)
        a = gen.pick_from(gen.int_regs)
        b = None if rng.random() < 0.4 else gen.pick_from(gen.int_regs)
        to = rng.randrange(j + 1, len(segments) + 1)
        if edge < 0.35:
            branch = MInstr(MOp.BR, cond=cond, a=a, b=b)
            forward.append((branch, to))
            instrs.append(branch)
        elif edge < 0.5:
            branch = MInstr(MOp.JMP)
            forward.append((branch, to))
            instrs.append(branch)
        elif edge < 0.65 and regioned:
            branch = MInstr(MOp.BR_ABORT, cond=cond, a=a, b=b,
                            abort_id=100 + j)
            aborts.append(branch)
            instrs.append(branch)
    labels.append(len(instrs))
    for branch, to in forward:
        branch.target = labels[to]
    if regioned:
        instrs.append(MInstr(MOp.AREGION_END))
    instrs.append(MInstr(MOp.RET, a=ret_reg))
    if regioned:
        # Recovery path: land here on any abort, return a sentinel.
        instrs[region_entries[1]].target = len(instrs)
        instrs.append(MInstr(MOp.CONST, dst=ret_reg,
                             imm=-(2000 + seed % 997)))
        instrs.append(MInstr(MOp.RET, a=ret_reg))
    for branch in aborts:
        branch.target = len(instrs)
        instrs.append(MInstr(MOp.AREGION_ABORT, imm=branch.abort_id,
                             cls="assert", abort_id=branch.abort_id))
    return UopCase(seed=seed,
                   compiled=_compiled(f"branchy_{seed}", instrs, regioned,
                                      region_entries),
                   program=_base_program(), arg_specs=arg_specs)


def fault_plan(seed: int) -> FaultPlan:
    """A dense seeded fault schedule for one battery case: every
    region-relative kind (assert, exception, conflict, line and
    store-buffer capacity shrinks) at short offsets, plus interrupts a
    few dozen uops apart."""
    return FaultPlan.seeded(
        seed, conflict_rate=0.25, assert_rate=0.25, exception_rate=0.25,
        overflow_rate=0.15, capacity_rate=0.15, interrupt_gap=(3, 40),
        offset_range=(1, 16), capacity_lines=2, capacity_stores=0)


def timing_snapshot(timing: TimingModel) -> tuple:
    """Everything a timing model carries between uops: the cycle count,
    the scoreboard (fetch/retire state, window, register/store ready
    times, pending events), the predictor (history, counters, tables)
    and the cache counters and contents."""
    pred = timing.predictor
    memory = timing.memory
    return (
        timing.cycles,
        timing._fetch_cycle, timing._fetched_this_cycle,
        timing._retire_cycle, timing._retired_this_cycle,
        tuple(timing._window), tuple(timing._reg_ready),
        tuple(sorted(timing._store_ready.items())),
        timing._pending_mispredict, timing._record_commit_next,
        timing._last_region_commit,
        pred.history, pred.predictions, pred.mispredictions,
        zlib.crc32(pred.gshare.table), zlib.crc32(pred.bimodal.table),
        zlib.crc32(pred.chooser.table),
        memory.accesses, memory.l1.hits, memory.l1.misses,
        memory.l2.hits, memory.l2.misses,
        tuple(map(tuple, memory.l1.sets)),
    )


def stats_fingerprint(stats: ExecStats) -> tuple:
    """``stats.summary()`` plus the raw per-kind counters and abort
    breakdowns it folds into ratios or leaves out."""
    return (
        tuple(sorted(stats.summary().items())),
        stats.loads, stats.stores, stats.branches, stats.mispredicts,
        stats.monitor_ops, stats.regions_committed, stats.uops_in_regions,
        tuple(sorted(stats.abort_reasons.items())),
        tuple(sorted(stats.abort_sites.items())),
        tuple(stats.region_sizes), tuple(stats.region_lines),
    )


def _value(value):
    """A register or slot value, comparable across runs: references (per-run
    host objects) by their repr, class and deterministic heap address."""
    return value if isinstance(value, (int, str, type(None))) else repr(value)


def frame_snapshot(fr, pc: int) -> tuple:
    """Everything a uop at ``pc`` can read before it retires: the
    registers and spill slots, the in-flight region's uop count, line
    sets and store buffer, the :func:`stats_fingerprint` and, when timed,
    the :func:`timing_snapshot`."""
    region = fr.region
    if region is not None:
        region = (
            region.uops,
            tuple(sorted(region.read_lines)),
            tuple(sorted(region.write_lines)),
            tuple((repr(target), key[1], slot, _value(value))
                  for key, (target, slot, value)
                  in region.store_buffer.items()),
        )
    return (
        pc, tuple(map(_value, fr.regs)), tuple(map(_value, fr.spill)),
        region, stats_fingerprint(fr.stats),
        timing_snapshot(fr.timing) if fr.timing is not None else None,
    )


class _Fetches:
    """The instruction array as the reference loop fetches it: each fetch
    logs the frame's snapshot under the machine's retired-uop count."""

    __slots__ = ("instrs", "fr", "log")

    def __init__(self, instrs, fr, log: list) -> None:
        self.instrs = instrs
        self.fr = fr
        self.log = log

    def __getitem__(self, pc: int):
        fr = self.fr
        self.log.append((fr.machine.uops_executed, frame_snapshot(fr, pc)))
        return self.instrs[pc]


def _machine(case: UopCase, dispatch: str, timing: bool,
             hw: HardwareConfig, faults: FaultPlan | None, tracer=None):
    """A fresh machine and heap for one run of ``case``."""
    heap = Heap()
    machine = Machine(
        case.program, heap, config=hw, stats=ExecStats(),
        timing=TimingModel(hw) if timing else None, dispatch=dispatch,
        fault_injector=FaultInjector(faults) if faults is not None else None,
        tracer=tracer,
    )
    return machine, heap


def step_snapshots(case: UopCase, dispatch: str, timing: bool = False,
                   hw: HardwareConfig = BASELINE_4WIDE,
                   faults: FaultPlan | None = None) -> list:
    """Run ``case`` as :func:`run_uop_case` does and return
    ``(uops_executed, frame_snapshot)`` pairs, in order: one per fetch
    of the reference loop on the ``interpretive`` tier, one per
    ``Machine._step`` entry on a fast tier.  The outcome is
    :func:`run_uop_case`'s to compare."""
    machine, heap = _machine(case, dispatch, timing, hw, faults)
    log: list = []
    if dispatch == "interpretive":
        run = machine._run
        machine._run = lambda fr, pc, instrs: run(
            fr, pc, _Fetches(instrs, fr, log))
    else:
        step = machine._step

        def recorded_step(fr, pc):
            log.append((machine.uops_executed, frame_snapshot(fr, pc)))
            return step(fr, pc)

        machine._step = recorded_step
    try:
        machine.execute(case.compiled, case.make_args(heap))
    except Exception:  # noqa: BLE001 - any outcome; only the log matters
        pass
    return log


def run_uop_case(case: UopCase, dispatch: str, timing: bool = False,
                 hw: HardwareConfig = BASELINE_4WIDE,
                 faults: FaultPlan | None = None, tracer=None):
    """Run ``case`` on a fresh machine/heap under one dispatch tier.

    Returns ``(outcome, stats, heap_fingerprint, timing)`` where
    ``outcome`` is ``("value", v)`` or ``("raise", type, str)`` —
    generated programs legitimately produce guest traps *and* host-level
    ``VMError``/``TypeError`` for malformed operands, and the tiers must
    agree on those too — ``stats`` is the :func:`stats_fingerprint`, and
    ``timing`` is the model's :func:`timing_snapshot` after the run (None
    when untimed).  ``faults`` attaches a fresh injector for that plan
    (which selects the faulted profile's fused code under ``auto``;
    ``FaultPlan.none()`` selects it with no fault armed).  ``tracer`` (a
    :class:`~repro.obs.Tracer`) records the run's events for the caller.
    """
    machine, heap = _machine(case, dispatch, timing, hw, faults, tracer)
    stats, model = machine.stats, machine.timing
    args = case.make_args(heap)
    try:
        value = machine.execute(case.compiled, args)
        if not isinstance(value, (int, type(None))):
            # References are per-run host objects; their repr (class +
            # deterministic heap address) is the comparable identity.
            value = repr(value)
        outcome = ("value", value)
    except Exception as exc:  # noqa: BLE001 - the comparison IS the test
        outcome = ("raise", type(exc).__name__, str(exc))
    snapshot = timing_snapshot(model) if model is not None else None
    return outcome, stats_fingerprint(stats), heap.fingerprint(), snapshot
