"""Template JIT: fused straight-line uop runs compiled to Python source.

PR 4's pre-decoded handler arrays (:mod:`repro.hw.codegen`) pay one
Python call, two counter stores, and a retirement-check call per retired
uop.  This module is the third dispatch tier: it walks a compiled
method's decoded uops, partitions every basic block into runs of
*fusable* uops (at most :data:`MAX_RUN` long), and emits real Python
source for each run — one function per run, registers resolved to list
indexes, immediates/field names/branch targets baked in as constants,
and the per-uop bookkeeping collapsed into batched counter flushes at
the run's exit points (superinstruction fusion).  Each run is
``compile()``d on its *first execution*: the dispatch table starts out
holding a stub per run that compiles the run, patches itself out of the
table, and runs it.  The table is cached on the
:class:`~repro.hw.isa.CompiledMethod` alongside the pre-decode arrays,
under the same ``disable_region``/recompile invalidation.

The contract is the same strict observational equivalence the
pre-decoded tier obeys: byte-identical :class:`ExecStats`, identical
timing-model state (cycle counts, scoreboard, predictor, caches),
identical heap/address allocation order, and identical
exception/abort behaviour versus the interpretive loop (enforced by
``tests/test_differential.py`` and the generative battery in
``tests/test_templatejit.py``).  Three mechanisms make that hold:

**Side exits re-land on the per-uop tier.**  Any situation the emitted
fast path cannot (or should not) handle inline — a non-integer ALU
operand, a missing field, an out-of-bounds or non-integer array index, a
reference comparison under an ordered condition, a negative array length
— *bails*: it flushes the batched counters for the uops already
completed and tail-calls the pre-decoded handler of the *current* uop,
which replays it from scratch with exactly the slow path's semantics
(counters, traps, aborts, errors).  A bail always happens before the
current uop has any observable effect, so the replay is exact.

**Retirement checks only where they can fire.**  The interpretive loop
probes ``Machine._hw_condition`` after every retired uop; under the
JIT's admission profile (no scheduler, no tracer, no fault injector)
that probe's verdict can only change when a uop grows the region's
read/write line sets or store buffer.  Fused code therefore emits the
(profile-specialised) check only after the memory-tracking uops —
CLASSOF/LOADF/STOREF/LOADA/STOREA/LOADLEN — in the region body, and the
checks it emits mirror ``_hw_condition``'s order and detail-register
writes exactly.  Lock-word *stores*, atomic-RMW, call, return, and
region begin/end/abort uops are never fused; they stay on their
pre-decoded handlers, splitting runs.  ``LOADLOCK`` — the SLE'd
monitor-enter's single probing load — *is* fused: it is a pure read
(read-set add + lock-owner probe) and sits on the hottest
elided-monitor paths.

**The timing model is folded in.**  Every fused run has two variants.
The untimed one touches no timing state.  The timed one inlines the
:class:`~repro.hw.timing.TimingModel` scoreboard: each uop's static
facts (:func:`~repro.hw.timing.uop_timing` — sources, execution class,
latency, destination) and the machine's widths, window, mispredict
penalty, predictor masks and L1 geometry are constants, and only the
dynamic state lives at run time — in locals loaded from the model at
function entry (fetch/retire cycle and count, the window, register and
store ready times, predictor history and tables).  The combining
predictor runs inline, a mispredict's bubble is applied in the same
uop's tick, and an L1 access that hits the most-recently-used way (no
LRU reorder needed) is resolved inline; every other access calls the
cache model.  The locals are written back to the model before *every*
exit — fall-through, branch returns, bails, ``_fast_abort``,
``_fast_exception`` and ``raise`` — so whatever runs next (a handler, the
abort machinery, the next run) sees exactly the per-uop model's state
(the deoptimization discipline).  A trap path, which never ticks, leaves
a mispredict pending for the next uop like the slow path; and a run
entered while the model carries a pending mispredict or commit record
bails to its first uop's handler, so fused code never has to apply them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..runtime.errors import GuestError
from ..runtime.heap import GuestArray, GuestObject
from ..runtime.interpreter import guest_div, guest_mod, wrap_int
from .codegen import (
    _machine_blocks,
    _trap_error,
    get_predecoded,
    machine_compare,
)
from .isa import CompiledMethod, MOp
from .timing import LOAD, RMW, STORE, uop_timing

__all__ = [
    "FUSABLE_MOPS",
    "MAX_RUN",
    "JitProfile",
    "JittedMethod",
    "fused_runs",
    "get_jitted",
    "jit_compile",
    "jit_profile",
    "jit_source",
]

#: uops the emitter knows how to fuse.  Everything else (atomics,
#: lock-word ops, calls, return, region begin/end/abort) stays on its
#: pre-decoded handler and splits the surrounding run.
FUSABLE_MOPS = frozenset({
    MOp.CONST, MOp.CONST_NULL, MOp.CONST_CLASS, MOp.MOV,
    MOp.ADD, MOp.SUB, MOp.MUL, MOp.DIV, MOp.MOD,
    MOp.AND, MOp.OR, MOp.XOR, MOp.SHL, MOp.SHR,
    MOp.CLASSOF, MOp.LOADF, MOp.STOREF, MOp.LOADA, MOp.STOREA,
    MOp.LOADLEN, MOp.LOADLOCK, MOp.LOADSPILL, MOp.STORESPILL, MOp.LOADG,
    MOp.NEWOBJ, MOp.NEWARR,
    MOp.BR, MOp.JMP, MOp.BR_TRAP, MOp.BR_ABORT,
})

#: a run must cover at least this many uops to be worth a fused function.
MIN_RUN = 2

#: longer fusable spans are cut into runs of at most this many uops, so
#: one host-compile unit (and the code object it leaves behind) stays
#: small however long a straight-line block is.
MAX_RUN = 48

#: uops that grow the region's read/write line sets or store buffer —
#: the only points where the retirement-time hardware condition can
#: newly fire under the JIT admission profile.
_MEM_TRACK = frozenset({
    MOp.CLASSOF, MOp.LOADF, MOp.STOREF, MOp.LOADA, MOp.STOREA, MOp.LOADLEN,
    MOp.LOADLOCK,
})

_BRANCHY = frozenset({MOp.BR, MOp.BR_TRAP, MOp.BR_ABORT})
_SPILLY = frozenset({MOp.LOADSPILL, MOp.STORESPILL})

_INT_MIN = -(1 << 63)
_INT_MAX = (1 << 63) - 1
_MASK64 = (1 << 64) - 1

_CMP_PY = {"lt": "<", "le": "<=", "gt": ">", "ge": ">=",
           "eq": "==", "ne": "!="}


@dataclass(frozen=True)
class JitProfile:
    """Machine parameters baked into generated source.

    Only knobs that appear as *constants* in the emitted code belong
    here; anything read dynamically through ``fr.machine`` (L1 geometry
    for the cache-shaped probe, the fallback lock object) does not force
    a recompile.
    """

    line_shift: int
    region_line_limit: int
    store_bound: int | None
    cache_shaped: bool
    fallback_begin: bool
    # -- the timing model's scoreboard (timed variant only) ----------------
    fetch_width: int
    retire_width: int
    window: int
    mispredict_penalty: int
    #: gshare index/history mask and bimodal/chooser index mask.
    gshare_mask: int
    bimodal_mask: int
    l1_set_mask: int
    l1_hit_cycles: int


def jit_profile(machine) -> JitProfile:
    """The profile of ``machine`` (see :class:`JitProfile`)."""
    config = machine.config
    return JitProfile(
        line_shift=machine._line_shift,
        region_line_limit=config.region_line_limit,
        store_bound=machine._store_bound,
        cache_shaped=machine._cache_shaped,
        fallback_begin=machine._fallback_mode == "begin",
        fetch_width=config.fetch_width,
        retire_width=config.retire_width,
        window=config.instruction_window,
        mispredict_penalty=config.branch_mispredict_penalty,
        gshare_mask=config.gshare_entries - 1,
        bimodal_mask=config.bimodal_entries - 1,
        l1_set_mask=config.l1_config.num_sets - 1,
        l1_hit_cycles=config.l1_config.hit_cycles,
    )


@dataclass
class JittedMethod:
    """The template-JIT dispatch form of one :class:`CompiledMethod`.

    :meth:`table` returns a pc-indexed list of callables: the fused run
    function (or, until its first execution, the stub that compiles it)
    at each run-start pc, the pre-decoded per-uop handler everywhere
    else.  The machine's jit loop is identical in shape to the
    pre-decoded loop — ``pc = table[pc](fr)`` — so entering and leaving
    fused code costs nothing beyond the table load.
    """

    #: machine constants the source was specialised for.
    profile: JitProfile
    #: fused spans ``(start, end)`` over the instruction array.
    runs: list = field(default_factory=list)
    #: the code object the runs were cut from.
    _compiled: CompiledMethod | None = field(
        default=None, repr=False, compare=False)
    #: the pre-decoded handler array the tables fall back to.
    _handlers: list = field(default_factory=list, repr=False, compare=False)
    #: lazily-built dispatch tables, indexed ``[timed]``.
    _tables: list = field(default_factory=lambda: [None, None],
                          repr=False, compare=False)

    def table(self, timed: bool) -> list:
        """The dispatch table for one timing variant (built on first
        use, cached for the lifetime of this jit form)."""
        tab = self._tables[timed]
        if tab is None:
            tab = self._tables[timed] = _build_table(self, timed)
        return tab


def fused_runs(compiled: CompiledMethod) -> list[tuple[int, int]]:
    """Fusable straight-line spans, one per ``(start, end)``.

    Runs never cross basic-block boundaries (every branch target is a
    block leader, so control can only *enter* a fused function at its
    first uop) and never include an unfusable uop.  A maximal span
    longer than :data:`MAX_RUN` is cut into consecutive runs; control
    falls from one into the next through the dispatch loop.
    """
    instrs = compiled.instrs
    blocks, _ = _machine_blocks(instrs)
    runs: list[tuple[int, int]] = []
    for start, end, _succs in blocks:
        i = start
        while i < end:
            if instrs[i].op in FUSABLE_MOPS:
                j = i
                while j < end and instrs[j].op in FUSABLE_MOPS:
                    j += 1
                for k in range(i, j, MAX_RUN):
                    if min(j, k + MAX_RUN) - k >= MIN_RUN:
                        runs.append((k, min(j, k + MAX_RUN)))
                i = j
            else:
                i += 1
    return runs


# ---------------------------------------------------------------------------
# Source emission
# ---------------------------------------------------------------------------

class _Body:
    """Emits one body (plain or region) of one fused-run variant.

    Tracks the statically-known counter increments of the uops completed
    so far; every exit point flushes them in one batch, so the per-uop
    ``uops_retired``/``loads``/``stores``/``branches`` stores of the
    handler tier collapse into a handful of ``+= K`` statements.  The
    timed variant also tracks which timing-model state the uops emitted
    so far have changed, so each exit writes back exactly that state.
    """

    def __init__(self, regioned: bool, timed: bool, profile: JitProfile,
                 base_depth: int) -> None:
        self.regioned = regioned
        self.timed = timed
        self.profile = profile
        self.base = base_depth
        self.lines: list[str] = []
        # completed-uop counter batch: uops, loads, stores, branches,
        # monitor ops
        self.u = self.l = self.s = self.b = self.m = 0
        # timed: scoreboard ticked / predictor trained / L1 hit inline
        self.ticked = self.predicted = self.cached = False

    # -- plumbing ---------------------------------------------------------
    def w(self, text: str, depth: int = 0) -> None:
        self.lines.append("    " * (self.base + depth) + text)

    def _flush_stmts(self, u: int, l: int, s: int, b: int,
                     m: int) -> list[str]:
        out = []
        if u:
            out.append(f"mach.uops_executed += {u}")
            out.append(f"st.uops_retired += {u}")
            if self.regioned:
                out.append(f"region.uops += {u}")
                out.append(f"region.record.uops += {u}")
        if l:
            out.append(f"st.loads += {l}")
        if s:
            out.append(f"st.stores += {s}")
        if b:
            out.append(f"st.branches += {b}")
        if m:
            out.append(f"st.monitor_ops += {m}")
        if self.timed:
            if b:
                out.append(f"P.predictions += {b}")
            if self.ticked:
                out.append("T._fetch_cycle, T._fetched_this_cycle, "
                           "T._retire_cycle, T._retired_this_cycle = "
                           "fc, fn, rc, rn")
            if self.predicted:
                out.append("P.history = ph")
            if self.cached:
                out.append("MEM.accesses += mh")
                out.append("MEM.l1.hits += mh")
        return out

    def flush(self, depth: int, inc=(0, 0, 0, 0, 0)) -> None:
        """Exit bookkeeping: the batched counters (plus ``inc`` for the
        current uop) and, when timed, the timing-model write-back."""
        for stmt in self._flush_stmts(self.u + inc[0], self.l + inc[1],
                                      self.s + inc[2], self.b + inc[3],
                                      self.m + inc[4]):
            self.w(stmt, depth)

    def bail(self, i: int, depth: int) -> None:
        """Deoptimise: replay uop ``i`` on its pre-decoded handler.

        Must be emitted before the current uop has any observable
        effect; the flush covers only the uops already completed.
        """
        self.flush(depth)
        self.w(f"return H[{i}](fr)", depth)

    def addr(self, expr: str, reused: bool = False) -> str:
        """The current uop's simulated address as an expression: the
        local ``m`` when the template (``reused``) or the timed tick
        needs it more than once."""
        if reused or self.timed:
            self.w(f"m = {expr}")
            return "m"
        return expr

    def _l1(self, mem: str, hit: str | None, miss: str) -> None:
        """One cache access: inline when it hits the L1's
        most-recently-used way (nothing to reorder), else the model."""
        p = self.profile
        self.w(f"tx = {mem} >> {p.line_shift}")
        self.w(f"ws = L1W[tx & {p.l1_set_mask}]")
        self.w("if ws and ws[-1] == tx:")
        self.w("mh += 1", 1)
        if hit is not None:
            self.w(hit, 1)
        self.w("else:")
        self.w(miss, 1)
        self.cached = True

    def tick(self, instr, mem: str, mispredict: bool = False) -> None:
        """The timing model's ``uop(instr, mem)``, inlined with
        ``instr``'s static facts baked in (``mispredict``: apply the
        bubble of this branch's prediction ``mp``)."""
        if not self.timed:
            return
        p = self.profile
        srcs, kind, latency, dst = uop_timing(instr)
        w = self.w
        # Fetch: width-limited, gated by window occupancy.
        w(f"if len(win) >= {p.window}:")
        w("tx = wpop()", 1)
        w("if tx > fc:", 1)
        w("fc = tx", 2)
        w("fn = 0", 2)
        w(f"if fn >= {p.fetch_width}:")
        w("fc += 1.0", 1)
        w("fn = 0", 1)
        w("tr = fc")
        w("fn += 1")
        # Issue: wait for register inputs.
        for src in srcs:
            w(f"tx = rr[{src}]")
            w("if tx > tr:")
            w("tr = tx", 1)
        # Execute.
        assert kind != RMW, "lock-word stores and atomics are never fused"
        if kind == LOAD and mem != "None":
            w(f"tx = sr.get({mem})")
            w("if tx is not None and tx > tr:")
            w("tr = tx", 1)
            self._l1(mem, f"tc = tr + {p.l1_hit_cycles}", f"tc = tr + MA({mem})")
        elif kind == STORE:
            self._l1(mem, None, f"MA({mem})")
            w(f"tc = tr + {latency}")
            w(f"sr[{mem}] = tc")
        else:
            w(f"tc = tr + {latency}")
        if dst is not None:
            w(f"rr[{dst}] = tc")
        # In-order retirement at retire_width per cycle.
        w("if tc > rc:")
        w("rc = tc", 1)
        w("rn = 1", 1)
        w("else:")
        w("rn += 1", 1)
        w(f"if rn >= {p.retire_width}:", 1)
        w("rc += 1.0", 2)
        w("rn = 0", 2)
        w("wapp(rc)")
        if mispredict:
            # Branch misprediction bubble: fetch resumes after resolution.
            w("if mp:")
            w(f"tx = tc + {p.mispredict_penalty}", 1)
            w("if tx > fc:", 1)
            w("fc = tx", 2)
            w("fn = 0", 1)
        self.ticked = True

    def predict(self, i: int) -> None:
        """The combining predictor's ``predict_and_update`` for the
        branch at uop ``i`` with outcome ``t``, inlined; leaves
        ``mp`` (mispredicted) set and counts a mispredict."""
        p = self.profile
        gm, bm = p.gshare_mask, p.bimodal_mask
        w = self.w
        w(f"tx = cbase + {i}")
        w(f"gi = (tx ^ ph) & {gm}")
        w(f"bi = tx & {bm}")
        w("gv = GT[gi]")
        w("bv = BT[bi]")
        w("gp = gv >= 2")
        w("bp = bv >= 2")
        w("if t:")
        w("mp = not (gp if CT[bi] >= 2 else bp)", 1)
        w("if gv < 3:", 1)
        w("GT[gi] = gv + 1", 2)
        w("if bv < 3:", 1)
        w("BT[bi] = bv + 1", 2)
        w(f"ph = ((ph << 1) | 1) & {gm}", 1)
        w("else:")
        w("mp = gp if CT[bi] >= 2 else bp", 1)
        w("if gv > 0:", 1)
        w("GT[gi] = gv - 1", 2)
        w("if bv > 0:", 1)
        w("BT[bi] = bv - 1", 2)
        w(f"ph = (ph << 1) & {gm}", 1)
        w("if gp != bp:")
        w("cv = CT[bi]", 1)
        w("if gp == t:", 1)
        w("if cv < 3:", 2)
        w("CT[bi] = cv + 1", 3)
        w("elif cv > 0:", 1)
        w("CT[bi] = cv - 1", 2)
        w("if mp:")
        w("st.mispredicts += 1", 1)
        w("P.mispredictions += 1", 1)
        self.predicted = True

    def hw_check(self, i: int, inc) -> None:
        """The retirement-time hardware condition, specialised and
        emitted only after set-growing uops (mirrors
        ``Machine._hw_condition``'s order and detail writes)."""
        if not self.regioned:
            return
        p = self.profile
        nxt = i + 1
        if p.fallback_begin:
            self.w("if fbl.held_by_other(region.owner_tid):")
            self.w("region.real_conflict = True", 1)
            self.flush(1, inc)
            self.w(f"return mach._fast_abort(fr, 'conflict', {nxt})", 1)
        self.w(f"if len(rl) + len(wl) > {p.region_line_limit}:")
        self.flush(1, inc)
        self.w(f"return mach._fast_abort(fr, 'overflow', {nxt})", 1)
        if p.store_bound is not None:
            self.w(f"if len(sb) > {p.store_bound}:")
            self.w("region.capacity_detail = "
                   f"('store_buffer', len(sb), {p.store_bound})", 1)
            self.flush(1, inc)
            self.w(f"return mach._fast_abort(fr, 'capacity', {nxt})", 1)
        if p.cache_shaped:
            self.w("if mach._set_overflow(region):")
            self.flush(1, inc)
            self.w(f"return mach._fast_abort(fr, 'capacity', {nxt})", 1)

    def _wrap_store(self, dst: int, expr: str) -> None:
        """Store ``expr`` (an int expression that may exceed 64 bits)
        into ``regs[dst]`` with the slow path's wrap-around."""
        self.w(f"v = {expr}")
        self.w(f"regs[{dst}] = v if {_INT_MIN} <= v <= {_INT_MAX} "
               "else _wi(v)")

    def _cond(self, i: int, cond: str, a: int, b: int | None) -> None:
        """Evaluate branch condition ``cond`` into local ``t``.

        Integer operands run inline; reference equality falls back to
        ``machine_compare`` (which cannot raise for eq/ne); ordered
        conditions on non-integers bail so the handler raises the slow
        path's ``VMError`` with exact counter state.
        """
        self.w(f"x = regs[{a}]")
        if b is not None:
            self.w(f"y = regs[{b}]")
        if cond == "uge":
            self.w("if type(x) is int and type(y) is int:")
            self.w(f"t = (x & {_MASK64}) >= (y & {_MASK64})", 1)
            self.w("else:")
            self.bail(i, 1)
            return
        op = _CMP_PY[cond]
        if cond in ("eq", "ne"):
            if b is None:
                null = "is None" if cond == "eq" else "is not None"
                self.w(f"t = (x {op} 0) if type(x) is int else (x {null})")
            else:
                # Full compare() semantics, inlined: ints by value,
                # references by identity, int-vs-ref equal only for the
                # null/0 pair (ne branches are the negations).
                eq = cond == "eq"
                self.w("if type(x) is int:")
                self.w(f"t = (x {op} y) if type(y) is int else "
                       + ("(y is None and x == 0)" if eq
                          else "(y is not None or x != 0)"), 1)
                self.w("elif type(y) is int:")
                self.w(("t = x is None and y == 0" if eq
                        else "t = x is not None or y != 0"), 1)
                self.w("else:")
                self.w(f"t = x is{'' if eq else ' not'} y", 1)
            return
        if b is None:
            self.w("if type(x) is int:")
            self.w(f"t = x {op} 0", 1)
            self.w("else:")
            self.bail(i, 1)
            return
        self.w("if type(x) is int and type(y) is int:")
        self.w(f"t = x {op} y", 1)
        self.w("else:")
        self.bail(i, 1)

    def _mem_ref(self, i: int, a: int, kind) -> None:
        """Load ``regs[a]`` into ``o`` and bail unless it is a ``kind``
        guest reference (null and junk replay on the handler, which
        raises/aborts exactly like the slow path)."""
        self.w(f"o = regs[{a}]")
        self.w(f"if not isinstance(o, {kind}):")
        self.bail(i, 1)

    # -- per-uop templates ------------------------------------------------
    def emit_uop(self, i: int, instr) -> None:
        op = instr.op
        regioned = self.regioned
        shift = self.profile.line_shift
        inc = (1, 0, 0, 0, 0)

        if op is MOp.CONST or op is MOp.CONST_NULL or op is MOp.CONST_CLASS:
            value = (instr.imm if op is MOp.CONST
                     else None if op is MOp.CONST_NULL else instr.cls)
            self.w(f"regs[{instr.dst}] = {value!r}")
            self.tick(instr, "None")

        elif op is MOp.MOV:
            self.w(f"regs[{instr.dst}] = regs[{instr.a}]")
            self.tick(instr, "None")

        elif op in (MOp.ADD, MOp.SUB, MOp.MUL, MOp.AND, MOp.OR, MOp.XOR,
                    MOp.SHL, MOp.SHR, MOp.DIV, MOp.MOD):
            self.w(f"x = regs[{instr.a}]")
            self.w(f"y = regs[{instr.b}]")
            zero = " or y == 0" if op in (MOp.DIV, MOp.MOD) else ""
            self.w(f"if type(x) is not int or type(y) is not int{zero}:")
            self.bail(i, 1)
            if op is MOp.ADD:
                self._wrap_store(instr.dst, "x + y")
            elif op is MOp.SUB:
                self._wrap_store(instr.dst, "x - y")
            elif op is MOp.MUL:
                self._wrap_store(instr.dst, "x * y")
            elif op is MOp.AND:
                # Bitwise ops on in-range operands stay in range.
                self.w(f"regs[{instr.dst}] = x & y")
            elif op is MOp.OR:
                self.w(f"regs[{instr.dst}] = x | y")
            elif op is MOp.XOR:
                self.w(f"regs[{instr.dst}] = x ^ y")
            elif op is MOp.SHL:
                self._wrap_store(instr.dst, "x << (y & 63)")
            elif op is MOp.SHR:
                self.w(f"regs[{instr.dst}] = x >> (y & 63)")
            elif op is MOp.DIV:
                self.w(f"regs[{instr.dst}] = _gdiv(x, y)")
            else:
                self.w(f"regs[{instr.dst}] = _gmod(x, y)")
            self.tick(instr, "None")

        elif op is MOp.CLASSOF:
            self.w(f"o = regs[{instr.a}]")
            self.w("if isinstance(o, GuestObject):")
            self.w(f"regs[{instr.dst}] = o.class_name", 1)
            self.w("elif isinstance(o, GuestArray):")
            self.w(f"regs[{instr.dst}] = '[array]'", 1)
            self.w("else:")
            self.bail(i, 1)
            inc = (1, 1, 0, 0, 0)
            mem = self.addr("o.base")
            if regioned:
                self.w(f"rl.add({mem} >> {shift})")
            self.tick(instr, mem)
            self.hw_check(i, inc)

        elif op is MOp.LOADF or op is MOp.STOREF:
            self._mem_ref(i, instr.a, "GuestObject")
            self.w(f"n = o.field_index.get({instr.fieldname!r})")
            self.w("if n is None:")
            self.bail(i, 1)
            mem = self.addr("o.base + 16 + n * 8", regioned)
            if op is MOp.LOADF:
                inc = (1, 1, 0, 0, 0)
                if regioned:
                    self.w(f"rl.add(m >> {shift})")
                    self.w("b0 = sb.get((id(o), 'f', n))")
                    self.w(f"regs[{instr.dst}] = "
                           "o.slots[n] if b0 is None else b0[2]")
                else:
                    self.w(f"regs[{instr.dst}] = o.slots[n]")
            else:
                inc = (1, 0, 1, 0, 0)
                if regioned:
                    self.w(f"sb[(id(o), 'f', n)] = (o, n, regs[{instr.b}])")
                    self.w(f"wl.add(m >> {shift})")
                else:
                    self.w(f"o.slots[n] = regs[{instr.b}]")
            self.tick(instr, mem)
            self.hw_check(i, inc)

        elif op is MOp.LOADA or op is MOp.STOREA:
            self._mem_ref(i, instr.a, "GuestArray")
            self.w(f"x = regs[{instr.b}]")
            self.w("vs = o.values")
            self.w("if type(x) is not int or x < 0 or x >= len(vs):")
            self.bail(i, 1)
            mem = self.addr("o.base + 24 + x * 8", regioned)
            if op is MOp.LOADA:
                inc = (1, 1, 0, 0, 0)
                if regioned:
                    self.w(f"rl.add(m >> {shift})")
                    self.w("b0 = sb.get((id(o), 'a', x))")
                    self.w(f"regs[{instr.dst}] = "
                           "vs[x] if b0 is None else b0[2]")
                else:
                    self.w(f"regs[{instr.dst}] = vs[x]")
            else:
                inc = (1, 0, 1, 0, 0)
                if regioned:
                    self.w(f"sb[(id(o), 'a', x)] = (o, x, regs[{instr.c}])")
                    self.w(f"wl.add(m >> {shift})")
                else:
                    self.w(f"vs[x] = regs[{instr.c}]")
            self.tick(instr, mem)
            self.hw_check(i, inc)

        elif op is MOp.LOADLEN:
            self._mem_ref(i, instr.a, "GuestArray")
            inc = (1, 1, 0, 0, 0)
            mem = self.addr("o.base + 16")
            if regioned:
                self.w(f"rl.add(({mem}) >> {shift})")
            self.w(f"regs[{instr.dst}] = o.length")
            self.tick(instr, mem)
            self.hw_check(i, inc)

        elif op is MOp.LOADLOCK:
            # The SLE'd monitor-enter probe: one tracked load of the
            # lock word, result 1 iff another thread holds the monitor.
            self._mem_ref(i, instr.a, "GuestObject")
            inc = (1, 1, 0, 0, 1)
            mem = self.addr("o.base + 8")
            if regioned:
                self.w(f"rl.add(({mem}) >> {shift})")
            self.w("lo = o.lock.owner")
            self.w(f"regs[{instr.dst}] = "
                   "0 if lo is None or lo == fr.tid else 1")
            self.tick(instr, mem)
            self.hw_check(i, inc)

        elif op is MOp.LOADSPILL:
            inc = (1, 1, 0, 0, 0)
            self.w(f"regs[{instr.dst}] = spill[{instr.imm}]")
            self.tick(instr, self.addr(f"sbase + {instr.imm * 8}"))

        elif op is MOp.STORESPILL:
            inc = (1, 0, 1, 0, 0)
            self.w(f"spill[{instr.imm}] = regs[{instr.a}]")
            self.tick(instr, self.addr(f"sbase + {instr.imm * 8}"))

        elif op is MOp.LOADG:
            self.w(f"regs[{instr.dst}] = 0")
            if instr.imm is not None:
                inc = (1, 1, 0, 0, 0)
            self.tick(instr, repr(instr.imm))

        elif op is MOp.NEWOBJ:
            self.w(f"o = mach.heap.new_object({instr.cls!r}, "
                   f"mach.program.field_layout({instr.cls!r}))")
            self.w(f"regs[{instr.dst}] = o")
            if regioned:
                self.w("region.allocs.append(o)")
            self.tick(instr, "None")

        elif op is MOp.NEWARR:
            self.w(f"x = regs[{instr.a}]")
            self.w("if type(x) is not int or x < 0:")
            self.bail(i, 1)
            self.w("o = mach.heap.new_array(x)")
            self.w(f"regs[{instr.dst}] = o")
            if regioned:
                self.w("region.allocs.append(o)")
            self.tick(instr, "None")

        elif op is MOp.JMP:
            self.tick(instr, "None")
            self.flush(0, inc)
            self.w(f"return {instr.target}")

        elif op is MOp.BR or op is MOp.BR_ABORT:
            inc = (1, 0, 0, 1, 0)
            self._cond(i, instr.cond, instr.a, instr.b)
            if self.timed:
                self.predict(i)
                self.tick(instr, "None", mispredict=True)
            self.w("if t:")
            self.flush(1, inc)
            self.w(f"return {instr.target}", 1)
            self.flush(0, inc)
            self.w(f"return {i + 1}")

        elif op is MOp.BR_TRAP:
            inc = (1, 0, 0, 1, 0)
            self._cond(i, instr.cond, instr.a, instr.b)
            if self.timed:
                self.predict(i)
            self.w("if t:")
            self.flush(1, inc)
            if self.timed:
                # The trap never ticks: a mispredict stays pending for
                # whichever uop retires next, exactly like the slow path.
                self.w("T._pending_mispredict = mp", 1)
            if regioned:
                # Hardware fault inside a region: abort without ticking
                # the faulting uop, exactly like the slow path's handler.
                self.w(f"return mach._fast_exception(fr, {i})", 1)
            else:
                self.w(f"raise _te(I[{i}])", 1)
            self.tick(instr, "None", mispredict=True)

        else:  # pragma: no cover - guarded by FUSABLE_MOPS
            raise AssertionError(f"cannot fuse {op}")

        self.u += inc[0]
        self.l += inc[1]
        self.s += inc[2]
        self.b += inc[3]
        self.m += inc[4]

    def finish(self, end: int) -> None:
        """Fall-through exit: flush everything and hand the next pc
        (an unfusable uop's handler or the next run) back to the loop."""
        self.flush(0)
        self.w(f"return {end}")


def _timed_prologue(instrs: list, start: int, end: int,
                    branchy: bool) -> list[str]:
    """Function-entry statements of a timed run: the entry guard and the
    timing model's dynamic state, loaded into locals."""
    out = [
        "T = fr.timing",
        "if T._pending_mispredict or T._record_commit_next:",
        f"    return H[{start}](fr)",
        "fc = T._fetch_cycle",
        "fn = T._fetched_this_cycle",
        "rc = T._retire_cycle",
        "rn = T._retired_this_cycle",
        "win = T._window",
        "wpop = win.popleft",
        "wapp = win.append",
        "rr = T._reg_ready",
    ]
    cached = False
    for i in range(start, end):
        instr = instrs[i]
        kind = uop_timing(instr).kind
        if kind == STORE or (kind == LOAD and not (
                instr.op is MOp.LOADG and instr.imm is None)):
            cached = True
    if cached:
        out += ["sr = T._store_ready", "MEM = T.memory", "MA = MEM.access",
                "L1W = MEM.l1.sets", "mh = 0"]
    if branchy:
        out += ["cbase = fr.code_base", "P = T.predictor", "ph = P.history",
                "GT = P.gshare.table", "BT = P.bimodal.table",
                "CT = P.chooser.table"]
    return out


def _emit_fn(compiled: CompiledMethod, start: int, end: int,
             profile: JitProfile, timed: bool) -> list[str]:
    instrs = compiled.instrs
    ops = {instrs[i].op for i in range(start, end)}
    uses_spill = bool(ops & _SPILLY)
    uses_mem = bool(ops & _MEM_TRACK)
    terminated = instrs[end - 1].op in (MOp.BR, MOp.JMP, MOp.BR_ABORT)

    name = f"_f{start}_{'t' if timed else 'u'}"
    out = [f"def {name}(fr):"]
    pre = []
    if timed:
        pre += _timed_prologue(instrs, start, end, bool(ops & _BRANCHY))
    pre += ["mach = fr.machine", "st = fr.stats", "regs = fr.regs"]
    if uses_spill:
        pre.append("spill = fr.spill")
        if timed:
            pre.append("sbase = fr.spill_base")
    pre.append("region = fr.region")
    out += ["    " + stmt for stmt in pre]

    out.append("    if region is None:")
    plain = _Body(False, timed, profile, 2)
    for i in range(start, end):
        plain.emit_uop(i, instrs[i])
    if not terminated:
        plain.finish(end)
    out += plain.lines

    if uses_mem:
        out.append("    rl = region.read_lines")
        out.append("    wl = region.write_lines")
        out.append("    sb = region.store_buffer")
        if profile.fallback_begin:
            out.append("    fbl = mach.fallback_lock")
    region = _Body(True, timed, profile, 1)
    for i in range(start, end):
        region.emit_uop(i, instrs[i])
    if not terminated:
        region.finish(end)
    out += region.lines
    return out


def jit_source(compiled: CompiledMethod, profile: JitProfile) -> str:
    """The full generated module source for ``compiled`` under
    ``profile``, both variants interleaved per run (deterministic;
    pinned by the golden-source test).  At run time each function is
    compiled on its own, on first execution."""
    runs = fused_runs(compiled)
    parts = [
        f"# template-jit: {compiled.name}",
        f"# profile: {profile}",
        f"# fused runs: {runs}",
    ]
    for start, end in runs:
        for timed in (False, True):
            parts.append("")
            parts.extend(_emit_fn(compiled, start, end, profile, timed))
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# Compilation and caching
# ---------------------------------------------------------------------------

def _build_table(jm: JittedMethod, timed: bool) -> list:
    """One variant's pc-indexed dispatch table: the handlers, with a
    compile-on-first-execution stub at each run start."""
    compiled = jm._compiled
    namespace = {
        "H": jm._handlers,
        "I": tuple(compiled.instrs),
        "MC": machine_compare,
        "GuestObject": GuestObject,
        "GuestArray": GuestArray,
        "GuestError": GuestError,
        "_wi": wrap_int,
        "_gdiv": guest_div,
        "_gmod": guest_mod,
        "_te": _trap_error,
    }
    table = list(jm._handlers)
    for start, end in jm.runs:
        table[start] = _stub(jm, timed, namespace, table, start, end)
    return table


def _stub(jm: JittedMethod, timed: bool, namespace: dict, table: list,
          start: int, end: int):
    """The table entry of a not-yet-compiled run: emits and compiles the
    run, patches the table in place, and runs it."""

    def compile_and_run(fr):
        compiled = jm._compiled
        variant = "t" if timed else "u"
        source = "\n".join(
            _emit_fn(compiled, start, end, jm.profile, timed)) + "\n"
        exec(compile(source, f"<jit:{compiled.name}:{start}:{variant}>",
                     "exec"), namespace)
        fn = table[start] = namespace[f"_f{start}_{variant}"]
        return fn(fr)

    return compile_and_run


def jit_compile(compiled: CompiledMethod, machine) -> JittedMethod:
    """Build the fused form of ``compiled`` for ``machine``'s profile
    and install it on the code object (the same cache slot
    ``disable_region``/recompile drop).  Variant tables are built on
    first :meth:`JittedMethod.table` call; runs compile on first
    execution."""
    profile = jit_profile(machine)
    pre = get_predecoded(compiled, profile.line_shift)
    jm = JittedMethod(
        profile=profile, runs=fused_runs(compiled),
        _compiled=compiled, _handlers=pre.handlers,
    )
    compiled._jitted = jm
    return jm


def get_jitted(compiled: CompiledMethod, machine) -> JittedMethod:
    """Return the cached fused form, rebuilding when the cache is stale
    (dropped by ``disable_region``/``invalidate_predecode``) or built
    for a different machine profile."""
    jm = compiled._jitted
    profile = machine._jit_profile
    if jm is None or (jm.profile is not profile and jm.profile != profile):
        jm = jit_compile(compiled, machine)
    return jm
