"""Template JIT: the one fast-path definition of every hot uop.

Each hot uop's semantics are written once, as a template in
:class:`_Body`, and instantiated once, into fused runs.  The uops
production traffic barely retires — atomic RMW (``FAA``/``CAS``/``LL``/
``SC``), calls, return and ``AREGION_ABORT`` — are *stepped*: they have
no template, and the dispatch table holds, at their pc, a one-line
closure that retires them on the interpretive reference loop in
:mod:`repro.hw.machine`.  Apart from that loop, nothing else in the repo
implements a uop.

**Fused runs.**  :func:`fused_runs` partitions every basic block into
runs of templated uops (at most :data:`MAX_RUN` long; a lone uop is a
run of one), so every templated uop is in exactly one run.  A lock-word
store (``STORELOCK``), ``AREGION_BEGIN`` and ``AREGION_END`` always end
their run: they call the timing model dynamically (``T.uop``, and
``T.region_begin``/``T.region_end``) after the run's timing write-back,
and the begin and end switch the mode the next run is entered in.  Each
run becomes two functions, one for code outside a region (*plain*) and
one for code inside one (*region*): registers resolved to list indexes,
immediates/field names/branch targets baked in as constants, and the
per-uop bookkeeping collapsed into batched counter flushes at the run's
exit points (superinstruction fusion).  Each function is ``compile()``d
on the run's *first entry in its mode*: the dispatch table starts out
holding a stub per run that compiles the function of the mode it is
entered in, patches it into the table, and runs it.  Each function's
entry guard hands the other mode to the other function — a stub of its
own until that mode's first entry — so a run entered in both modes runs
fused in both.  Compiled code is cached for the process, keyed by
everything the emitter reads (:func:`_code_key`: the run's span, mode,
timing variant and profile and its uops' fields; :data:`_CODE`, dropped
by :func:`clear_code_cache`): a method whose run would emit the same
source as one compiled before ``exec``s the cached code into its own
namespace, and no source is emitted for it.  Every pc that starts no
run holds the stepped closure; the dispatch loop enters one only at a
stepped uop, after a bail, or where a conflict retry re-lands on a
begin that ends a run.  The fused tables live on one
:class:`JittedMethod`, cached on the
:class:`~repro.hw.isa.CompiledMethod`; a recompile makes a new code
object, and ``disable_region`` keeps the cache (the begin template reads
the patch on every entry).

The contract is strict observational equivalence with the reference:
byte-identical :class:`ExecStats`, identical timing-model state (cycle
counts, scoreboard, predictor, caches), identical heap/address
allocation order, and identical exception/abort behaviour (enforced by
``tests/test_differential.py`` and the generative battery in
``tests/test_templatejit.py``).  Three mechanisms make that hold:

**Slow paths are the reference.**  Any case a template does not handle
inline — a non-integer ALU operand, a zero divisor, a null or junk base,
a missing field, an out-of-bounds or non-integer index, a reference
under an ordered condition, a negative array length, a taken trap, a
lock word another thread owns, a failed fallback-lock check at
``AREGION_END``, an ``AREGION_BEGIN`` that re-lands (setjmp delivery),
releases the fallback lock or is suppressed — *bails* before the uop
has any observable effect: fused code flushes the counters of the uops
already completed and returns ``Machine._step``, which retires that one
uop on the reference loop (the deoptimization-to-reference discipline).
So every slow path — counters, traps, aborts, errors — is exact by
construction.

**Retirement checks only where they can fire.**  With no fault injector
the probe's verdict can only change when a uop grows the region's
read/write line sets or store buffer.  Fused code therefore emits the
(profile-specialised) check only after the memory-tracking uops —
CLASSOF/LOADF/STOREF/LOADA/STOREA/LOADLEN/LOADLOCK/STORELOCK — in the
region body, and the checks it emits mirror ``_hw_condition``'s order and
detail-register writes exactly; the region a begin opens gets the full
probe.  A fault-injected machine (:attr:`JitProfile.faulted`) runs the
same runs, but its region functions flush the counters and call the full
``Machine._hw_condition`` after every uop, at exactly the reference
loop's points (none after ``JMP`` or a fired ``BR_ABORT``; a taken
``BR`` probes at its target), so injected offsets and interrupts, which
read those counters, fire where they do on the reference.  A tracer may
be attached: every emission sits in the ``Machine`` region-lifecycle
methods, which fused code calls with its counters flushed, so the event
stream is the reference loop's.

**The timing model is folded in.**  Every fused run has two timing
variants, each with its plain and region function.  The untimed one
touches no timing state.  The timed one of an unfaulted profile inlines
the
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
exit and every call that reads the model — fall-through, branch
returns, bails, probes, ``_fast_abort`` and a run end's dynamic
``T.uop`` — so whatever runs next sees exactly the per-uop model's
state.  A taken trap bails before its prediction, so the reference step
predicts it and leaves its mispredict pending; and a run entered while
the model carries a pending mispredict or commit record steps its first
uop on the reference loop, so fused code never has to apply them.  A
fault-injected machine's timed code calls the model per uop instead
(``T.branch``/``T.uop``, as the reference loop does): its cells run
cold, and the inline scoreboard would triple the source they compile.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import cache
from types import CodeType

from ..runtime.heap import GuestArray, GuestObject
from ..runtime.interpreter import guest_div, guest_mod, wrap_int
from .codegen import _machine_blocks
from .isa import CompiledMethod, MOp
from .timing import LOAD, RMW, STORE, uop_timing

__all__ = [
    "FUSABLE_MOPS",
    "MAX_RUN",
    "JitProfile",
    "JittedMethod",
    "clear_code_cache",
    "fused_runs",
    "get_jitted",
    "jit_compile",
    "jit_profile",
    "jit_source",
]

#: uops with a template: everything but the stepped uops.
FUSABLE_MOPS = frozenset({
    MOp.CONST, MOp.CONST_NULL, MOp.CONST_CLASS, MOp.MOV,
    MOp.ADD, MOp.SUB, MOp.MUL, MOp.DIV, MOp.MOD,
    MOp.AND, MOp.OR, MOp.XOR, MOp.SHL, MOp.SHR,
    MOp.CLASSOF, MOp.LOADF, MOp.STOREF, MOp.LOADA, MOp.STOREA,
    MOp.LOADLEN, MOp.LOADLOCK, MOp.LOADSPILL, MOp.STORESPILL, MOp.LOADG,
    MOp.NEWOBJ, MOp.NEWARR,
    MOp.BR, MOp.JMP, MOp.BR_TRAP, MOp.BR_ABORT,
    MOp.STORELOCK, MOp.AREGION_BEGIN, MOp.AREGION_END,
})

#: fusable uops that end their run: they call the timing model
#: dynamically, after the run's write-back (a lock-word store's RMW
#: tick; a region boundary's begin/end event), and a region boundary
#: switches the mode of the code after it.
_RUN_ENDS = frozenset({MOp.STORELOCK, MOp.AREGION_BEGIN, MOp.AREGION_END})

#: longer fusable spans are cut into runs of at most this many uops, so
#: one host-compile unit (and the code object it leaves behind) stays
#: small however long a straight-line block is.
MAX_RUN = 48

#: uops that grow the region's read/write line sets or store buffer —
#: the only points where the retirement-time hardware condition can
#: newly fire with no fault injector attached.
_MEM_TRACK = frozenset({
    MOp.CLASSOF, MOp.LOADF, MOp.STOREF, MOp.LOADA, MOp.STOREA, MOp.LOADLEN,
    MOp.LOADLOCK, MOp.STORELOCK,
})

_BRANCHY = frozenset({MOp.BR, MOp.BR_TRAP, MOp.BR_ABORT})
_SPILLY = frozenset({MOp.LOADSPILL, MOp.STORESPILL})
#: uops with no template: production traffic barely retires them, so
#: the stepped closure at their pc retires them on the reference loop.
_STEPPED = frozenset({
    MOp.FAA, MOp.CAS, MOp.LL, MOp.SC, MOp.CALLVM, MOp.VCALLVM, MOp.RET,
    MOp.AREGION_ABORT,
})

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
    a recompile.  Every field is derived from the machine by
    :func:`jit_profile`.
    """

    line_shift: int
    region_line_limit: int
    store_bound: int | None
    cache_shaped: bool
    fallback_begin: bool
    #: a fault injector is attached: region functions probe in full
    #: after every uop, and timed code calls the timing model per uop
    #: (see the module docstring).
    faulted: bool
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
        faulted=machine.fault_injector is not None,
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
    """The dispatch form of one :class:`CompiledMethod`: its fused runs
    and the two dispatch tables built over them.

    :meth:`table` returns a pc-indexed list of callables: at each
    run-start pc a fused function of the run (the one compiled most
    recently, or, until the run's first execution, the stub that
    compiles it), the stepped closure everywhere else.  The machine's
    loop is ``pc = table[pc](fr)``, so entering and leaving fused code
    costs nothing beyond the table load.
    """

    #: machine constants the fused source was specialised for.
    profile: JitProfile
    #: fused spans ``(start, end)`` over the instruction array.
    runs: list = field(default_factory=list)
    #: the code object the runs were cut from.
    _compiled: CompiledMethod | None = field(
        default=None, repr=False, compare=False)
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
    """Fusable straight-line spans, one per ``(start, end)``: every
    maximal span of fusable uops in a basic block that no lock-word
    store or region begin/end cuts short, one uop long or more, so each
    fusable pc is in exactly one run.

    Runs never cross basic-block boundaries (every branch target is a
    block leader, so control can only *enter* a fused function at its
    first uop), never include a stepped uop, and hold a ``STORELOCK``,
    ``AREGION_BEGIN`` or ``AREGION_END`` only as their last uop.  A span
    longer than :data:`MAX_RUN` is cut into consecutive runs (the last
    may be one uop); control falls from one into the next through the
    dispatch loop.
    """
    instrs = compiled.instrs
    blocks, _ = _machine_blocks(instrs)
    runs: list[tuple[int, int]] = []
    for start, end, _succs in blocks:
        i = start
        while i < end:
            j = i
            while j < end and instrs[j].op in FUSABLE_MOPS:
                j += 1
                if instrs[j - 1].op in _RUN_ENDS:
                    break
            runs += [(k, min(j, k + MAX_RUN)) for k in range(i, j, MAX_RUN)]
            i = max(j, i + 1)
    return runs


# ---------------------------------------------------------------------------
# Source emission
# ---------------------------------------------------------------------------

class _Body:
    """Emits one body (plain or region) of one fused run.

    It tracks the statically-known counter increments of the uops
    completed so far; every exit point flushes them in one batch, so the
    per-uop ``uops_retired``/``loads``/``stores``/``branches`` stores
    collapse into a handful of ``+= K`` statements.  The timed variant
    also tracks which timing-model state the uops emitted so far have
    changed, so each exit writes back exactly that state.  The region
    body of a faulted profile (:attr:`probing`) flushes and probes after
    every uop instead.
    """

    def __init__(self, regioned: bool, timed: bool, profile: JitProfile,
                 base_depth: int) -> None:
        self.regioned = regioned
        self.timed = timed
        self.profile = profile
        self.base = base_depth
        #: a fault injector reads the counters at every retirement probe.
        self.probing = regioned and profile.faulted
        #: the timed variant inlines the timing model, except a faulted
        #: machine's, which calls it per uop: fault-injected cells run
        #: cold, so the smaller compile wins.
        self.inline = timed and not profile.faulted
        self.lines: list[str] = []
        # completed-uop counter batch: uops, loads, stores, branches,
        # monitor ops
        self.u = self.l = self.s = self.b = self.m = 0
        # timed: scoreboard ticked / predictor trained / L1 hit inline
        self.ticked = self.predicted = self.cached = False
        #: the last template emitted ends in an unconditional return (a
        #: jump, a branch or a region boundary ends its run).
        self.closed = False

    # -- plumbing ---------------------------------------------------------
    def w(self, text: str, depth: int = 0) -> None:
        self.lines.append("    " * (self.base + depth) + text)

    def probe(self, resume: int, depth: int = 0) -> None:
        """The full retirement-time probe, with the counters flushed
        (fault offsets and interrupts read them); an abort resumes at
        ``resume``."""
        self.w("reason = mach._hw_condition(region)", depth)
        self.w("if reason is not None:", depth)
        self.w(f"return mach._fast_abort(fr, reason, {resume})", depth + 1)

    def _flush_stmts(self, u: int, l: int, s: int, b: int,
                     m: int) -> list[str]:
        out = []
        if u:
            out.append(f"mach.uops_executed += {u}")
            out.append(f"st.uops_retired += {u}")
            if self.regioned:
                out.append(f"region.uops += {u}")
        if l:
            out.append(f"st.loads += {l}")
        if s:
            out.append(f"st.stores += {s}")
        if b:
            out.append(f"st.branches += {b}")
        if m:
            out.append(f"st.monitor_ops += {m}")
        if self.inline:
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

    def sync(self, inc=(0, 0, 0, 0, 0)) -> None:
        """Flush mid-run, with ``inc`` for the current uop, and carry on
        with an empty batch: the counters and the model now hold
        everything retired so far.  With the scoreboard inlined only a
        run's last uop syncs, so the L1-hit count ``mh`` needs no
        reset."""
        self.flush(0, inc)
        self.u = self.l = self.s = self.b = self.m = 0
        self.ticked = self.predicted = self.cached = False

    def bail(self, i: int, depth: int) -> None:
        """Deoptimise: step uop ``i`` on the reference loop.

        Must be emitted before the current uop has any observable
        effect; the flush covers only the uops already completed.
        """
        self.flush(depth)
        self.w(f"return mach._step(fr, {i})", depth)

    def addr(self, expr: str, reused: bool = False) -> str:
        """The current uop's simulated address as an expression: the
        local ``m`` when the template (``reused``) or the inline tick
        needs it more than once."""
        if reused or self.inline:
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

    def tick(self, i: int, instr, mem: str, mispredict: bool = False) -> None:
        """The timing model's ``uop(instr, mem)`` for uop ``i``, inlined
        with ``instr``'s static facts baked in (``mispredict``: apply the
        bubble of this branch's prediction ``mp``), or called."""
        if not self.timed:
            return
        if not self.inline:
            self.w(f"T.uop(I[{i}], {mem})")
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
        assert kind != RMW, "lock-word stores tick dynamically"
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
        ``mp`` (mispredicted) set and counts a mispredict; or the
        model's own predictor, which leaves a mispredict pending for the
        uop's tick."""
        if not self.inline:
            self.w(f"if not T.branch(cbase + {i}, t):")
            self.w("st.mispredicts += 1", 1)
            return
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
        ``Machine._hw_condition``'s order and detail writes).  A probing
        body probes in full after every uop instead."""
        if not self.regioned or self.probing:
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
        conditions on non-integers bail so the reference raises the slow
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
        guest reference (null and junk step the reference loop, which
        raises/aborts exactly like the slow path)."""
        self.w(f"o = regs[{a}]")
        self.w(f"if not isinstance(o, {kind}):")
        self.bail(i, 1)

    # -- per-uop templates ------------------------------------------------
    def emit_uop(self, i: int, instr) -> None:
        op = instr.op
        regioned = self.regioned
        inc = (1, 0, 0, 0, 0)
        shift = self.profile.line_shift
        dst, a, b, c, target = (instr.dst, instr.a, instr.b, instr.c,
                                instr.target)
        imm, cls = repr(instr.imm), repr(instr.cls)
        after = i + 1

        if op is MOp.CONST or op is MOp.CONST_NULL or op is MOp.CONST_CLASS:
            value = (imm if op is MOp.CONST
                     else "None" if op is MOp.CONST_NULL else cls)
            self.w(f"regs[{dst}] = {value}")
            self.tick(i, instr, "None")

        elif op is MOp.MOV:
            self.w(f"regs[{dst}] = regs[{a}]")
            self.tick(i, instr, "None")

        elif op in (MOp.ADD, MOp.SUB, MOp.MUL, MOp.AND, MOp.OR, MOp.XOR,
                    MOp.SHL, MOp.SHR, MOp.DIV, MOp.MOD):
            self.w(f"x = regs[{a}]")
            self.w(f"y = regs[{b}]")
            zero = " or y == 0" if op in (MOp.DIV, MOp.MOD) else ""
            self.w(f"if type(x) is not int or type(y) is not int{zero}:")
            self.bail(i, 1)
            if op is MOp.ADD:
                self._wrap_store(dst, "x + y")
            elif op is MOp.SUB:
                self._wrap_store(dst, "x - y")
            elif op is MOp.MUL:
                self._wrap_store(dst, "x * y")
            elif op is MOp.AND:
                # Bitwise ops on in-range operands stay in range.
                self.w(f"regs[{dst}] = x & y")
            elif op is MOp.OR:
                self.w(f"regs[{dst}] = x | y")
            elif op is MOp.XOR:
                self.w(f"regs[{dst}] = x ^ y")
            elif op is MOp.SHL:
                self._wrap_store(dst, "x << (y & 63)")
            elif op is MOp.SHR:
                self.w(f"regs[{dst}] = x >> (y & 63)")
            elif op is MOp.DIV:
                self.w(f"regs[{dst}] = _gdiv(x, y)")
            else:
                self.w(f"regs[{dst}] = _gmod(x, y)")
            self.tick(i, instr, "None")

        elif op is MOp.CLASSOF:
            self.w(f"o = regs[{a}]")
            self.w("if isinstance(o, GuestObject):")
            self.w(f"regs[{dst}] = o.class_name", 1)
            self.w("elif isinstance(o, GuestArray):")
            self.w(f"regs[{dst}] = '[array]'", 1)
            self.w("else:")
            self.bail(i, 1)
            inc = (1, 1, 0, 0, 0)
            mem = self.addr("o.base")
            if regioned:
                self.w(f"rl.add({mem} >> {shift})")
            self.tick(i, instr, mem)
            self.hw_check(i, inc)

        elif op is MOp.LOADF or op is MOp.STOREF:
            self._mem_ref(i, a, "GuestObject")
            self.w(f"n = o.field_index.get({instr.fieldname!r})")
            self.w("if n is None:")
            self.bail(i, 1)
            mem = self.addr("o.base + 16 + n * 8", regioned)
            if op is MOp.LOADF:
                inc = (1, 1, 0, 0, 0)
                if regioned:
                    self.w(f"rl.add(m >> {shift})")
                    self.w("b0 = sb.get((id(o), 'f', n))")
                    self.w(f"regs[{dst}] = "
                           "o.slots[n] if b0 is None else b0[2]")
                else:
                    self.w(f"regs[{dst}] = o.slots[n]")
            else:
                inc = (1, 0, 1, 0, 0)
                if regioned:
                    self.w(f"sb[(id(o), 'f', n)] = (o, n, regs[{b}])")
                    self.w(f"wl.add(m >> {shift})")
                else:
                    self.w(f"o.slots[n] = regs[{b}]")
            self.tick(i, instr, mem)
            self.hw_check(i, inc)

        elif op is MOp.LOADA or op is MOp.STOREA:
            self._mem_ref(i, a, "GuestArray")
            self.w(f"x = regs[{b}]")
            self.w("vs = o.values")
            self.w("if type(x) is not int or x < 0 or x >= len(vs):")
            self.bail(i, 1)
            mem = self.addr("o.base + 24 + x * 8", regioned)
            if op is MOp.LOADA:
                inc = (1, 1, 0, 0, 0)
                if regioned:
                    self.w(f"rl.add(m >> {shift})")
                    self.w("b0 = sb.get((id(o), 'a', x))")
                    self.w(f"regs[{dst}] = "
                           "vs[x] if b0 is None else b0[2]")
                else:
                    self.w(f"regs[{dst}] = vs[x]")
            else:
                inc = (1, 0, 1, 0, 0)
                if regioned:
                    self.w(f"sb[(id(o), 'a', x)] = (o, x, regs[{c}])")
                    self.w(f"wl.add(m >> {shift})")
                else:
                    self.w(f"vs[x] = regs[{c}]")
            self.tick(i, instr, mem)
            self.hw_check(i, inc)

        elif op is MOp.LOADLEN:
            self._mem_ref(i, a, "GuestArray")
            inc = (1, 1, 0, 0, 0)
            mem = self.addr("o.base + 16")
            if regioned:
                self.w(f"rl.add(({mem}) >> {shift})")
            self.w(f"regs[{dst}] = o.length")
            self.tick(i, instr, mem)
            self.hw_check(i, inc)

        elif op is MOp.LOADLOCK:
            # The SLE'd monitor-enter probe: one tracked load of the
            # lock word, result 1 iff another thread holds the monitor.
            self._mem_ref(i, a, "GuestObject")
            inc = (1, 1, 0, 0, 1)
            mem = self.addr("o.base + 8")
            if regioned:
                self.w(f"rl.add(({mem}) >> {shift})")
            self.w("lo = o.lock.owner")
            self.w(f"regs[{dst}] = "
                   "0 if lo is None or lo == fr.tid else 1")
            self.tick(i, instr, mem)
            self.hw_check(i, inc)

        elif op is MOp.LOADSPILL:
            inc = (1, 1, 0, 0, 0)
            self.w(f"regs[{dst}] = spill[{imm}]")
            self.tick(i, instr, self.addr(f"sbase + {instr.imm * 8}"))

        elif op is MOp.STORESPILL:
            inc = (1, 0, 1, 0, 0)
            self.w(f"spill[{imm}] = regs[{a}]")
            self.tick(i, instr, self.addr(f"sbase + {instr.imm * 8}"))

        elif op is MOp.LOADG:
            self.w(f"regs[{dst}] = 0")
            if instr.imm is not None:
                inc = (1, 1, 0, 0, 0)
            self.tick(i, instr, imm)

        elif op is MOp.NEWOBJ:
            self.w(f"o = mach.heap.new_object({cls}, "
                   f"mach.program.field_layout({cls}))")
            self.w(f"regs[{dst}] = o")
            if regioned:
                self.w("region.allocs.append(o)")
            self.tick(i, instr, "None")

        elif op is MOp.NEWARR:
            self.w(f"x = regs[{a}]")
            self.w("if type(x) is not int or x < 0:")
            self.bail(i, 1)
            self.w("o = mach.heap.new_array(x)")
            self.w(f"regs[{dst}] = o")
            if regioned:
                self.w("region.allocs.append(o)")
            self.tick(i, instr, "None")

        elif op is MOp.JMP:
            # No retirement probe after a jump, like the reference.
            self.tick(i, instr, "None")
            self.flush(0, inc)
            self.w(f"return {target}")
            self.closed = True

        elif op is MOp.BR or op is MOp.BR_ABORT:
            inc = (1, 0, 0, 1, 0)
            self._cond(i, instr.cond, a, b)
            if self.timed:
                self.predict(i)
                self.tick(i, instr, "None", mispredict=True)
            self.w("if t:")
            self.flush(1, inc)
            if op is MOp.BR and self.probing:
                # A taken branch probes at its target; a fired
                # BR_ABORT lands on its abort stub unprobed.
                self.probe(target, 1)
            self.w(f"return {target}", 1)
            self.flush(0, inc)
            if self.probing:
                self.probe(after)
            self.w(f"return {after}")
            self.closed = True

        elif op is MOp.BR_TRAP:
            inc = (1, 0, 0, 1, 0)
            self._cond(i, instr.cond, a, b)
            # A taken trap is the reference's: it raises (or, in a
            # region, aborts) and leaves its mispredict pending.
            self.w("if t:")
            self.bail(i, 1)
            if self.timed:
                self.predict(i)
            self.tick(i, instr, "None", mispredict=True)

        # -- run ends: the timing model is called after the write-back ------
        elif op is MOp.STORELOCK:
            enter = instr.imm == 1
            self._mem_ref(i, a, "GuestObject")
            self.w("lk = o.lock")
            # A foreign exit, and an enter on a monitor another thread
            # owns (a monitor error with no scheduler, or a real conflict
            # in a region), are the reference's.
            if enter:
                self.w("if lk.owner is not None and lk.owner != fr.tid:")
            else:
                self.w("if lk.owner != fr.tid:")
            self.bail(i, 1)
            if regioned:
                self.w("pre = (lk.owner, lk.depth, lk.reserver)")
                self.w(f"wl.add((o.base + 8) >> {shift})")
            self.w(f"lk.{'enter' if enter else 'exit'}(fr.tid)")
            if regioned:
                self.w("region.lock_log.append("
                       "(lk, pre, (lk.owner, lk.depth, lk.reserver)))")
            self.sync((1, 0, 1, 0, 0))
            inc = (0, 0, 0, 0, 0)
            if self.timed:
                self.w(f"T.uop(fr.compiled.instrs[{i}], o.base + 8)")
            self.hw_check(i, inc)

        elif op is MOp.AREGION_BEGIN:
            if regioned:
                self.bail(i, 0)  # nested begin: the reference raises
            else:
                # A setjmp re-landing, a fallback-lock release and a
                # suppressed region are the reference's.
                self.w("if mach._pending_cc or mach._fallback_holds or "
                       f"{imm} in fr.compiled.disabled_regions:")
                self.bail(i, 1)
                self.flush(0, inc)
                self.w(f"instr = fr.compiled.instrs[{i}]")
                self.w("mach.condition_code_register = 0")
                self.w("region = fr.region = mach._begin_region("
                       f"fr.compiled, instr, regs, fr.spill, {i}, fr.tid)")
                if self.timed:
                    self.w("T.region_begin()")
                    self.w("T.uop(instr, None)")
                # The region just opened gets the full probe.
                self.probe(after)
                self.w(f"return {after}")
            self.closed = True

        elif op is MOp.AREGION_END:
            if not regioned:
                self.bail(i, 0)  # outside a region: the reference raises
            else:
                # A failed commit-instant validation of the fallback lock
                # (a real conflict) is the reference's.
                self.w("if mach._fallback_mode == 'end' and "
                       "mach.fallback_lock.held_by_other(fr.tid):")
                self.bail(i, 1)
                self.flush(0, inc)
                self.w("mach._commit(region)")
                if self.timed:
                    self.w("T.region_end()")
                    self.w(f"T.uop(fr.compiled.instrs[{i}], None)")
                self.w("fr.region = None")
                self.w(f"return {after}")
            self.closed = True

        else:  # pragma: no cover - guarded by FUSABLE_MOPS
            raise AssertionError(f"cannot fuse {op}")

        self.u += inc[0]
        self.l += inc[1]
        self.s += inc[2]
        self.b += inc[3]
        self.m += inc[4]
        if self.probing and not self.closed:
            self.sync()
            self.probe(after)

    def finish(self, end: int) -> None:
        """Fall-through exit: flush everything and hand the next pc
        (a stepped uop or the next run) back to the loop."""
        self.flush(0)
        self.w(f"return {end}")


def _timed_prologue(instrs: list, start: int, end: int, branchy: bool,
                    inline: bool) -> list[str]:
    """Function-entry statements of a timed run: the entry guard and the
    timing model's dynamic state, loaded into locals.  Code that ticks
    only through the model — a lone run end, or a faulted machine's
    run, which is not ``inline`` — needs neither: the model applies a
    pending event itself."""
    if end - start == 1 and instrs[start].op in _RUN_ENDS:
        return ["T = fr.timing"]
    if not inline:
        return ["T = fr.timing", "I = fr.compiled.instrs"] + (
            ["cbase = fr.code_base"] if branchy else [])
    out = [
        "T = fr.timing",
        "if T._pending_mispredict or T._record_commit_next:",
        f"    return fr.machine._step(fr, {start})",
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


def _fn_name(start: int, timed: bool, regioned: bool) -> str:
    """The name of one run's function for one timing variant and mode."""
    return (f"_f{start}_{'t' if timed else 'u'}_"
            f"{'region' if regioned else 'plain'}")


def _emit_fn(compiled: CompiledMethod, start: int, end: int,
             profile: JitProfile, timed: bool, regioned: bool) -> list[str]:
    """One run's function for one timing variant and one mode: the body
    for code outside a region (``regioned`` false) or inside one.  Its
    entry guard hands an activation in the other mode to the other
    mode's function."""
    instrs = compiled.instrs
    ops = {instrs[i].op for i in range(start, end)}
    other = _fn_name(start, timed, not regioned)
    out = [f"def {_fn_name(start, timed, regioned)}(fr):"]
    if regioned:
        pre = ["region = fr.region", "if region is None:"]
    else:
        pre = ["if fr.region is not None:"]
    pre.append(f"    return {other}(fr)")
    if timed:
        pre += _timed_prologue(instrs, start, end, bool(ops & _BRANCHY),
                               not profile.faulted)
    pre += ["mach = fr.machine", "st = fr.stats", "regs = fr.regs"]
    if ops & _SPILLY:
        pre.append("spill = fr.spill")
        if timed:
            pre.append("sbase = fr.spill_base")
    if regioned and ops & _MEM_TRACK:
        pre += ["rl = region.read_lines", "wl = region.write_lines",
                "sb = region.store_buffer"]
        if profile.fallback_begin and not profile.faulted:
            pre.append("fbl = mach.fallback_lock")
    out += ["    " + stmt for stmt in pre]
    body = _Body(regioned, timed, profile, 1)
    for i in range(start, end):
        body.emit_uop(i, instrs[i])
    if not body.closed:
        body.finish(end)
    out += body.lines
    return out


def jit_source(compiled: CompiledMethod, profile: JitProfile) -> str:
    """The full generated module source for ``compiled`` under
    ``profile``: every run's four functions (untimed then timed, each
    plain then region), deterministic and pinned by the golden-source
    test.  At run time each function is compiled on its own, on its
    first entry in its mode."""
    runs = fused_runs(compiled)
    parts = [
        f"# template-jit: {compiled.name}",
        f"# profile: {profile}",
        f"# fused runs: {runs}",
    ]
    for start, end in runs:
        for timed in (False, True):
            for regioned in (False, True):
                parts.append("")
                parts.extend(_emit_fn(compiled, start, end, profile, timed,
                                      regioned))
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# Compilation and caching
# ---------------------------------------------------------------------------

#: compiled run functions, shared by every method and machine of the
#: process: equal source is equal code, and each table ``exec``s it into
#: its own namespace.  Keyed by :func:`_code_key`, the
#: emitter's whole input, so a hit installs without emitting and the
#: source itself is not kept alive.  Dropped by :func:`clear_code_cache`;
#: two threads racing on one run at worst both compile it.
_CODE: dict[tuple, CodeType] = {}

#: the uop fields :func:`_emit_fn` reads (``args`` through
#: :func:`~repro.hw.timing.uop_timing`).
_EMITTED_FIELDS = ("op", "dst", "a", "b", "c", "imm", "cond", "target",
                   "fieldname", "cls", "args")


def _code_key(compiled: CompiledMethod, start: int, end: int,
              profile: JitProfile, timed: bool, regioned: bool) -> tuple:
    """Everything :func:`_emit_fn` reads for one run function: equal keys
    emit equal source."""
    return (start, end, timed, regioned, profile,
            *(tuple(getattr(instr, f) for f in _EMITTED_FIELDS)
              for instr in compiled.instrs[start:end]))


def clear_code_cache() -> None:
    """Forget every compiled run: the next run entries compile cold."""
    _CODE.clear()


#: the globals every run function runs against (each table's namespace
#: adds the run functions themselves).
_GLOBALS = {
    "GuestObject": GuestObject,
    "GuestArray": GuestArray,
    "_wi": wrap_int,
    "_gdiv": guest_div,
    "_gmod": guest_mod,
}


@cache
def _stepped(pc: int):
    """The table entry of a pc that starts no run, shared by every
    table: it retires the uop at ``pc`` on the reference loop."""

    def step(fr):
        return fr.machine._step(fr, pc)

    return step


def _build_table(jm: JittedMethod, timed: bool) -> list:
    """One variant's pc-indexed dispatch table: the stepped closures,
    with a compile-on-first-entry stub at each run start."""
    namespace = dict(_GLOBALS)
    table = [_stepped(pc) for pc in range(len(jm._compiled.instrs))]
    for start, end in jm.runs:
        for regioned in (False, True):
            namespace[_fn_name(start, timed, regioned)] = _stub(
                jm, timed, namespace, table, start, end, regioned)
        # Either stub can be the entry: each hands the other mode over.
        table[start] = namespace[_fn_name(start, timed, False)]
    return table


def _stub(jm: JittedMethod, timed: bool, namespace: dict, table: list,
          start: int, end: int, regioned: bool):
    """One mode's function of a run, until its first entry in that mode:
    it hands the other mode to the other mode's function (or stub);
    otherwise it takes the process's cached code for the run (emitting
    and compiling it only on a miss), installs it in the namespace and at
    the run start, and runs it."""
    name = _fn_name(start, timed, regioned)
    other = _fn_name(start, timed, not regioned)

    def compile_and_run(fr):
        if (fr.region is not None) != regioned:
            return namespace[other](fr)
        compiled, profile = jm._compiled, jm.profile
        key = _code_key(compiled, start, end, profile, timed, regioned)
        code = _CODE.get(key)
        if code is None:
            source = "\n".join(_emit_fn(compiled, start, end, profile,
                                        timed, regioned)) + "\n"
            digest = hashlib.blake2b(source.encode(),
                                     digest_size=16).hexdigest()
            # Named by content: the code serves every method whose run
            # emits this source.
            code = _CODE[key] = compile(source, f"<jit:{name}:{digest}>",
                                        "exec")
        exec(code, namespace)
        fn = table[start] = namespace[name]
        return fn(fr)

    return compile_and_run


def jit_compile(compiled: CompiledMethod, machine) -> JittedMethod:
    """Build the dispatch form of ``compiled`` for ``machine``'s profile
    and install it on the code object (its one cache slot; a recompile
    makes a new code object).  Variant tables are built on first
    :meth:`JittedMethod.table` call; runs compile on first execution."""
    jm = JittedMethod(profile=machine._jit_profile,
                      runs=fused_runs(compiled), _compiled=compiled)
    compiled._jitted = jm
    return jm


def get_jitted(compiled: CompiledMethod, machine) -> JittedMethod:
    """Return the cached dispatch form, building it when there is none
    yet or it was built for a different machine profile."""
    jm = compiled._jitted
    profile = machine._jit_profile
    if jm is None or (jm.profile is not profile and jm.profile != profile):
        jm = jit_compile(compiled, machine)
    return jm
