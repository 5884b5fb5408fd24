"""Trace-driven out-of-order timing model.

A scoreboard approximation of the paper's detailed uop-level simulator
(Table 1): uops are fetched at ``fetch_width`` per cycle, held back by
instruction-window (ROB) occupancy, issue when their register inputs are
ready (register renaming is implicit: only true dependences are tracked),
complete after an execution latency (loads consult the two-level cache
hierarchy), and retire in order at ``retire_width`` per cycle.  Branches are
predicted by the gshare+bimodal combiner; mispredictions insert the Table-1
20-cycle bubble after branch resolution.

Atomic-region costs follow §6.3 / Figure 9:

- the baseline checkpoint substrate executes ``aregion_begin`` with no
  stall (a rename-table checkpoint);
- the "+20-cycle" configuration stalls the front end at every begin;
- the "single-inflight" configuration stalls a begin at decode until the
  previous region's commit retires;
- an abort drains the pipeline like a branch mispredict.
"""

from __future__ import annotations

from collections import deque
from typing import NamedTuple

from .branchpred import CombiningPredictor
from .cache import MemoryHierarchy
from .config import BASELINE_4WIDE, HardwareConfig
from .isa import (
    ALU_LATENCY,
    ATOMIC_MOPS,
    DEFAULT_LATENCY,
    LOAD_MOPS,
    MInstr,
    MOp,
    STORE_MOPS,
)

#: cycles charged per interpreted bytecode (tier-0 execution).
INTERPRETER_CYCLES_PER_BYTECODE = 12

#: lock-word update latency: reservation-lock stores behave like lightweight
#: RMW operations on the monitor word.
LOCK_STORE_LATENCY = 16

#: front-end serialization charged at a VM call boundary.
CALL_BOUNDARY_CYCLES = 4

#: scoreboard execution classes (:attr:`UopTiming.kind`).
ALU, LOAD, STORE, RMW = range(4)


class UopTiming(NamedTuple):
    """The static scoreboard facts of one uop."""

    #: distinct source registers the uop waits on.
    srcs: tuple[int, ...]
    #: execution class: ``ALU``, ``LOAD`` (latency from the cache),
    #: ``STORE`` (feeds store-to-load forwarding), or ``RMW`` (lock-word
    #: stores and atomics: serialize on the address).
    kind: int
    #: execution latency; for a ``LOAD`` without an address, the ALU
    #: latency it falls back to.
    latency: int
    dst: int | None


def uop_timing(instr: MInstr) -> UopTiming:
    """Derive the static scoreboard facts of ``instr``.

    The one definition both consumers share: :meth:`TimingModel.uop`
    caches it per instruction, and the template JIT bakes it into timed
    fused code as constants.
    """
    srcs: list[int] = []
    for src in (instr.a, instr.b, instr.c, *instr.args):
        if src is not None and src >= 0 and src not in srcs:
            srcs.append(src)
    op = instr.op
    if op in LOAD_MOPS:
        kind, latency = LOAD, ALU_LATENCY.get(op, DEFAULT_LATENCY)
    elif op is MOp.STORELOCK or op in ATOMIC_MOPS:
        kind, latency = RMW, LOCK_STORE_LATENCY
    elif op in STORE_MOPS:
        kind, latency = STORE, 1
    else:
        kind, latency = ALU, ALU_LATENCY.get(op, DEFAULT_LATENCY)
    return UopTiming(tuple(srcs), kind, latency, instr.dst)


class TimingModel:
    """One instance per measured execution sample."""

    def __init__(self, config: HardwareConfig = BASELINE_4WIDE) -> None:
        self.config = config
        self.memory = MemoryHierarchy(config)
        self.predictor = CombiningPredictor(
            config.gshare_entries, config.bimodal_entries
        )
        self._reg_ready = [0.0] * 64
        #: completion time of the last store per address: loads depend on it
        #: (store→load forwarding through the store buffer).  Lock-word
        #: updates carry an atomic-RMW-class latency, so the baseline's
        #: monitor enter/exit chains serialize exactly as §3.3 describes —
        #: the serialization SLE removes.
        self._store_ready: dict[int, float] = {}
        self._fetch_cycle = 0.0
        self._fetched_this_cycle = 0
        self._retire_cycle = 0.0
        self._retired_this_cycle = 0
        #: completion times of uops still in the window (ROB occupancy).
        self._window: deque[float] = deque()
        self._pending_mispredict = False
        self._last_region_commit = 0.0
        self._record_commit_next = False

    # -- per-uop processing ------------------------------------------------
    def branch(self, pc: int, taken: bool) -> bool:
        """Predict/train the branch at ``pc``; returns prediction success."""
        correct = self.predictor.predict_and_update(pc, taken)
        if not correct:
            self._pending_mispredict = True
        return correct

    def uop(self, instr: MInstr, mem_address: int | None) -> None:
        """Account one retired uop."""
        facts = instr.timing_facts
        if facts is None:
            facts = instr.timing_facts = uop_timing(instr)
        srcs, kind, latency, dst = facts
        config = self.config

        # Fetch: width-limited, gated by window occupancy.
        if len(self._window) >= config.instruction_window:
            oldest = self._window.popleft()
            if oldest > self._fetch_cycle:
                self._fetch_cycle = oldest
                self._fetched_this_cycle = 0
        if self._fetched_this_cycle >= config.fetch_width:
            self._fetch_cycle += 1.0
            self._fetched_this_cycle = 0
        dispatch = self._fetch_cycle
        self._fetched_this_cycle += 1

        # Issue: wait for register inputs.
        ready = dispatch
        reg_ready = self._reg_ready
        for src in srcs:
            if reg_ready[src] > ready:
                ready = reg_ready[src]

        # Execute.
        if mem_address is None or kind == ALU:
            pass
        elif kind == LOAD:
            forwarded = self._store_ready.get(mem_address)
            if forwarded is not None and forwarded > ready:
                ready = forwarded  # store-to-load dependency
            latency = self.memory.access(mem_address)
        elif kind == STORE:
            self.memory.access(mem_address)
            self._store_ready[mem_address] = ready + latency
        else:
            # RMW semantics: lock-word updates and atomics serialize on
            # the address — the monitor-chain cost SLE removes (§3.3,
            # §6.1); contended FAA/CAS chains cost what a lock-word chain
            # costs.
            self.memory.access(mem_address)
            prior = self._store_ready.get(mem_address)
            if prior is not None and prior > ready:
                ready = prior
            self._store_ready[mem_address] = ready + latency
        complete = ready + latency

        if dst is not None:
            reg_ready[dst] = complete

        # In-order retirement at retire_width per cycle.
        retire = max(complete, self._retire_cycle)
        if retire == self._retire_cycle:
            self._retired_this_cycle += 1
            if self._retired_this_cycle >= config.retire_width:
                retire += 1.0
                self._retired_this_cycle = 0
        else:
            self._retired_this_cycle = 1
        self._retire_cycle = retire
        self._window.append(retire)

        if self._record_commit_next:
            self._last_region_commit = retire
            self._record_commit_next = False

        # Branch misprediction bubble: fetch resumes after resolution.
        if self._pending_mispredict:
            self._pending_mispredict = False
            self._fetch_cycle = max(
                self._fetch_cycle, complete + config.branch_mispredict_penalty
            )
            self._fetched_this_cycle = 0

    # -- region events --------------------------------------------------------
    def region_begin(self) -> None:
        if self.config.aregion_begin_stall:
            self._fetch_cycle += self.config.aregion_begin_stall
            self._fetched_this_cycle = 0
        if self.config.single_inflight_regions:
            if self._last_region_commit > self._fetch_cycle:
                self._fetch_cycle = self._last_region_commit
                self._fetched_this_cycle = 0

    def region_end(self) -> None:
        # The commit time is the retirement of the next uop (the END itself
        # is processed via uop() right after this call).
        self._record_commit_next = True

    def region_abort(self) -> None:
        """Aborts flush the pipeline like a mispredict."""
        self._fetch_cycle = max(
            self._fetch_cycle,
            self._retire_cycle + self.config.branch_mispredict_penalty,
        )
        self._fetched_this_cycle = 0
        self._last_region_commit = self._fetch_cycle

    def stall(self, cycles: float) -> None:
        """Freeze the front end for ``cycles`` (conflict-retry backoff)."""
        self._fetch_cycle = max(self._fetch_cycle, self._retire_cycle) + cycles
        self._fetched_this_cycle = 0

    def call_boundary(self) -> None:
        """VM call bridge: light front-end serialization."""
        self._fetch_cycle = max(self._fetch_cycle, self._retire_cycle)
        self._fetch_cycle += CALL_BOUNDARY_CYCLES
        self._fetched_this_cycle = 0

    def add_interpreter_cycles(self, bytecodes: int) -> None:
        """Charge tier-0 interpreter execution (serial)."""
        cost = bytecodes * INTERPRETER_CYCLES_PER_BYTECODE
        base = max(self._fetch_cycle, self._retire_cycle) + cost
        self._fetch_cycle = base
        self._retire_cycle = base
        self._fetched_this_cycle = 0
        self._retired_this_cycle = 0

    # -- results -----------------------------------------------------------------
    @property
    def cycles(self) -> float:
        return max(self._fetch_cycle, self._retire_cycle)
