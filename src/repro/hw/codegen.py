"""Code generation: SSA IR → machine uops.

Pipeline:

1. **SSA destruction** — critical edges are split, then each phi becomes
   parallel copies at the end of its predecessors (sequentialized with a
   cycle-breaking temporary).
2. **Lowering** — each IR node expands to uops.  Safety checks and asserts
   become single fused compare-and-branch uops (to trap and abort stubs
   respectively); monitor operations expand to the reservation-lock
   load/branch/store sequence, while SLE'd monitors are just
   load+branch-to-abort (the paper's "load the value of the lock upon
   monitor entry and verify"); safepoints are a flag load plus a never-taken
   branch (§6.4).
3. **Linear-scan register allocation** — intervals are widened across loop
   back edges (conservative but correct); allocation failures spill to
   per-frame slots with scratch-register fixups at each use/def.

``aregion_begin`` carries the recovery target as an instruction index, so
the hardware can redirect control on aborts without any compiler-generated
compensation code.

This module only produces code; executing a uop is the business of the
reference loop in :mod:`repro.hw.machine` and of the templates in
:mod:`repro.hw.templatejit` (fused runs).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from ..ir.cfg import Block, Graph
from ..ir.ops import Kind, Node
from .isa import CompiledMethod, MInstr, MOp

#: physical registers available to the allocator (rest are scratch).
TOTAL_REGS = 32
SCRATCH_REGS = (29, 30, 31)
ALLOCATABLE = TOTAL_REGS - len(SCRATCH_REGS)

#: address of the global safepoint-yield flag (always cached, §6.4).
SAFEPOINT_FLAG_ADDRESS = 0x1000

_IR_TO_MOP = {
    Kind.ADD: MOp.ADD, Kind.SUB: MOp.SUB, Kind.MUL: MOp.MUL,
    Kind.DIV: MOp.DIV, Kind.MOD: MOp.MOD, Kind.AND: MOp.AND,
    Kind.OR: MOp.OR, Kind.XOR: MOp.XOR, Kind.SHL: MOp.SHL,
    Kind.SHR: MOp.SHR,
}


@dataclass
class _PendingInstr:
    """Instruction with a symbolic branch target (block id or stub key)."""

    instr: MInstr
    target_label: object | None = None


class CodeGenerator:
    """Generates a :class:`CompiledMethod` from an IR graph."""

    def __init__(self, graph: Graph, uses_regions: bool = False) -> None:
        self.graph = graph
        self.uses_regions = uses_regions
        self._vreg_counter = itertools.count()
        self._vreg_of: dict[int, int] = {}
        self._code: list[_PendingInstr] = []
        self._labels: dict[object, int] = {}
        self._abort_stubs: dict[int, tuple[str, int | None, int]] = {}
        self._param_vregs: dict[int, int] = {}
        self._region_entry_labels: dict[int, object] = {}

    # -- public ---------------------------------------------------------------
    def generate(self) -> CompiledMethod:
        split_critical_edges(self.graph)
        copies = lower_phis(self.graph)
        self._emit_all(copies)
        instrs, num_spills, param_locs = self._allocate_registers()
        compiled = CompiledMethod(
            name=self.graph.method_name,
            num_params=self.graph.num_params,
            instrs=instrs,
            num_regs=TOTAL_REGS,
            num_spill_slots=num_spills,
            uses_regions=self.uses_regions,
        )
        compiled.param_locations = param_locs  # type: ignore[attr-defined]
        for abort_id, (reason, src_pc, region_id) in self._abort_stubs.items():
            compiled.abort_sites[abort_id] = (src_pc, region_id)
        for rid, label in self._region_entry_labels.items():
            compiled.region_entries[rid] = self._labels[label]
        return compiled

    # -- vreg assignment ---------------------------------------------------------
    def vreg(self, node: Node) -> int:
        reg = self._vreg_of.get(node.id)
        if reg is None:
            reg = self._vreg_of[node.id] = next(self._vreg_counter)
        return reg

    def _fresh_vreg(self) -> int:
        return next(self._vreg_counter)

    # -- emission ------------------------------------------------------------------
    def _emit(self, instr: MInstr, target_label: object | None = None) -> None:
        self._code.append(_PendingInstr(instr, target_label))

    def _emit_all(self, copies: dict[tuple[int, int], list[tuple[Node, Node]]]) -> None:
        order = self.graph.rpo()
        layout_index = {b.id: i for i, b in enumerate(order)}
        self._current_region: int | None = None

        for position, block in enumerate(order):
            self._labels[("block", block.id)] = len(self._code)
            for node in block.ops:
                self._emit_node(node, block)
            self._emit_terminator(block, order, position, copies)

        # Abort stubs (one per assert/SLE site).
        for abort_id, (reason, src_pc, region_id) in self._abort_stubs.items():
            self._labels[("abort", abort_id)] = len(self._code)
            self._emit(MInstr(
                MOp.AREGION_ABORT, imm=abort_id, cls=reason, src_pc=src_pc,
                abort_id=abort_id,
            ))

        # Resolve labels.
        for pending in self._code:
            if pending.target_label is not None:
                pending.instr.target = self._labels[pending.target_label]

    def _abort_stub_label(self, abort_id: int, reason: str,
                          src_pc: int | None, region_id: int) -> object:
        self._abort_stubs[abort_id] = (reason, src_pc, region_id)
        return ("abort", abort_id)

    # -- per-node lowering -------------------------------------------------------
    def _emit_node(self, node: Node, block: Block) -> None:
        kind = node.kind
        pc = node.bytecode_pc
        if kind is Kind.PARAM:
            self._param_vregs[node.attrs["index"]] = self.vreg(node)
            return
        if kind is Kind.CONST:
            self._emit(MInstr(MOp.CONST, dst=self.vreg(node), imm=node.attrs["imm"], src_pc=pc))
            return
        if kind is Kind.CONST_NULL:
            self._emit(MInstr(MOp.CONST_NULL, dst=self.vreg(node), src_pc=pc))
            return
        if kind is Kind.CONST_CLASS:
            self._emit(MInstr(MOp.CONST_CLASS, dst=self.vreg(node), cls=node.attrs["cls"], src_pc=pc))
            return
        if kind in _IR_TO_MOP:
            self._emit(MInstr(
                _IR_TO_MOP[kind], dst=self.vreg(node),
                a=self.vreg(node.operands[0]), b=self.vreg(node.operands[1]),
                src_pc=pc,
            ))
            return
        if kind is Kind.CLASSOF:
            self._emit(MInstr(MOp.CLASSOF, dst=self.vreg(node),
                              a=self.vreg(node.operands[0]), src_pc=pc))
            return
        if kind is Kind.ALEN:
            self._emit(MInstr(MOp.LOADLEN, dst=self.vreg(node),
                              a=self.vreg(node.operands[0]), src_pc=pc))
            return
        if kind is Kind.GETFIELD:
            self._emit(MInstr(MOp.LOADF, dst=self.vreg(node),
                              a=self.vreg(node.operands[0]),
                              fieldname=node.attrs["field"], src_pc=pc))
            return
        if kind is Kind.PUTFIELD:
            self._emit(MInstr(MOp.STOREF, a=self.vreg(node.operands[0]),
                              b=self.vreg(node.operands[1]),
                              fieldname=node.attrs["field"], src_pc=pc))
            return
        if kind is Kind.FAA:
            self._emit(MInstr(MOp.FAA, dst=self.vreg(node),
                              a=self.vreg(node.operands[0]),
                              b=self.vreg(node.operands[1]),
                              fieldname=node.attrs["field"], src_pc=pc))
            return
        if kind is Kind.CAS:
            self._emit(MInstr(MOp.CAS, dst=self.vreg(node),
                              a=self.vreg(node.operands[0]),
                              b=self.vreg(node.operands[1]),
                              c=self.vreg(node.operands[2]),
                              fieldname=node.attrs["field"], src_pc=pc))
            return
        if kind is Kind.LL:
            self._emit(MInstr(MOp.LL, dst=self.vreg(node),
                              a=self.vreg(node.operands[0]),
                              fieldname=node.attrs["field"], src_pc=pc))
            return
        if kind is Kind.SC:
            self._emit(MInstr(MOp.SC, dst=self.vreg(node),
                              a=self.vreg(node.operands[0]),
                              b=self.vreg(node.operands[1]),
                              fieldname=node.attrs["field"], src_pc=pc))
            return
        if kind is Kind.ALOAD:
            self._emit(MInstr(MOp.LOADA, dst=self.vreg(node),
                              a=self.vreg(node.operands[0]),
                              b=self.vreg(node.operands[1]), src_pc=pc))
            return
        if kind is Kind.ASTORE:
            self._emit(MInstr(MOp.STOREA, a=self.vreg(node.operands[0]),
                              b=self.vreg(node.operands[1]),
                              c=self.vreg(node.operands[2]), src_pc=pc))
            return
        if kind is Kind.NEW:
            self._emit(MInstr(MOp.NEWOBJ, dst=self.vreg(node),
                              cls=node.attrs["cls"], src_pc=pc))
            return
        if kind is Kind.NEWARR:
            self._emit(MInstr(MOp.NEWARR, dst=self.vreg(node),
                              a=self.vreg(node.operands[0]), src_pc=pc))
            return
        if kind in (Kind.CALL, Kind.VCALL):
            mop = MOp.CALLVM if kind is Kind.CALL else MOp.VCALLVM
            self._emit(MInstr(
                mop, dst=self.vreg(node), method=node.attrs["method"],
                args=tuple(self.vreg(op) for op in node.operands), src_pc=pc,
            ))
            return
        if kind is Kind.CHECK_NULL:
            self._emit(MInstr(MOp.BR_TRAP, cond="eq", fieldname="null",
                              a=self.vreg(node.operands[0]), src_pc=pc))
            return
        if kind is Kind.CHECK_BOUNDS:
            # Unsigned trick: trap when (unsigned)idx >= length.
            self._emit(MInstr(MOp.BR_TRAP, cond="uge", fieldname="bounds",
                              a=self.vreg(node.operands[1]),
                              b=self.vreg(node.operands[0]), src_pc=pc))
            return
        if kind is Kind.CHECK_DIV0:
            self._emit(MInstr(MOp.BR_TRAP, cond="eq", fieldname="div0",
                              a=self.vreg(node.operands[0]), src_pc=pc))
            return
        if kind is Kind.CHECK_CLASS:
            expected = self._fresh_vreg()
            self._emit(MInstr(MOp.CONST_CLASS, dst=expected, cls=node.attrs["cls"], src_pc=pc))
            self._emit(MInstr(MOp.BR_TRAP, cond="ne", fieldname="class",
                              a=self.vreg(node.operands[0]), b=expected, src_pc=pc))
            return
        if kind is Kind.MONITOR_ENTER:
            self._lower_monitor(node, enter=True)
            return
        if kind is Kind.MONITOR_EXIT:
            self._lower_monitor(node, enter=False)
            return
        if kind is Kind.SLE_ENTER:
            obj = self.vreg(node.operands[0])
            temp = self._fresh_vreg()
            abort_id = _next_abort_id()
            label = self._abort_stub_label(
                abort_id, "sle", node.bytecode_pc, self._current_region or -1
            )
            self._emit(MInstr(MOp.LOADLOCK, dst=temp, a=obj, src_pc=pc))
            self._emit(MInstr(MOp.BR_ABORT, cond="gt", a=temp,
                              abort_id=abort_id, src_pc=pc), target_label=label)
            return
        if kind is Kind.ASSERT:
            abort_id = node.attrs.get("abort_id", _next_abort_id())
            label = self._abort_stub_label(
                abort_id, "assert", node.bytecode_pc, self._current_region or -1
            )
            self._emit(MInstr(
                MOp.BR_ABORT, cond=node.attrs["cond"],
                a=self.vreg(node.operands[0]), b=self.vreg(node.operands[1]),
                abort_id=abort_id, src_pc=pc,
            ), target_label=label)
            return
        if kind is Kind.AREGION_END:
            self._emit(MInstr(MOp.AREGION_END, src_pc=pc))
            self._current_region = None
            return
        if kind is Kind.SAFEPOINT:
            temp = self._fresh_vreg()
            self._emit(MInstr(MOp.LOADG, dst=temp, imm=SAFEPOINT_FLAG_ADDRESS, src_pc=pc))
            # Never-taken branch to the following instruction (a real JVM
            # would jump to the yield stub; the flag is never set here).
            self._emit(MInstr(MOp.BR, cond="ne", a=temp, src_pc=pc,
                              target=len(self._code) + 1))
            return
        if kind is Kind.PHI:
            raise AssertionError("phis must be lowered before emission")
        raise AssertionError(f"unhandled IR kind {kind}")

    def _lower_monitor(self, node: Node, enter: bool) -> None:
        """Reservation-lock fast path: load lock word, check, store (3 uops
        on both enter and exit — the overhead SLE removes)."""
        pc = node.bytecode_pc
        obj = self.vreg(node.operands[0])
        temp = self._fresh_vreg()
        self._emit(MInstr(MOp.LOADLOCK, dst=temp, a=obj, src_pc=pc))
        self._emit(MInstr(MOp.BR, cond="gt", a=temp, src_pc=pc,
                          target=len(self._code) + 1))  # contended: slow path
        self._emit(MInstr(MOp.STORELOCK, a=obj, imm=(1 if enter else -1), src_pc=pc))

    # -- terminators --------------------------------------------------------------
    def _emit_terminator(self, block: Block, order, position, copies) -> None:
        term = block.terminator
        next_block = order[position + 1] if position + 1 < len(order) else None

        def emit_copies(succ_index: int) -> None:
            for dst_node, src_node in copies.get((block.id, succ_index), ()):  # phi <- value
                self._emit(MInstr(MOp.MOV, dst=self.vreg(dst_node),
                                  a=self.vreg(src_node)))

        kind = term.kind
        if kind is Kind.RETURN:
            value = self.vreg(term.operands[0]) if term.operands else None
            self._emit(MInstr(MOp.RET, a=value, src_pc=term.bytecode_pc))
            return
        if kind is Kind.JUMP:
            emit_copies(0)
            succ = block.succs[0]
            if next_block is None or succ is not next_block:
                self._emit(MInstr(MOp.JMP, src_pc=term.bytecode_pc),
                           target_label=("block", succ.id))
            return
        if kind is Kind.BRANCH:
            taken, fall = block.succs
            # Copies were pushed into split blocks, so a two-successor block
            # never carries edge copies.
            assert (block.id, 0) not in copies and (block.id, 1) not in copies
            self._emit(MInstr(
                MOp.BR, cond=term.attrs["cond"],
                a=self.vreg(term.operands[0]), b=self.vreg(term.operands[1]),
                src_pc=term.bytecode_pc,
            ), target_label=("block", taken.id))
            if next_block is None or fall is not next_block:
                self._emit(MInstr(MOp.JMP), target_label=("block", fall.id))
            return
        if kind is Kind.REGION_BEGIN:
            spec, recovery = block.succs
            assert (block.id, 0) not in copies and (block.id, 1) not in copies
            rid = term.attrs.get("region_id", -1)
            self._current_region = rid
            label = ("region", rid)
            self._region_entry_labels[rid] = label
            self._labels[label] = len(self._code)
            self._emit(MInstr(MOp.AREGION_BEGIN, imm=rid, src_pc=term.bytecode_pc),
                       target_label=("block", recovery.id))
            if next_block is None or spec is not next_block:
                self._emit(MInstr(MOp.JMP), target_label=("block", spec.id))
            return
        raise AssertionError(f"unhandled terminator {kind}")

    # -- register allocation --------------------------------------------------------
    def _allocate_registers(self):
        instrs = [p.instr for p in self._code]
        intervals = _live_intervals(instrs)
        # Parameters arrive in their locations at entry: live from position 0.
        for vreg in self._param_vregs.values():
            if vreg in intervals:
                intervals[vreg][0] = 0
        _extend_across_loops(instrs, intervals)
        instrs, coalesce_map = _coalesce_moves(instrs, intervals, self._param_vregs)
        # Re-point label indices: coalescing removed some MOVs.
        for key in self._labels:
            self._labels[key] = coalesce_map[self._labels[key]]
        for instr in instrs:
            if instr.target is not None:
                instr.target = coalesce_map[instr.target]
        assignment, spills = _linear_scan(intervals)
        final, index_map, num_slots, param_locs = _rewrite(
            instrs, assignment, spills, self._param_vregs
        )
        # Remap labels through the rewrite.
        for key in self._labels:
            self._labels[key] = index_map[self._labels[key]]
        for instr in final:
            if instr.target is not None:
                instr.target = index_map[instr.target]
        return final, num_slots, param_locs


_abort_id_counter = itertools.count(10_000)


def _next_abort_id() -> int:
    return next(_abort_id_counter)


# -- SSA destruction ---------------------------------------------------------

def split_critical_edges(graph: Graph) -> int:
    """Split edges that would otherwise need copies on a multi-successor
    terminator: classic critical edges, plus any edge from a two-successor
    block (BRANCH or REGION_BEGIN) into a block with phis — this guarantees
    phi copies always land in single-in/single-out blocks."""
    split = 0
    for block in list(graph.blocks):
        if len(block.succs) < 2:
            continue
        for index in range(len(block.succs)):
            succ = block.succs[index]
            if len(succ.preds) < 2 and not succ.phis:
                continue
            middle = graph.new_block(src_pc=block.src_pc)
            middle.count = block.edge_count_to(index)
            middle.region_id = block.region_id
            values = _edge_values(block, index, succ)
            graph.replace_succ(block, index, middle)
            graph.set_terminator(middle, Node(Kind.JUMP), [])
            graph._link(middle, succ, phi_values=values)
            split += 1
    return split


def _edge_values(pred: Block, succ_index: int, succ: Block) -> list[Node]:
    for pos, (p, idx) in enumerate(succ.preds):
        if p is pred and idx == succ_index:
            return [phi.operands[pos] for phi in succ.phis]
    raise AssertionError("edge not found")


def lower_phis(graph: Graph) -> dict[tuple[int, int], list[tuple[Node, Node]]]:
    """Convert phis to per-edge parallel copies.

    Returns ``(pred block id, succ index) -> [(phi, value), ...]`` with each
    list sequentialized so copies can be emitted in order (a temporary CONST
    proxy breaks copy cycles).  Phi nodes are removed from their blocks; the
    code generator assigns them vregs like any other value.
    """
    copies: dict[tuple[int, int], list[tuple[Node, Node]]] = {}
    for block in graph.blocks:
        if not block.phis:
            continue
        for pos, (pred, succ_index) in enumerate(block.preds):
            pairs = [(phi, phi.operands[pos]) for phi in block.phis
                     if phi.operands[pos] is not phi]
            copies[(pred.id, succ_index)] = _sequentialize(pairs)
        for phi in block.phis:
            phi.operands = []
        block.phis = []  # phis now live as copy destinations only
    return copies


def _sequentialize(pairs: list[tuple[Node, Node]]) -> list[tuple[Node, Node]]:
    """Order parallel copies; break cycles with a temp node."""
    pending = [(dst, src) for dst, src in pairs if dst is not src]
    ordered: list[tuple[Node, Node]] = []
    while pending:
        progressed = False
        for i, (dst, src) in enumerate(pending):
            # Safe to emit when no later copy still needs to *read* dst.
            if not any(s is dst for (d, s) in pending if d is not dst):
                ordered.append((dst, src))
                pending.pop(i)
                progressed = True
                break
        if not progressed:
            # Cycle: rotate through a temp.
            dst, src = pending.pop(0)
            temp = Node(Kind.PHI)  # placeholder value node for a temp vreg
            ordered.append((temp, dst))
            ordered.append((dst, src))
            for j, (d2, s2) in enumerate(pending):
                if s2 is dst:
                    pending[j] = (d2, temp)
    return ordered


# -- linear scan -----------------------------------------------------------------

def _instr_reads(instr: MInstr) -> list[int]:
    regs = [r for r in (instr.a, instr.b, instr.c) if r is not None]
    regs.extend(instr.args)
    return regs


def _machine_blocks(instrs: list[MInstr]):
    """Partition the linear code into blocks with successor edges.

    For liveness purposes, ``AREGION_BEGIN`` has an edge to its alternate
    (recovery) target: an abort restores the checkpointed register file, so
    values the recovery path needs must be live *at the begin* — but not
    through the speculative body, whose clobbers are undone by the rollback.
    ``AREGION_ABORT`` consequently has no successors at all.
    """
    leaders = {0}
    for pos, instr in enumerate(instrs):
        if instr.target is not None:
            leaders.add(instr.target)
        if instr.op in (MOp.BR, MOp.JMP, MOp.RET, MOp.BR_ABORT,
                        MOp.AREGION_BEGIN, MOp.AREGION_ABORT):
            if pos + 1 < len(instrs):
                leaders.add(pos + 1)
    starts = sorted(leaders)
    blocks = []
    for i, start in enumerate(starts):
        end = starts[i + 1] if i + 1 < len(starts) else len(instrs)
        last = instrs[end - 1]
        succs: list[int] = []
        if last.op is MOp.JMP:
            succs = [last.target]
        elif last.op in (MOp.BR, MOp.BR_ABORT):
            succs = [last.target]
            if end < len(instrs):
                succs.append(end)
        elif last.op is MOp.AREGION_BEGIN:
            succs = []
            if end < len(instrs):
                succs.append(end)
            succs.append(last.target)  # recovery liveness flows to the begin
        elif last.op in (MOp.RET, MOp.AREGION_ABORT):
            succs = []
        else:
            if end < len(instrs):
                succs = [end]
        blocks.append((start, end, succs))
    index_of = {start: i for i, (start, _, _) in enumerate(blocks)}
    return blocks, index_of


def _live_intervals(instrs: list[MInstr]) -> dict[int, list[int]]:
    """Dataflow-precise conservative live intervals: vreg -> [start, end].

    Backward liveness over machine blocks, then each vreg's interval covers
    every position at which it is live or defined.  Loop-carried values get
    extended around their back edges by the fixpoint itself; values dead at
    a loop header are not (unlike blanket back-edge widening, which inflates
    register pressure enough to cause spills in region-formed code).
    """
    blocks, index_of = _machine_blocks(instrs)
    nblocks = len(blocks)
    use_sets: list[set[int]] = [set() for _ in range(nblocks)]
    def_sets: list[set[int]] = [set() for _ in range(nblocks)]
    for bi, (start, end, _) in enumerate(blocks):
        defined: set[int] = set()
        for pos in range(start, end):
            instr = instrs[pos]
            for reg in _instr_reads(instr):
                if reg >= 0 and reg not in defined:
                    use_sets[bi].add(reg)
            if instr.dst is not None:
                defined.add(instr.dst)
        def_sets[bi] = defined

    live_in: list[set[int]] = [set() for _ in range(nblocks)]
    live_out: list[set[int]] = [set() for _ in range(nblocks)]
    changed = True
    while changed:
        changed = False
        for bi in range(nblocks - 1, -1, -1):
            start, end, succs = blocks[bi]
            out: set[int] = set()
            for succ_start in succs:
                out |= live_in[index_of[succ_start]]
            new_in = use_sets[bi] | (out - def_sets[bi])
            if out != live_out[bi] or new_in != live_in[bi]:
                live_out[bi] = out
                live_in[bi] = new_in
                changed = True

    intervals: dict[int, list[int]] = {}

    def touch(reg: int, pos: int) -> None:
        iv = intervals.get(reg)
        if iv is None:
            intervals[reg] = [pos, pos]
        else:
            if pos < iv[0]:
                iv[0] = pos
            if pos > iv[1]:
                iv[1] = pos

    for bi, (start, end, _) in enumerate(blocks):
        for reg in live_in[bi]:
            touch(reg, start)
        for reg in live_out[bi]:
            touch(reg, end - 1)
        for pos in range(start, end):
            instr = instrs[pos]
            for reg in _instr_reads(instr):
                if reg >= 0:
                    touch(reg, pos)
            if instr.dst is not None:
                touch(instr.dst, pos)
    return intervals


def _extend_across_loops(instrs: list[MInstr], intervals: dict[int, list[int]]) -> None:
    """Liveness-based intervals already cover loop-carried ranges; kept as a
    no-op hook for API stability."""
    return None


def _coalesce_moves(instrs, intervals, param_vregs):
    """Register-copy coalescing: merge MOV-connected vregs whose live
    intervals do not conflict, then delete the now-redundant MOVs.

    Phi lowering produces one copy per live value on every region exit and
    loop edge; without coalescing those copies would be real retired uops,
    charging small atomic regions an artificial exit tax no production
    register allocator would pay.

    Returns ``(new_instrs, index_map)`` where ``index_map[old] = new``.
    """
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        root = x
        while parent.get(root, root) != root:
            root = parent[root]
        while parent.get(x, x) != x:
            parent[x], x = root, parent[x]
        return root

    for pos, instr in enumerate(instrs):
        if instr.op is not MOp.MOV or instr.dst is None or instr.a is None:
            continue
        src, dst = find(instr.a), find(instr.dst)
        if src == dst:
            continue
        iv_src = intervals.get(src)
        iv_dst = intervals.get(dst)
        if iv_src is None or iv_dst is None:
            continue
        # Safe to merge when the intervals touch at most at this MOV.
        if iv_src[1] <= iv_dst[0] or iv_dst[1] <= iv_src[0]:
            parent[dst] = src
            iv_src[0] = min(iv_src[0], iv_dst[0])
            iv_src[1] = max(iv_src[1], iv_dst[1])
            del intervals[dst]

    # Rewrite registers to representatives.
    def m(reg):
        return find(reg) if reg is not None and reg >= 0 else reg

    for instr in instrs:
        instr.a = m(instr.a)
        instr.b = m(instr.b)
        instr.c = m(instr.c)
        instr.dst = m(instr.dst)
        if instr.args:
            instr.args = tuple(m(r) for r in instr.args)
    for index in list(param_vregs):
        param_vregs[index] = find(param_vregs[index])

    # Drop self-moves, building the index map.
    new_instrs: list[MInstr] = []
    index_map: list[int] = []
    for instr in instrs:
        index_map.append(len(new_instrs))
        if instr.op is MOp.MOV and instr.a == instr.dst:
            continue
        new_instrs.append(instr)
    index_map.append(len(new_instrs))
    # Retarget within the new numbering happens in the caller.
    return new_instrs, index_map


def _linear_scan(intervals: dict[int, list[int]]):
    """Classic linear scan; returns (vreg -> phys reg, vreg -> spill slot)."""
    order = sorted(intervals.items(), key=lambda kv: kv[1][0])
    free = list(range(ALLOCATABLE))
    active: list[tuple[int, int]] = []  # (end, vreg)
    assignment: dict[int, int] = {}
    spills: dict[int, int] = {}
    next_slot = 0

    for vreg, (start, end) in order:
        # Expire intervals that ended before this one starts.
        still_active = []
        for entry in active:
            if entry[0] < start:
                free.append(assignment[entry[1]])
            else:
                still_active.append(entry)
        active = still_active
        if free:
            reg = free.pop()
            assignment[vreg] = reg
            active.append((end, vreg))
            active.sort()
        else:
            # Spill the interval with the furthest end.
            furthest_end, furthest_vreg = active[-1]
            if furthest_end > end:
                assignment[vreg] = assignment.pop(furthest_vreg)
                spills[furthest_vreg] = next_slot
                next_slot += 1
                active.pop()
                active.append((end, vreg))
                active.sort()
            else:
                spills[vreg] = next_slot
                next_slot += 1
    return assignment, spills


def _rewrite(instrs, assignment, spills, param_vregs):
    """Apply the allocation: map vregs, insert spill loads/stores."""
    final: list[MInstr] = []
    index_map: list[int] = []

    def map_src(reg: int | None, scratch_pool: list[int]) -> int | None:
        if reg is None:
            return None
        if reg in assignment:
            return assignment[reg]
        slot = spills[reg]
        scratch = scratch_pool.pop()
        final.append(MInstr(MOp.LOADSPILL, dst=scratch, imm=slot))
        return scratch

    for instr in instrs:
        index_map.append(len(final))
        scratch_pool = list(SCRATCH_REGS)
        instr.a = map_src(instr.a, scratch_pool)
        instr.b = map_src(instr.b, scratch_pool)
        instr.c = map_src(instr.c, scratch_pool)
        if instr.args:
            # Spill-resident call arguments are encoded as negative values
            # (-slot - 1): the machine's call bridge reads them straight
            # from the spill frame, which models a memory-argument calling
            # convention without clobbering scratch registers.
            mapped = []
            for reg in instr.args:
                if reg in assignment:
                    mapped.append(assignment[reg])
                else:
                    mapped.append(-spills[reg] - 1)
            instr.args = tuple(mapped)
        if instr.dst is not None:
            if instr.dst in assignment:
                instr.dst = assignment[instr.dst]
                final.append(instr)
            else:
                slot = spills[instr.dst]
                scratch = SCRATCH_REGS[-1]
                instr.dst = scratch
                final.append(instr)
                final.append(MInstr(MOp.STORESPILL, a=scratch, imm=slot))
        else:
            final.append(instr)
    index_map.append(len(final))

    param_locs = []
    for index in sorted(param_vregs):
        vreg = param_vregs[index]
        if vreg in assignment:
            param_locs.append(("r", assignment[vreg]))
        elif vreg in spills:
            param_locs.append(("s", spills[vreg]))
        else:
            param_locs.append(("r", 0))  # parameter never used
    num_slots = (max(spills.values()) + 1) if spills else 0
    return final, index_map, num_slots, param_locs


def generate_code(graph: Graph, uses_regions: bool = False) -> CompiledMethod:
    """Convenience wrapper."""
    return CodeGenerator(graph, uses_regions=uses_regions).generate()
