"""Region replication (Step 3) and cold-edge-to-assert conversion (Step 4).

Implements the paper's §4: "[Step 3] creates the atomic regions by
performing a depth first search (ignoring cold paths) starting from each
selected region boundary, stopping at other selected region boundaries, the
method exit, and any non-inlined calls and then copying the visited blocks.
An aregion_begin is placed at the entry to the region, and an aregion_end
is placed at each region exit.  All edges into the block that the region
entry was copied from are moved to the aregion_begin and an exception edge
is added from the atomic begin to the source block."

Cold branches inside the copies become ASSERT operations whose condition
encodes the *cold* direction; the cold successor edge is simply absent from
the copy (Step 4).

Partial loop unrolling (one of the paper's ~200-LoC atomic-region-enabled
optimizations) is folded into replication: a per-iteration loop region can
chain K copies of the body inside one atomic region, threading the
loop-carried values from each copy's back edge into the next copy.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from ..ir.cfg import Block, Graph
from ..ir.ops import Kind, Node

#: Inverted conditions, for asserts on fallthrough-side cold edges.
NEGATE = {"lt": "ge", "le": "gt", "gt": "le", "ge": "lt", "eq": "ne", "ne": "eq"}

_abort_ids = itertools.count(1)


@dataclass
class AssertSite:
    """Diagnostic record for one ASSERT: which branch it came from."""

    node: Node
    abort_id: int
    src_pc: int | None
    region_id: int


@dataclass
class RegionInfo:
    """One formed atomic region."""

    region_id: int
    begin_block: Block            # ends in REGION_BEGIN
    original_entry: Block         # the boundary block (now recovery code)
    entry_copy: Block             # speculative clone of the boundary block
    blocks: list[Block] = field(default_factory=list)       # all clones + stubs
    asserts: list[AssertSite] = field(default_factory=list)
    exit_stubs: list[Block] = field(default_factory=list)
    #: original node id -> clone nodes (one per unrolled copy), for SSA
    #: repair: each clone is an additional definition of the original value.
    clone_map: dict[int, list[Node]] = field(default_factory=dict)
    #: originals that were replicated (ids).
    source_ids: set[int] = field(default_factory=set)
    unroll_factor: int = 1

    def op_count(self) -> int:
        return sum(b.op_count() for b in self.blocks)


def is_stop_block(block: Block) -> bool:
    """Blocks a region DFS must not cross: other region entries, blocks
    performing non-inlined calls, and method exits."""
    term = block.terminator
    if term is None:
        return True
    if term.kind is Kind.REGION_BEGIN:
        return True
    if term.kind is Kind.RETURN:
        return True
    return any(op.kind in (Kind.CALL, Kind.VCALL) for op in block.ops)


def interpose_region_entry(graph: Graph, boundary: Block) -> Block:
    """Create the aregion_begin block in front of ``boundary``.

    The boundary's phis move into the new block (they are exactly the values
    live on entry to both the speculative and the recovery version), every
    edge into the boundary is re-pointed at the new block, and a
    REGION_BEGIN terminator is installed with both successors temporarily
    aimed at the (non-speculative) boundary block.
    """
    begin = graph.new_block(src_pc=boundary.src_pc)
    begin.count = boundary.count
    begin.inline_ctx = boundary.inline_ctx

    # Move phis: node identity is preserved, so all uses remain valid.
    begin.phis = boundary.phis
    for phi in begin.phis:
        phi.block = begin
    boundary.phis = []

    # Move incoming edges wholesale: preds entries and phi operands already
    # align, so a pointer swap suffices.
    begin.preds = boundary.preds
    boundary.preds = []
    for pred, succ_index in begin.preds:
        pred.succs[succ_index] = begin

    rid = graph.fresh_region_id()
    term = Node(Kind.REGION_BEGIN, region_id=rid)
    graph.set_terminator(begin, term, [boundary, boundary])
    boundary.region_entry = begin
    boundary.is_recovery = True
    return begin


def cold_edge_fn(threshold: float):
    """Edge-coldness predicate from branch profiles (paper: bias < 1%)."""

    def cold(block: Block, succ_index: int) -> bool:
        term = block.terminator
        if term is None or len(block.succs) < 2:
            return False
        counts = term.attrs.get("edge_counts")
        if counts is None:
            return False
        total = sum(counts)
        if total <= 0:
            return False
        return counts[succ_index] / total < threshold

    return cold


def collect_region_blocks(
    boundary: Block,
    cold_edge,
    max_ops: float,
) -> list[Block]:
    """Step-3 DFS from ``boundary`` along warm edges, bounded by ``max_ops``."""
    visited = [boundary]
    seen = {boundary.id}
    budget = boundary.op_count()
    stack = [boundary]
    while stack:
        block = stack.pop()
        for index, succ in enumerate(block.succs):
            if succ.id in seen:
                continue
            if cold_edge(block, index):
                continue
            if is_stop_block(succ):
                continue
            if budget + succ.op_count() > max_ops:
                continue  # best-effort bound: excess becomes a region exit
            seen.add(succ.id)
            budget += succ.op_count()
            visited.append(succ)
            stack.append(succ)
    return visited


def _clone_node(node: Node) -> Node:
    clone = Node(node.kind, [], bytecode_pc=node.bytecode_pc, **dict(node.attrs))
    return clone


class _RegionBuilder:
    """Builds the replicated body of one region (possibly unrolled)."""

    def __init__(
        self,
        graph: Graph,
        info: RegionInfo,
        body: list[Block],
        cold_edge,
        preserve_edge=None,
    ) -> None:
        self.graph = graph
        self.info = info
        self.body = body
        self.body_ids = {b.id for b in body}
        self.cold_edge = cold_edge
        #: predicate (block, succ_index) -> bool: keep this cold edge as a
        #: region exit instead of an assert.  Used for structural loop
        #: exits, which are individually cold (bias ~ 1/trip-count) but are
        #: taken once per loop execution — asserting them would charge one
        #: abort per loop, which the paper's per-iteration regions do not.
        self.preserve_edge = preserve_edge or (lambda block, index: False)

    # -- region-local dominance ---------------------------------------------
    def surviving_edges(self, block: Block) -> list[int]:
        """Successor indexes of ``block`` that the clone will retain."""
        term = block.terminator
        if term is None:
            return []
        if term.kind is Kind.JUMP:
            return [0]
        assert term.kind is Kind.BRANCH
        cold0 = self.cold_edge(block, 0) and not self.preserve_edge(block, 0)
        cold1 = self.cold_edge(block, 1) and not self.preserve_edge(block, 1)
        if cold0 and cold1:
            return [0] if block.edge_count_to(0) >= block.edge_count_to(1) else [1]
        out = []
        if not cold0:
            out.append(0)
        if not cold1:
            out.append(1)
        return out

    def _compute_region_dominance(self) -> None:
        """Dominators of the region subgraph rooted at the boundary.

        Needed because a region may begin mid-loop: values defined in the
        body but *after* the entry in region order are live-ins at the
        entry, so cloned uses earlier in region order must keep referencing
        the originals.
        """
        from ..ir.dom import DomTree, _compute_idom

        boundary = self.body[0]
        succs_of: dict[int, list[Block]] = {}
        preds_of: dict[int, list[Block]] = {b.id: [] for b in self.body}
        for block in self.body:
            internal = [
                block.succs[i]
                for i in self.surviving_edges(block)
                if block.succs[i].id in self.body_ids
            ]
            succs_of[block.id] = internal
        for block in self.body:
            for succ in succs_of[block.id]:
                preds_of[succ.id].append(block)

        # RPO of the region subgraph from the boundary.
        seen = {boundary.id}
        post: list[Block] = []
        stack: list[tuple[Block, int]] = [(boundary, 0)]
        while stack:
            block, child = stack[-1]
            succs = succs_of[block.id]
            if child < len(succs):
                stack[-1] = (block, child + 1)
                nxt = succs[child]
                if nxt.id not in seen:
                    seen.add(nxt.id)
                    stack.append((nxt, 0))
            else:
                stack.pop()
                post.append(block)
        order = list(reversed(post))
        self._region_tree = DomTree(_compute_idom(order, preds_of), order)
        self._region_reachable = seen

    def region_dominates(self, a: Block, b: Block) -> bool:
        if a.id not in self._region_reachable or b.id not in self._region_reachable:
            return False
        return self._region_tree.dominates(a, b)

    def build_copy(self, seed_map: dict[int, Node]) -> tuple[Block, dict[int, Node]]:
        """Clone the body once.  ``seed_map`` pre-maps values flowing in
        (used to thread loop-carried values between unrolled copies).

        Returns (entry_clone, value_map).  Back edges to the region's own
        entry are routed to placeholder stubs recorded in
        ``self.pending_back_edges`` so the caller can chain or close them.
        """
        graph, info = self.graph, self.info
        if not hasattr(self, "_region_tree"):
            self._compute_region_dominance()
        mapping: dict[int, Node] = dict(seed_map)
        block_map: dict[int, Block] = {}
        #: original node id -> its original block, for dominance decisions.
        src_block: dict[int, Block] = {}

        for original in self.body:
            clone = graph.new_block(src_pc=original.src_pc)
            clone.region_id = info.region_id
            clone.inline_ctx = original.inline_ctx
            clone.count = original.count
            block_map[original.id] = clone
            info.blocks.append(clone)

        # Clone phis and ops (operands resolved afterwards).
        cloned_pairs: list[tuple[Node, Node, Block]] = []
        for original in self.body:
            clone_block = block_map[original.id]
            for phi in original.phis:
                cphi = Node(Kind.PHI)
                cphi.block = clone_block
                clone_block.phis.append(cphi)
                mapping[phi.id] = cphi
                src_block[phi.id] = original
            for op in original.ops:
                cop = _clone_node(op)
                clone_block.append(cop)
                mapping[op.id] = cop
                src_block[op.id] = original
                cloned_pairs.append((op, cop, original))

        def resolve_at(value: Node, use_block: Block) -> Node:
            """Clone reference iff the def precedes the use in region order;
            otherwise the original value is the live-in at region entry."""
            mapped = mapping.get(value.id)
            if mapped is None:
                return value
            defined_in = src_block.get(value.id)
            if defined_in is None:
                return mapped  # seed entry (unroll threading): always valid
            if defined_in is use_block or self.region_dominates(defined_in, use_block):
                return mapped
            return value

        for op, cop, original in cloned_pairs:
            cop.operands = [resolve_at(v, original) for v in op.operands]

        self.pending_back_edges: list[tuple[Block, list[Node]]] = []
        for original in self.body:
            self._wire_block(original, block_map, mapping, resolve_at)

        # Record this copy's clones for SSA repair.
        for oid, clone in mapping.items():
            if oid not in seed_map:
                info.clone_map.setdefault(oid, []).append(clone)
        return block_map[self.body[0].id], mapping

    # -- per-block edge wiring --------------------------------------------
    def _wire_block(self, original, block_map, mapping, resolve) -> None:
        graph, info = self.graph, self.info
        clone_block = block_map[original.id]
        term = original.terminator
        kind = term.kind

        if kind is Kind.JUMP:
            cterm = _clone_node(term)
            cterm.operands = [resolve(v, original) for v in term.operands]
            graph.set_terminator(clone_block, cterm, [])
            self._link_edge(original, 0, clone_block, block_map, resolve)
            return

        assert kind is Kind.BRANCH, f"unexpected terminator {kind} in region body"
        surviving = self.surviving_edges(original)

        if len(surviving) == 2:
            cterm = _clone_node(term)
            cterm.operands = [resolve(v, original) for v in term.operands]
            graph.set_terminator(clone_block, cterm, [])
            self._link_edge(original, 0, clone_block, block_map, resolve)
            self._link_edge(original, 1, clone_block, block_map, resolve)
            return

        # One side is cold: Step 4 — the branch becomes an assert that
        # fires when control *would have* left the hot path.
        cold_index = 1 - surviving[0]
        cond = term.attrs["cond"] if cold_index == 0 else NEGATE[term.attrs["cond"]]
        abort_id = next(_abort_ids)
        assert_node = Node(
            Kind.ASSERT,
            [resolve(v, original) for v in term.operands],
            bytecode_pc=term.bytecode_pc,
            cond=cond,
            abort_id=abort_id,
        )
        clone_block.append(assert_node)
        info.asserts.append(
            AssertSite(assert_node, abort_id, term.bytecode_pc, info.region_id)
        )
        graph.set_terminator(
            clone_block, Node(Kind.JUMP, bytecode_pc=term.bytecode_pc), []
        )
        self._link_edge(original, surviving[0], clone_block, block_map, resolve)

    def _link_edge(self, original, succ_index, clone_block, block_map, resolve):
        """Wire one surviving out-edge of a cloned block."""
        graph, info = self.graph, self.info
        succ = original.succs[succ_index]
        values = self._edge_phi_values(original, succ_index, succ, resolve)

        internal = block_map.get(succ.id)
        if internal is not None:
            graph._link(clone_block, internal, phi_values=values)
            return
        if succ is info.begin_block:
            # Back edge to this region's own entry: per-iteration region.
            # Link to a placeholder stub immediately (preserving successor
            # order), and defer its target: chained into the next copy when
            # unrolling, otherwise closed with an AREGION_END commit.
            stub = graph.new_block(src_pc=clone_block.src_pc)
            stub.region_id = info.region_id
            stub.count = clone_block.count
            graph._link(clone_block, stub)
            info.blocks.append(stub)
            self.pending_back_edges.append((stub, values))
            return
        self._emit_exit_stub(clone_block, succ, values)

    def _edge_phi_values(self, original, succ_index, succ, resolve):
        for pos, (pred, idx) in enumerate(succ.preds):
            if pred is original and idx == succ_index:
                return [resolve(phi.operands[pos], original) for phi in succ.phis]
        raise AssertionError("original edge missing during replication")

    def _emit_exit_stub(self, clone_block, target, values):
        """AREGION_END + jump to non-speculative (or next-region) code."""
        graph, info = self.graph, self.info
        stub = graph.new_block(src_pc=clone_block.src_pc)
        stub.region_id = info.region_id
        stub.count = clone_block.count
        stub.append(Node(Kind.AREGION_END))
        graph._link(clone_block, stub)
        graph.set_terminator(stub, Node(Kind.JUMP), [])
        graph._link(stub, target, phi_values=values)
        info.blocks.append(stub)
        info.exit_stubs.append(stub)

    def close_back_edges(self) -> None:
        """Close pending back edges: commit, then re-enter the begin block
        (each loop iteration is its own atomic region)."""
        graph, info = self.graph, self.info
        for stub, values in self.pending_back_edges:
            stub.append(Node(Kind.AREGION_END))
            graph.set_terminator(stub, Node(Kind.JUMP), [])
            graph._link(stub, info.begin_block, phi_values=values)
            info.exit_stubs.append(stub)
        self.pending_back_edges = []

    def back_edge_seed_map(self) -> dict[int, Node]:
        """Seed map for the next unrolled copy: begin-phi -> value carried
        by the (single) back edge of the current copy."""
        (stub, values), = self.pending_back_edges
        return {
            phi.id: value
            for phi, value in zip(self.info.begin_block.phis, values)
        }


def replicate_region(
    graph: Graph,
    boundary: Block,
    cold_edge,
    max_ops: float,
    min_ops: float,
    unroll_limit: int = 1,
    target_ops: float = 200.0,
    preserve_edge=None,
) -> RegionInfo | None:
    """Steps 3+4 (and partial unrolling) for one selected boundary.

    ``boundary`` must already have its region entry interposed.  Returns
    None (and removes the interposed entry is left harmless) when the region
    would be trivially small.
    """
    begin = boundary.region_entry
    assert begin is not None, "interpose_region_entry must run first"

    body = collect_region_blocks(boundary, cold_edge, max_ops)
    body_ops = sum(b.op_count() for b in body)
    if body_ops < min_ops:
        return None

    rid = begin.terminator.attrs["region_id"]
    info = RegionInfo(
        region_id=rid,
        begin_block=begin,
        original_entry=boundary,
        entry_copy=boundary,  # replaced below
        source_ids={b.id for b in body},
    )
    info.begin_block = begin
    builder = _RegionBuilder(graph, info, body, cold_edge, preserve_edge)

    # Decide the unroll factor: only for per-iteration loop regions with a
    # single back edge, sized so K copies stay near the target R.
    entry_clone, _mapping = builder.build_copy({})
    copies = 1
    if unroll_limit > 1 and body_ops > 0:
        desired = int(target_ops // max(body_ops, 1))
        factor = max(1, min(unroll_limit, desired))
        while copies < factor and len(builder.pending_back_edges) == 1:
            seed = builder.back_edge_seed_map()
            # The values threaded into the next copy are additional
            # definitions of the begin-phi variables: SSA repair must merge
            # them into any use after the region (they are the variable's
            # value after this copy's iteration).
            for phi, value in zip(begin.phis, seed.values()):
                if value is not phi:
                    info.clone_map.setdefault(phi.id, []).append(value)
            pending = builder.pending_back_edges
            next_entry, _mapping = builder.build_copy(seed)
            stub, _values = pending[0]
            graph.set_terminator(stub, Node(Kind.JUMP), [])
            graph._link(stub, next_entry)
            # build_copy reset pending_back_edges to the new copy's edges.
            copies += 1

    builder.close_back_edges()
    info.unroll_factor = copies
    info.entry_copy = entry_clone

    # Point the speculative successor of the begin block at the first copy.
    graph.replace_succ(begin, 0, entry_clone)
    for original in body:
        original.is_recovery = True
    return info
