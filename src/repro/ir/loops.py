"""Natural-loop analysis.

Region formation (paper Algorithm 1) consumes loops in two ways: it
"processes loops from innermost to outermost" when placing per-iteration
region boundaries, and it evaluates ``LOOPWEIGHT`` (Algorithm 2) — the
dynamic path length through the loop — to decide whether a loop iteration
is too large to encapsulate whole.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cfg import Block, Graph
from .dom import DomTree, dominator_tree


@dataclass
class Loop:
    """One natural loop: a header and the set of blocks that reach it."""

    header: Block
    blocks: set[int] = field(default_factory=set)       # block ids
    block_list: list[Block] = field(default_factory=list)
    back_edges: list[tuple[Block, int]] = field(default_factory=list)
    parent: "Loop | None" = None
    children: list["Loop"] = field(default_factory=list)

    @property
    def depth(self) -> int:
        depth, cursor = 0, self.parent
        while cursor is not None:
            depth += 1
            cursor = cursor.parent
        return depth

    def preheader_candidates(self) -> list[Block]:
        """Predecessors of the header from outside the loop."""
        return [
            p for p in self.header.pred_blocks() if p.id not in self.blocks
        ]

    def trip_estimate(self) -> float:
        """Average iterations per entry, from profile counts."""
        entries = sum(
            p.edge_count_to(i)
            for p in self.preheader_candidates()
            for i, s in enumerate(p.succs)
            if s is self.header
        )
        if entries <= 0:
            return self.header.count
        return self.header.count / entries

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Loop header={self.header} blocks={len(self.blocks)}>"


class LoopForest:
    """All natural loops of a graph, nested."""

    def __init__(self, loops: list[Loop], loop_of_block: dict[int, Loop]) -> None:
        self.loops = loops
        #: innermost loop containing each block id.
        self.loop_of_block = loop_of_block

    def in_postorder(self) -> list[Loop]:
        """Innermost-to-outermost order (paper: LOOPSINPOSTORDER)."""
        roots = [l for l in self.loops if l.parent is None]
        out: list[Loop] = []

        def visit(loop: Loop) -> None:
            for child in loop.children:
                visit(child)
            out.append(loop)

        for root in roots:
            visit(root)
        return out

    def innermost(self, block: Block) -> Loop | None:
        return self.loop_of_block.get(block.id)


def find_loops(graph: Graph, tree: DomTree | None = None) -> LoopForest:
    """Discover natural loops via back edges (tail dominated by head)."""
    if tree is None:
        tree = dominator_tree(graph)
    order = tree.order
    reachable = {b.id for b in order}

    # Group back edges by header.
    headers: dict[int, Loop] = {}
    for block in order:
        for index, succ in enumerate(block.succs):
            if succ.id in reachable and tree.dominates(succ, block):
                loop = headers.get(succ.id)
                if loop is None:
                    loop = headers[succ.id] = Loop(header=succ)
                loop.back_edges.append((block, index))

    # Populate bodies: backward walk from each back-edge tail to the header.
    by_id = {b.id: b for b in order}
    for loop in headers.values():
        loop.blocks = {loop.header.id}
        worklist = [tail for tail, _ in loop.back_edges]
        while worklist:
            block = worklist.pop()
            if block.id in loop.blocks or block.id not in reachable:
                continue
            loop.blocks.add(block.id)
            worklist.extend(block.pred_blocks())
        loop.block_list = [by_id[i] for i in loop.blocks if i in by_id]

    # Nest loops: a loop is a child of the smallest loop strictly containing
    # its header (and itself being a different loop).
    loops = sorted(headers.values(), key=lambda l: len(l.blocks))
    for i, inner in enumerate(loops):
        for outer in loops[i + 1:]:
            if outer is not inner and inner.header.id in outer.blocks:
                inner.parent = outer
                outer.children.append(inner)
                break

    # Innermost loop per block.
    loop_of_block: dict[int, Loop] = {}
    for loop in loops:  # smallest first, so first assignment wins
        for block_id in loop.blocks:
            loop_of_block.setdefault(block_id, loop)
    return LoopForest(loops, loop_of_block)


def loop_weight(loop: Loop) -> float:
    """Paper Algorithm 2 LOOPWEIGHT: sum of exec_count * ops over the body."""
    return sum(block.count * block.op_count() for block in loop.block_list)


def loop_path_length(loop: Loop) -> float:
    """Dynamic ops per loop *entry* (LOOPWEIGHT / preheader count, Alg. 1)."""
    entries = sum(
        p.edge_count_to(i)
        for p in loop.preheader_candidates()
        for i, s in enumerate(p.succs)
        if s is loop.header
    )
    weight = loop_weight(loop)
    if entries <= 0:
        # Never-entered or entry counts unavailable: treat the whole weight
        # as one path so cold loops are not misclassified as small.
        return weight
    return weight / entries
