"""Atomic region formation: the paper's §4, Steps 1–5 and Algorithm 1.

The caller performs Step 1 (aggressive inlining) via
:class:`repro.opt.Inliner`; :func:`form_regions` then runs:

- Step 2 — boundary selection (Algorithm 1): per-iteration boundaries at
  large/call-bearing loop headers, pruning (un-inlining) of methods that
  cannot be fully encapsulated, and acyclic boundary placement along
  dominant paths minimizing Equation 1;
- Step 3 — region replication with ``aregion_begin`` / ``aregion_end``;
- Step 4 — cold branches inside regions become asserts (in replication);
- Step 5 — remaining inlined methods are restored to calls on the
  non-speculative paths;
- SSA repair for values flowing out of committed regions.

The three invariants the paper states are maintained: regions are bounded
(LOOPPATHTHRESHOLD = R = 200 HIR ops), never nested (entries are stop
blocks for the DFS), and single-entry/multi-exit with arbitrary internal
control flow.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..ir.cfg import Block, Graph
from ..ir.loops import find_loops, loop_path_length
from ..ir.ops import Kind
from ..opt.inline import InlineResult, InlinedMethod, un_inline
from .boundaries import select_acyclic_boundaries
from .replicate import (
    RegionInfo,
    cold_edge_fn,
    interpose_region_entry,
    is_stop_block,
    replicate_region,
)
from .ssarepair import repair_ssa
from .trace import has_call_on_warm_path, trace_dominant_path


@dataclass
class FormationConfig:
    """Knobs.

    The paper sets LOOPPATHTHRESHOLD = R = 200 *high-level IR operations*,
    noting this "has a loose correspondence to the number of hardware
    instructions actually generated".  Our HIR is finer-grained (explicit
    checks, ALEN nodes, safepoints) and region optimization then removes a
    large fraction of the body, so R = 400 HIR ops lands the *retired-uop*
    region sizes in the paper's 30-230 range — the quantity Table 3 and
    §6.2 actually report.
    """

    loop_path_threshold: float = 400.0
    target_region_ops: float = 400.0          # R in Equation 1 (see note)
    cold_threshold: float = 0.01              # branch bias below 1% is cold
    max_region_ops: float = 1200.0            # DFS bound (best-effort hw)
    min_region_ops: float = 4.0               # skip trivial regions
    hot_seed_fraction: float = 0.01           # GETMAXBLOCKEXECCOUNT / 100
    unroll_limit: int = 6                     # partial loop unrolling cap
    enable_unroll: bool = True
    #: bytecode pcs of branches that must never become asserts — fed by
    #: adaptive recompilation after their asserts abort too frequently (§7).
    blocked_assert_pcs: frozenset = frozenset()
    #: drop regions that carry no speculation opportunity (no asserts, no
    #: monitor pairs): a region that removes no cold paths cannot pay for
    #: its begin/end overhead, so the compiler declines to form it.
    require_benefit: bool = True


@dataclass
class FormationResult:
    regions: list[RegionInfo] = field(default_factory=list)
    boundaries: list[Block] = field(default_factory=list)
    uninlined: list[str] = field(default_factory=list)
    phis_repaired: int = 0

def form_regions(
    graph: Graph,
    inline_result: InlineResult | None = None,
    config: FormationConfig | None = None,
) -> FormationResult:
    """Run region formation over an (already aggressively inlined) graph."""
    cfg = config if config is not None else FormationConfig()
    inlines = inline_result if inline_result is not None else InlineResult()
    result = FormationResult()
    cold = cold_edge_fn(cfg.cold_threshold)
    if cfg.blocked_assert_pcs:
        base_cold = cold
        blocked = cfg.blocked_assert_pcs

        def cold(block: Block, succ_index: int) -> bool:  # noqa: F811
            term = block.terminator
            if term is not None and term.bytecode_pc in blocked:
                return False
            return base_cold(block, succ_index)

    boundaries = _select_boundaries(graph, inlines, cfg, cold, result)
    boundaries = [
        b for b in boundaries
        if b is not graph.entry and not is_stop_block(b)
    ]
    result.boundaries = boundaries

    # Structural loop exits must stay region exits, not asserts, even when
    # their bias is below the cold threshold (a 300-trip loop's exit edge is
    # "cold" by bias yet taken once per loop execution).
    forest = find_loops(graph)
    loop_of = forest.loop_of_block

    def preserve_edge(block: Block, succ_index: int) -> bool:
        loop = loop_of.get(block.id)
        while loop is not None:
            if block.succs[succ_index].id not in loop.blocks:
                return True
            loop = loop.parent
        return False

    # Interpose every region entry first so that replication DFS sees other
    # regions' entries as stop blocks and exit stubs have stable targets.
    for boundary in boundaries:
        interpose_region_entry(graph, boundary)

    for boundary in boundaries:
        info = replicate_region(
            graph,
            boundary,
            cold,
            max_ops=cfg.max_region_ops,
            min_ops=cfg.min_region_ops,
            unroll_limit=cfg.unroll_limit if cfg.enable_unroll else 1,
            target_ops=cfg.target_region_ops,
            preserve_edge=preserve_edge,
        )
        if info is not None and (
            not cfg.require_benefit or _region_has_benefit(info)
        ):
            result.regions.append(info)
        else:
            _deinterpose(graph, boundary)

    # Step 5: restore calls for inlined methods on non-speculative paths.
    for im in inlines.by_innermost_first():
        if _still_inlined(graph, im):
            un_inline(graph, im)
            result.uninlined.append(im.callee.qualified_name)

    # SSA repair for values that escape committed regions.
    merged_clone_map: dict = {}
    for region in result.regions:
        for oid, clones in region.clone_map.items():
            merged_clone_map.setdefault(oid, []).extend(clones)
    if merged_clone_map:
        result.phis_repaired = repair_ssa(graph, merged_clone_map)

    graph.prune_unreachable()
    return result


# -- Algorithm 1 ------------------------------------------------------------

def _select_boundaries(graph, inlines, cfg, cold, result) -> list[Block]:
    selected: list[Block] = []
    selected_ids: set[int] = set()

    def select(block: Block) -> None:
        if block.id not in selected_ids:
            selected_ids.add(block.id)
            selected.append(block)

    # -- loops, innermost to outermost --------------------------------------
    forest = find_loops(graph)
    for loop in forest.in_postorder():
        blocks = {b.id for b in loop.block_list}
        has_warm_call = has_call_on_warm_path(loop.header, blocks, cold)
        path_length = loop_path_length(loop)
        if path_length >= cfg.loop_path_threshold or has_warm_call:
            select(loop.header)

    # -- prune inlined methods that cannot be encapsulated --------------------
    for im in inlines.by_innermost_first():
        if not _still_inlined(graph, im):
            continue
        im_blocks = im.blocks_of(graph)
        im_ids = {b.id for b in im_blocks}
        if not im_ids:
            continue
        has_warm_call = has_call_on_warm_path(im.entry_block, im_ids, cold) \
            if im.entry_block.id in im_ids else False
        has_selected_loop = bool(selected_ids & im_ids)
        if has_warm_call or has_selected_loop:
            un_inline(graph, im)
            result.uninlined.append(im.callee.qualified_name)
            # Drop any boundaries that lived inside the removed body.
            live = {b.id for b in graph.blocks}
            dead = [b for b in selected if b.id not in live]
            for b in dead:
                selected.remove(b)
                selected_ids.discard(b.id)

    # -- acyclic paths ---------------------------------------------------------
    forest = find_loops(graph)  # recompute: pruning may have changed the CFG
    trace_stops = {graph.entry.id}
    for block in graph.blocks:
        term = block.terminator
        if term is not None and term.kind is Kind.RETURN:
            trace_stops.add(block.id)
        if any(op.kind in (Kind.CALL, Kind.VCALL) for op in block.ops):
            trace_stops.add(block.id)

    max_count = max((b.count for b in graph.blocks), default=0.0)
    if max_count <= 0:
        return selected
    visited: set[int] = set()
    for block in sorted(graph.blocks, key=lambda b: b.count, reverse=True):
        if block.id in visited:
            continue
        if block.count < max_count * cfg.hot_seed_fraction:
            break  # sorted order: everything after is colder
        path = trace_dominant_path(block, selected_ids | trace_stops)
        chosen = select_acyclic_boundaries(path, forest, cfg.target_region_ops)
        for b in chosen:
            if b is not graph.entry:
                select(b)
        visited.update(b.id for b in path)
    return selected


def _region_has_benefit(info) -> bool:
    """A region is worth keeping when it speculates something: it asserted
    cold paths away, or it contains monitor pairs SLE can elide."""
    if info.asserts:
        return True
    for block in info.blocks:
        for op in block.ops:
            if op.kind is Kind.MONITOR_ENTER:
                return True
    return False


def _deinterpose(graph: Graph, boundary: Block) -> None:
    """Demote a skipped region's entry block to a plain forwarding block."""
    from ..ir.ops import Node

    begin = boundary.region_entry
    if begin is None:
        return
    graph.clear_terminator(begin)
    graph.set_terminator(begin, Node(Kind.JUMP), [boundary])
    boundary.region_entry = None
    boundary.is_recovery = False


def _still_inlined(graph: Graph, im: InlinedMethod) -> bool:
    """True when the inline is still in place (call block intact, body
    present, and the saved call not yet restored)."""
    if im.call_block not in graph.blocks:
        return False
    if im.saved_call.block is not None:
        return False  # already restored
    return any(b.inline_ctx[: len(im.ctx)] == im.ctx
               for b in graph.blocks
               if len(b.inline_ctx) >= len(im.ctx) and b.region_id is None)
