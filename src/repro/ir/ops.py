"""IR node definitions.

The compiler IR is an SSA control-flow graph.  Every operation is a
:class:`Node`; value-producing nodes *are* their value (operands reference
producing nodes directly), which is the cheapest faithful model of the
def-use chains a real optimizing JVM IR maintains.

Design points taken from the paper:

- Safety checks (``CHECK_NULL``, ``CHECK_BOUNDS``, ``CHECK_DIV0``,
  ``CHECK_CLASS``) are explicit, side-effect-free operations, so redundancy
  elimination can deduplicate them like arithmetic.
- ``ASSERT`` — the atomic-region replacement for a cold branch — is "a
  simple operation that has only source operands and no side effects, like
  an ALU operation that produces no value" (§4).  Passes other than DCE can
  ignore it entirely.
- ``AREGION_END`` commits the current region; region *entry* is a block
  terminator (see :mod:`repro.ir.cfg`) because it forks control between the
  speculative body and the non-speculative recovery code.
"""

from __future__ import annotations

import enum
import itertools
from typing import Any


class Kind(enum.Enum):
    """IR operation kinds."""

    # Pure value producers.
    CONST = enum.auto()          # attrs: imm
    CONST_NULL = enum.auto()
    CONST_CLASS = enum.auto()    # attrs: cls   (a class metadata reference)
    PARAM = enum.auto()          # attrs: index
    PHI = enum.auto()            # operands aligned with block.preds order
    ADD = enum.auto()
    SUB = enum.auto()
    MUL = enum.auto()
    DIV = enum.auto()            # value op; guarded by CHECK_DIV0
    MOD = enum.auto()
    AND = enum.auto()
    OR = enum.auto()
    XOR = enum.auto()
    SHL = enum.auto()
    SHR = enum.auto()
    CLASSOF = enum.auto()        # class metadata of a non-null reference
    ALEN = enum.auto()           # array length (immutable after allocation)

    # Memory reads (subject to kills by stores/calls).
    GETFIELD = enum.auto()       # operands: obj;       attrs: field
    ALOAD = enum.auto()          # operands: arr, idx

    # Allocation (side effect: observable identity, never removed if used;
    # unused allocations are removable — our guest has no finalizers).
    NEW = enum.auto()            # attrs: cls
    NEWARR = enum.auto()         # operands: length

    # Calls (side effects; kill all memory facts).
    CALL = enum.auto()           # operands: args;  attrs: method
    VCALL = enum.auto()          # operands: receiver+args; attrs: method

    # Memory writes.
    PUTFIELD = enum.auto()       # operands: obj, value; attrs: field
    ASTORE = enum.auto()         # operands: arr, idx, value

    # Atomic read-modify-write primitives (value-producing effects: they
    # both read and write memory in one indivisible uop, so they are never
    # CSE'd, hoisted, or removed, and they kill every memory fact).
    FAA = enum.auto()            # operands: obj, delta;          attrs: field
    CAS = enum.auto()            # operands: obj, expected, new;  attrs: field
    LL = enum.auto()             # operands: obj;                 attrs: field
    SC = enum.auto()             # operands: obj, value;          attrs: field

    # Safety checks: pure predicates that trap (or, inside an atomic
    # region, abort) when violated.
    CHECK_NULL = enum.auto()     # operands: ref
    CHECK_BOUNDS = enum.auto()   # operands: length, index
    CHECK_DIV0 = enum.auto()     # operands: divisor
    CHECK_CLASS = enum.auto()    # operands: classof-value; attrs: cls

    # Synchronization.
    MONITOR_ENTER = enum.auto()  # operands: obj
    MONITOR_EXIT = enum.auto()   # operands: obj
    SLE_ENTER = enum.auto()      # operands: obj — elided monitor entry:
                                 # load lock word, verify not held by another
                                 # thread, abort region otherwise (§4 SLE)

    # Atomic-region operations.
    ASSERT = enum.auto()         # operands: a, b; attrs: cond, abort_id —
                                 # aborts the region when cond(a, b) is TRUE
    AREGION_END = enum.auto()    # commit the current region

    # Misc effects.
    SAFEPOINT = enum.auto()      # GC yield poll (load + branch in codegen)

    # Block terminators.
    BRANCH = enum.auto()         # operands: a, b; attrs: cond; succs: [taken, fallthrough]
    JUMP = enum.auto()           # succs: [target]
    RETURN = enum.auto()         # operands: value (optional; may be empty)
    REGION_BEGIN = enum.auto()   # succs: [speculative_entry, recovery_entry]
                                 # attrs: region_id


#: Kinds that produce an SSA value.
VALUE_KINDS = frozenset({
    Kind.CONST, Kind.CONST_NULL, Kind.CONST_CLASS, Kind.PARAM, Kind.PHI,
    Kind.ADD, Kind.SUB, Kind.MUL, Kind.DIV, Kind.MOD, Kind.AND, Kind.OR,
    Kind.XOR, Kind.SHL, Kind.SHR, Kind.CLASSOF, Kind.ALEN, Kind.GETFIELD,
    Kind.ALOAD, Kind.NEW, Kind.NEWARR, Kind.CALL, Kind.VCALL,
    Kind.FAA, Kind.CAS, Kind.LL, Kind.SC,
})

#: Pure kinds: value depends only on operands; no side effects; cannot be
#: killed by stores.  (ALEN is pure because array lengths are immutable;
#: CLASSOF because object classes are immutable.)
PURE_KINDS = frozenset({
    Kind.CONST, Kind.CONST_NULL, Kind.CONST_CLASS, Kind.PARAM,
    Kind.ADD, Kind.SUB, Kind.MUL, Kind.DIV, Kind.MOD, Kind.AND, Kind.OR,
    Kind.XOR, Kind.SHL, Kind.SHR, Kind.CLASSOF, Kind.ALEN,
})

#: Checks: pure predicates over SSA values; trap/abort when violated.
CHECK_KINDS = frozenset({
    Kind.CHECK_NULL, Kind.CHECK_BOUNDS, Kind.CHECK_DIV0, Kind.CHECK_CLASS,
})

#: Memory-reading kinds, killable by stores/calls/region boundaries.
LOAD_KINDS = frozenset({Kind.GETFIELD, Kind.ALOAD})

#: Kinds with side effects that anchor them in place (never moved/removed).
EFFECT_KINDS = frozenset({
    Kind.CALL, Kind.VCALL, Kind.PUTFIELD, Kind.ASTORE, Kind.MONITOR_ENTER,
    Kind.MONITOR_EXIT, Kind.SLE_ENTER, Kind.ASSERT, Kind.AREGION_END,
    Kind.SAFEPOINT, Kind.FAA, Kind.CAS, Kind.LL, Kind.SC,
})

#: Atomic read-modify-write kinds (value-producing AND effectful).
ATOMIC_KINDS = frozenset({Kind.FAA, Kind.CAS, Kind.LL, Kind.SC})

#: Terminator kinds.
TERMINATOR_KINDS = frozenset({
    Kind.BRANCH, Kind.JUMP, Kind.RETURN, Kind.REGION_BEGIN,
})

#: Binary integer arithmetic kinds.
ARITH_KINDS = frozenset({
    Kind.ADD, Kind.SUB, Kind.MUL, Kind.DIV, Kind.MOD, Kind.AND, Kind.OR,
    Kind.XOR, Kind.SHL, Kind.SHR,
})

#: Commutative arithmetic kinds (for value-numbering canonicalization).
COMMUTATIVE_KINDS = frozenset({Kind.ADD, Kind.MUL, Kind.AND, Kind.OR, Kind.XOR})

_node_ids = itertools.count()


class Node:
    """One IR operation; value-producing nodes double as their SSA value."""

    __slots__ = ("id", "kind", "operands", "attrs", "block", "bytecode_pc")

    def __init__(
        self,
        kind: Kind,
        operands: list["Node"] | tuple["Node", ...] = (),
        bytecode_pc: int | None = None,
        **attrs: Any,
    ) -> None:
        self.id = next(_node_ids)
        self.kind = kind
        self.operands: list[Node] = list(operands)
        self.attrs: dict[str, Any] = attrs
        self.block = None  # set when appended to a block
        self.bytecode_pc = bytecode_pc

    # -- attribute accessors -------------------------------------------------
    @property
    def imm(self) -> int:
        return self.attrs["imm"]

    @property
    def cond(self) -> str:
        return self.attrs["cond"]

    @property
    def field(self) -> str:
        return self.attrs["field"]

    @property
    def cls(self) -> str:
        return self.attrs["cls"]

    @property
    def method(self) -> str:
        return self.attrs["method"]

    def is_value(self) -> bool:
        return self.kind in VALUE_KINDS

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        extra = ""
        if self.attrs:
            extra = " " + " ".join(f"{k}={v}" for k, v in self.attrs.items())
        ops = ", ".join(f"n{o.id}" for o in self.operands)
        return f"n{self.id}:{self.kind.name}({ops}){extra}"
