"""The guest heap: addressed objects and arrays.

Objects carry a simulated byte address so the hardware layer (caches,
atomic-region read/write sets, conflict detection) can operate on cache
lines, exactly as the paper's hardware tracks the data footprint of an
atomic region in the L1 (§3.3, §6.2).

Layout model (word = 8 bytes):

- object: ``base .. base+16`` header (class word + lock word), then one word
  per field slot;
- array:  ``base .. base+16`` header, ``base+16`` length word, elements from
  ``base+24``.

Allocation is bump-pointer and 16-byte aligned; there is no collector — the
paper's evaluation never depends on GC, only on safepoint *polling* cost,
which is modeled in the compiler.
"""

from __future__ import annotations

import copy
from typing import Union

from .errors import BoundsError, NullPointerError, VMError
from .locks import LockWord

OBJECT_HEADER_BYTES = 16
ARRAY_HEADER_BYTES = 24  # 16-byte header + 8-byte length word
WORD_BYTES = 8

#: Guest values are 64-bit-ish integers or references (or None for null).
Value = Union[int, "GuestObject", "GuestArray", None]

#: types of the values an array can hold without holding a reference.
_SCALAR_TYPES = frozenset({int, type(None)})


class GuestObject:
    """An instance of a guest class: a flat slot array plus a lock word."""

    __slots__ = ("class_name", "slots", "field_index", "base", "lock")

    def __init__(
        self,
        class_name: str,
        field_index: dict[str, int],
        base: int,
    ) -> None:
        self.class_name = class_name
        self.field_index = field_index
        self.slots: list[Value] = [0] * len(field_index)
        self.base = base
        self.lock = LockWord()

    def get(self, fieldname: str) -> Value:
        try:
            return self.slots[self.field_index[fieldname]]
        except KeyError:
            raise VMError(
                f"class {self.class_name!r} has no field {fieldname!r}"
            ) from None

    def put(self, fieldname: str, value: Value) -> None:
        try:
            self.slots[self.field_index[fieldname]] = value
        except KeyError:
            raise VMError(
                f"class {self.class_name!r} has no field {fieldname!r}"
            ) from None

    def field_address(self, fieldname: str) -> int:
        return self.base + OBJECT_HEADER_BYTES + self.field_index[fieldname] * WORD_BYTES

    def lock_address(self) -> int:
        """Address of the lock word (second header word)."""
        return self.base + WORD_BYTES

    def size_bytes(self) -> int:
        return OBJECT_HEADER_BYTES + len(self.slots) * WORD_BYTES

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self.class_name}@{self.base:#x}>"


class GuestArray:
    """A guest array of values (ints or references)."""

    __slots__ = ("values", "base")

    def __init__(self, length: int, base: int) -> None:
        if length < 0:
            raise VMError(f"negative array length {length}")
        self.values: list[Value] = [0] * length
        self.base = base

    @property
    def length(self) -> int:
        return len(self.values)

    def load(self, index: int) -> Value:
        if not 0 <= index < len(self.values):
            raise BoundsError(index, len(self.values))
        return self.values[index]

    def store(self, index: int, value: Value) -> None:
        if not 0 <= index < len(self.values):
            raise BoundsError(index, len(self.values))
        self.values[index] = value

    def element_address(self, index: int) -> int:
        return self.base + ARRAY_HEADER_BYTES + index * WORD_BYTES

    def length_address(self) -> int:
        return self.base + OBJECT_HEADER_BYTES

    def size_bytes(self) -> int:
        return ARRAY_HEADER_BYTES + len(self.values) * WORD_BYTES

    def __deepcopy__(self, memo: dict) -> "GuestArray":
        """An array of ints and nulls copies as a list slice; one that
        holds references goes through ``memo``, so an object reachable
        twice is one object in the copy."""
        new = GuestArray.__new__(GuestArray)
        memo[id(self)] = new
        values = self.values
        if all(map(_SCALAR_TYPES.__contains__, map(type, values))):
            new.values = values[:]
        else:
            new.values = copy.deepcopy(values, memo)
        new.base = self.base
        return new

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<array[{len(self.values)}]@{self.base:#x}>"


def require_object(ref: Value) -> GuestObject:
    if ref is None:
        raise NullPointerError("null object dereference")
    if not isinstance(ref, GuestObject):
        raise VMError(f"expected object reference, got {type(ref).__name__}")
    return ref


def require_array(ref: Value) -> GuestArray:
    if ref is None:
        raise NullPointerError("null array dereference")
    if not isinstance(ref, GuestArray):
        raise VMError(f"expected array reference, got {type(ref).__name__}")
    return ref


class Heap:
    """Bump-pointer allocator handing out addressed objects and arrays.

    The heap keeps its allocation log (every live object, in allocation
    order).  Atomic regions use :meth:`mark` / :meth:`rollback_to` to undo
    allocations made inside an aborted region — on real hardware the bump
    pointer and object initialization are just speculative stores, so an
    abort erases them; modeling that keeps the post-abort heap bit-identical
    to a non-speculative execution, which :meth:`fingerprint` checks.
    """

    BASE_ADDRESS = 0x10_0000

    def __init__(self) -> None:
        self._cursor = self.BASE_ADDRESS
        self.objects_allocated = 0
        self.arrays_allocated = 0
        self.bytes_allocated = 0
        self.allocations: list[Union[GuestObject, GuestArray]] = []
        #: LL/SC reservation station: tid -> reserved byte address.  One
        #: reservation per hardware thread, killed by any *other* thread's
        #: committed store to the same cache line (see
        #: :meth:`kill_reservations`).  Microarchitectural state: it is
        #: deliberately NOT part of :meth:`fingerprint`.
        self.reservations: dict[int, int] = {}

    # -- LL/SC reservations ---------------------------------------------------
    def set_reservation(self, tid: int, address: int) -> None:
        self.reservations[tid] = address

    def clear_reservation(self, tid: int) -> None:
        self.reservations.pop(tid, None)

    def check_reservation(self, tid: int, address: int) -> bool:
        return self.reservations.get(tid) == address

    def kill_reservations(self, tid: int, address: int, line_shift: int) -> None:
        """A committed store by ``tid`` kills every OTHER thread's
        reservation on the same cache line (own reservations survive own
        stores, like most LL/SC ISAs at line granularity)."""
        line = address >> line_shift
        doomed = [
            t for t, reserved in self.reservations.items()
            if t != tid and (reserved >> line_shift) == line
        ]
        for t in doomed:
            del self.reservations[t]

    def _bump(self, size: int) -> int:
        base = self._cursor
        aligned = (size + 15) & ~15
        self._cursor += aligned
        self.bytes_allocated += aligned
        return base

    def new_object(self, class_name: str, field_index: dict[str, int]) -> GuestObject:
        size = OBJECT_HEADER_BYTES + len(field_index) * WORD_BYTES
        obj = GuestObject(class_name, field_index, self._bump(size))
        self.objects_allocated += 1
        self.allocations.append(obj)
        return obj

    def new_array(self, length: int) -> GuestArray:
        size = ARRAY_HEADER_BYTES + length * WORD_BYTES
        arr = GuestArray(length, self._bump(size))
        self.arrays_allocated += 1
        self.allocations.append(arr)
        return arr

    # -- speculative allocation rollback ------------------------------------
    def mark(self) -> tuple:
        """Snapshot of the allocator state at a region entry."""
        return (
            self._cursor,
            self.objects_allocated,
            self.arrays_allocated,
            self.bytes_allocated,
            len(self.allocations),
        )

    def rollback_to(self, mark: tuple) -> None:
        """Discard every allocation made since ``mark`` (abort path)."""
        (self._cursor, self.objects_allocated, self.arrays_allocated,
         self.bytes_allocated, count) = mark
        del self.allocations[count:]

    def discard_speculative(self, mark: tuple, allocs: list) -> None:
        """Retract exactly the allocations in ``allocs`` (an aborted
        region's speculative allocations, in allocation order).

        Single-threaded, every allocation since ``mark`` belongs to the
        aborting region, so the whole allocator state — cursor included —
        rewinds to the mark, bit-identical to the old behaviour.  Under the
        deterministic scheduler, *other* guest threads may have allocated
        since the mark; a blanket rewind would destroy their live objects,
        so only the region's own allocations are unlinked (the bump cursor
        is not rewound — on real hardware the other thread's bump advanced
        it past the mark anyway, so those addresses are simply never
        reused).
        """
        count = mark[4]
        if len(self.allocations) - count == len(allocs):
            self.rollback_to(mark)
            return
        doomed = {id(x) for x in allocs}
        self.allocations = [x for x in self.allocations if id(x) not in doomed]
        for x in allocs:
            if isinstance(x, GuestObject):
                self.objects_allocated -= 1
            else:
                self.arrays_allocated -= 1
            self.bytes_allocated -= (x.size_bytes() + 15) & ~15

    # -- differential state checks ------------------------------------------
    def fingerprint(self) -> tuple:
        """Canonical image of the whole heap, in allocation order.

        References are canonicalized to allocation indexes, so two heaps
        built by semantically identical executions compare equal regardless
        of host object identity.  Lock words contribute their architectural
        (owner, depth) state — a rolled-back monitor operation must leave
        them exactly as a non-speculative run would.
        """
        index = {id(x): i for i, x in enumerate(self.allocations)}

        def canon(value):
            if isinstance(value, (GuestObject, GuestArray)):
                return ("ref", index[id(value)])
            return value

        items = []
        for x in self.allocations:
            if isinstance(x, GuestObject):
                items.append((
                    "obj", x.class_name,
                    tuple(canon(v) for v in x.slots),
                    x.lock.owner, x.lock.depth,
                ))
            else:
                items.append(("arr", tuple(canon(v) for v in x.values)))
        return tuple(items)

    def locks_quiescent(self) -> bool:
        """True when every monitor on the heap is released (owner-free)."""
        return all(
            x.lock.owner is None and x.lock.depth == 0
            for x in self.allocations if isinstance(x, GuestObject)
        )
