"""Tier-0 profiling interpreter.

Plays the role of the DRLVM first-pass execution tier: it runs bytecode
directly, and "inserts instrumentation to profile program behaviors (e.g.,
branches, virtual calls)" (paper §4).  Everything region formation consumes
— block execution counts, branch biases, receiver histograms — is gathered
here.

Calls dispatch through a pluggable ``dispatcher`` so the tiered VM
(:mod:`repro.vm`) can substitute compiled code for hot callees; standalone,
the interpreter dispatches to itself.

Each method is decoded once per interpreter: every bytecode's opcode is
resolved to its *handler*, a module-level function that applies the
instruction to the activation's registers and returns the next pc (-1
after a return).  The loop in :meth:`Interpreter.invoke` keeps what is per
bytecode and not per opcode — the scheduler step, block counts, the
counters and the fuel check — and calls the pc's handler, so it looks up
no opcode and walks no chain of opcode tests.
"""

from __future__ import annotations

import operator
from typing import Callable, Protocol

from ..lang.bytecode import Method, Op, Program
from .errors import GuestArithmeticError, MonitorStateError, VMError
from .heap import Heap, Value, require_array, require_object
from .locks import MAIN_THREAD
from .profile import ProfileStore
from .sched import DEFAULT_LINE_SHIFT

INT_BITS = 64
_INT_MIN = -(1 << (INT_BITS - 1))
_INT_MAX = ~_INT_MIN
_INT_MASK = (1 << INT_BITS) - 1


def wrap_int(value: int) -> int:
    """Wrap a Python int to signed 64-bit two's-complement."""
    value &= _INT_MASK
    return value if value <= _INT_MAX else value - (1 << INT_BITS)


def guest_div(a: int, b: int) -> int:
    """Java-style integer division: truncates toward zero, traps on zero."""
    if b == 0:
        raise GuestArithmeticError("division by zero")
    q = abs(a) // abs(b)
    return wrap_int(-q if (a < 0) != (b < 0) else q)


def guest_mod(a: int, b: int) -> int:
    """Java-style remainder: sign follows the dividend, traps on zero."""
    if b == 0:
        raise GuestArithmeticError("remainder by zero")
    return wrap_int(a - guest_div(a, b) * b)


def compare(cond: str, a: Value, b: Value) -> bool:
    """Evaluate a branch condition on two guest values.

    References compare by identity and support only eq/ne, like Java's
    ``if_acmpeq``; integers support the full set.
    """
    a_ref = not isinstance(a, int)
    b_ref = not isinstance(b, int)
    if a_ref or b_ref:
        if cond == "eq":
            return a is b if (a_ref and b_ref) else (a is None and b == 0) or (b is None and a == 0)
        if cond == "ne":
            return not compare("eq", a, b)
        raise VMError(f"condition {cond!r} applied to a reference")
    if cond == "lt":
        return a < b
    if cond == "le":
        return a <= b
    if cond == "gt":
        return a > b
    if cond == "ge":
        return a >= b
    if cond == "eq":
        return a == b
    if cond == "ne":
        return a != b
    raise VMError(f"unknown condition {cond!r}")


class Dispatcher(Protocol):
    """Anything that can run a guest method to completion."""

    def invoke(self, method: Method, args: list[Value]) -> Value: ...


def block_leaders(method: Method) -> frozenset[int]:
    """Bytecode pcs that start a basic block (entry, targets, fallthroughs)."""
    leaders = {0}
    for pc, instr in enumerate(method.instrs):
        if instr.op in (Op.JMP, Op.BR):
            leaders.add(instr.target)
        if instr.op in (Op.JMP, Op.BR, Op.RET) and pc + 1 < len(method.instrs):
            leaders.add(pc + 1)
    return frozenset(leaders)


#: The code of one opcode: ``handler(interp, instr, pc, regs, prof, tid)``
#: applies ``instr`` to the activation's registers and returns the next
#: pc, or -1 after storing the return value in the extra last register.
Handler = Callable[..., int]

#: ``compare`` on two ints, per condition (``_br``'s fast path).
_INT_COMPARE = {
    "lt": operator.lt, "le": operator.le, "gt": operator.gt,
    "ge": operator.ge, "eq": operator.eq, "ne": operator.ne,
}

#: binary arithmetic; its handler wraps the result to 64 bits.
_BINARY = {
    Op.ADD: operator.add, Op.SUB: operator.sub, Op.MUL: operator.mul,
    Op.DIV: guest_div, Op.MOD: guest_mod, Op.AND: operator.and_,
    Op.OR: operator.or_, Op.XOR: operator.xor,
    Op.SHL: lambda x, y: x << (y & 63), Op.SHR: lambda x, y: x >> (y & 63),
}


class Interpreter:
    """Executes bytecode while recording profiles.

    ``fuel`` bounds the total number of bytecodes executed across the
    interpreter's lifetime, so broken guest programs fail tests instead of
    hanging them.
    """

    def __init__(
        self,
        program: Program,
        heap: Heap | None = None,
        profiles: ProfileStore | None = None,
        dispatcher: Dispatcher | None = None,
        fuel: int | None = None,
    ) -> None:
        self.program = program
        self.heap = heap if heap is not None else Heap()
        self.profiles = profiles if profiles is not None else ProfileStore()
        self.dispatcher: Dispatcher = dispatcher if dispatcher is not None else self
        self.fuel = fuel
        self.bytecodes_executed = 0
        self.safepoints_polled = 0
        #: deterministic guest scheduler (attached by TieredVM.run_threads);
        #: None keeps the interpreter single-threaded.
        self.sched = None
        #: id(method) -> (handlers, block leaders), built on first invocation.
        self._decoded: dict[int, tuple[list[Handler], frozenset[int]]] = {}

    # -- entry points -------------------------------------------------------
    def run(self, entry: str | None = None, args: list[Value] | None = None) -> Value:
        """Invoke a static method by name (defaults to the program entry)."""
        name = entry if entry is not None else self.program.entry
        if name is None:
            raise VMError("program has no entry point")
        method = self.program.resolve_static(name)
        return self.invoke(method, list(args or []))

    def invoke(self, method: Method, args: list[Value]) -> Value:
        """Execute one method activation and return its result."""
        if len(args) != method.num_params:
            raise VMError(
                f"{method.qualified_name}: expected {method.num_params} args, "
                f"got {len(args)}"
            )
        prof = self.profiles.method(method.qualified_name)
        prof.invocations += 1
        instrs = method.instrs
        handlers, leaders = self._decode(method)

        # One register past the frame receives the return value.
        regs: list[Value] = [0] * (max(method.num_regs, method.num_params) + 1)
        regs[: len(args)] = args
        pc = 0
        block_counts = prof.block_counts
        fuel = self.fuel
        sched = self.sched
        # One activation runs on exactly one guest thread's host thread.
        tid = (sched.current.tid
               if sched is not None and sched.current is not None
               else MAIN_THREAD)
        while pc >= 0:
            if sched is not None:
                sched.on_step()
            if pc in leaders:
                block_counts[pc] += 1
            handler = handlers[pc]
            self.bytecodes_executed += 1
            prof.bytecodes_executed += 1
            if fuel is not None and self.bytecodes_executed > fuel:
                raise VMError("interpreter fuel exhausted (guest loop?)")
            pc = handler(self, instrs[pc], pc, regs, prof, tid)
        return regs[-1]

    # -- decoding -------------------------------------------------------------
    def _decode(self, method: Method) -> tuple[list[Handler], frozenset[int]]:
        key = id(method)
        decoded = self._decoded.get(key)
        if decoded is None:
            handlers = [_HANDLERS[instr.op] for instr in method.instrs]
            decoded = self._decoded[key] = (handlers, block_leaders(method))
        return decoded

    def _published(self, tid: int, address: int) -> None:
        """A committed guest store: it kills other threads' LL/SC
        reservations on its line and joins the scheduler's store log."""
        sched = self.sched
        if self.heap.reservations:
            self.heap.kill_reservations(
                tid, address,
                sched.line_shift if sched is not None else DEFAULT_LINE_SHIFT)
        if sched is not None and sched.logging:
            sched.note_store(address)




# -- handlers: (interpreter, instr, pc, regs, prof, tid) -> next pc -----------
def _const(interp, instr, pc, regs, prof, tid):
    regs[instr.dst] = instr.imm
    return pc + 1


def _const_null(interp, instr, pc, regs, prof, tid):
    regs[instr.dst] = None
    return pc + 1


def _mov(interp, instr, pc, regs, prof, tid):
    regs[instr.dst] = regs[instr.a]
    return pc + 1


def _binary(fn):
    def handler(interp, instr, pc, regs, prof, tid):
        value = fn(regs[instr.a], regs[instr.b])
        regs[instr.dst] = (value if _INT_MIN <= value <= _INT_MAX
                           else wrap_int(value))
        return pc + 1
    return handler


def _jmp(interp, instr, pc, regs, prof, tid):
    return instr.target


def _br(interp, instr, pc, regs, prof, tid):
    x, y = regs[instr.a], regs[instr.b]
    on_ints = _INT_COMPARE.get(instr.cond)
    if on_ints is not None and type(x) is int and type(y) is int:
        taken = on_ints(x, y)
    else:
        taken = compare(instr.cond, x, y)
    bprof = prof.branch_at(pc)
    if taken:
        bprof.taken += 1
        return instr.target
    bprof.not_taken += 1
    return pc + 1


def _ret(interp, instr, pc, regs, prof, tid):
    regs[-1] = regs[instr.a] if instr.a is not None else None
    return -1


def _new(interp, instr, pc, regs, prof, tid):
    layout = interp.program.field_layout(instr.cls)
    regs[instr.dst] = interp.heap.new_object(instr.cls, layout)
    return pc + 1


def _newarr(interp, instr, pc, regs, prof, tid):
    regs[instr.dst] = interp.heap.new_array(regs[instr.a])
    return pc + 1


def _getf(interp, instr, pc, regs, prof, tid):
    regs[instr.dst] = require_object(regs[instr.a]).get(instr.fieldname)
    return pc + 1


def _putf(interp, instr, pc, regs, prof, tid):
    obj = require_object(regs[instr.a])
    obj.put(instr.fieldname, regs[instr.b])
    if interp.heap.reservations or interp.sched is not None:
        interp._published(tid, obj.field_address(instr.fieldname))
    return pc + 1


def _aload(interp, instr, pc, regs, prof, tid):
    regs[instr.dst] = require_array(regs[instr.a]).load(regs[instr.b])
    return pc + 1


def _astore(interp, instr, pc, regs, prof, tid):
    arr = require_array(regs[instr.a])
    arr.store(regs[instr.b], regs[instr.c])
    if interp.heap.reservations or interp.sched is not None:
        interp._published(tid, arr.element_address(regs[instr.b]))
    return pc + 1


def _alen(interp, instr, pc, regs, prof, tid):
    regs[instr.dst] = require_array(regs[instr.a]).length
    return pc + 1


def _faa(interp, instr, pc, regs, prof, tid):
    # One bytecode, one on_step: indivisible under the cooperative
    # scheduler, which is the whole point.
    obj = require_object(regs[instr.a])
    old = obj.get(instr.fieldname)
    obj.put(instr.fieldname, wrap_int(old + regs[instr.b]))
    regs[instr.dst] = old
    interp._published(tid, obj.field_address(instr.fieldname))
    return pc + 1


def _cas(interp, instr, pc, regs, prof, tid):
    obj = require_object(regs[instr.a])
    ok = compare("eq", obj.get(instr.fieldname), regs[instr.b])
    regs[instr.dst] = 1 if ok else 0
    if ok:
        obj.put(instr.fieldname, regs[instr.c])
        interp._published(tid, obj.field_address(instr.fieldname))
    return pc + 1


def _ll(interp, instr, pc, regs, prof, tid):
    obj = require_object(regs[instr.a])
    regs[instr.dst] = obj.get(instr.fieldname)
    interp.heap.set_reservation(tid, obj.field_address(instr.fieldname))
    return pc + 1


def _sc(interp, instr, pc, regs, prof, tid):
    obj = require_object(regs[instr.a])
    address = obj.field_address(instr.fieldname)
    ok = interp.heap.check_reservation(tid, address)
    interp.heap.clear_reservation(tid)
    regs[instr.dst] = 1 if ok else 0
    if ok:
        obj.put(instr.fieldname, regs[instr.b])
        interp._published(tid, address)
    return pc + 1


def _call(interp, instr, pc, regs, prof, tid):
    callee = interp.program.resolve_static(instr.method)
    call_args = [regs[r] for r in instr.args]
    regs[instr.dst] = interp.dispatcher.invoke(callee, call_args)
    return pc + 1


def _vcall(interp, instr, pc, regs, prof, tid):
    receiver = require_object(regs[instr.a])
    prof.call_site_at(pc).receivers[receiver.class_name] += 1
    callee = interp.program.resolve_virtual(receiver.class_name, instr.method)
    call_args = [regs[r] for r in instr.args]
    regs[instr.dst] = interp.dispatcher.invoke(callee, call_args)
    return pc + 1


def _menter(interp, instr, pc, regs, prof, tid):
    obj = require_object(regs[instr.a])
    lock = obj.lock
    sched = interp.sched
    outcome = lock.enter(tid)
    if outcome == "blocked":
        if sched is None:
            raise MonitorStateError(
                f"monitor owned by thread {lock.owner} contended "
                f"by thread {tid} with no scheduler attached"
            )
        # Park until the owner releases, then re-contend (Mesa).
        while outcome == "blocked":
            sched.block_on(lock)
            outcome = lock.enter(tid)
        lock.contended_acquisitions += 1
        sched.contended_acquisitions += 1
    if sched is not None and sched.logging:
        sched.note_store(obj.lock_address())
    return pc + 1


def _mexit(interp, instr, pc, regs, prof, tid):
    obj = require_object(regs[instr.a])
    obj.lock.exit(tid)
    sched = interp.sched
    if sched is not None:
        if obj.lock.waiters:
            sched.wake_all(obj.lock)
        if sched.logging:
            sched.note_store(obj.lock_address())
    return pc + 1


def _safepoint(interp, instr, pc, regs, prof, tid):
    interp.safepoints_polled += 1
    return pc + 1


def _nop(interp, instr, pc, regs, prof, tid):
    return pc + 1


_HANDLERS: dict[Op, Handler] = {
    Op.CONST: _const, Op.CONST_NULL: _const_null, Op.MOV: _mov,
    **{op: _binary(fn) for op, fn in _BINARY.items()},
    Op.JMP: _jmp, Op.BR: _br, Op.RET: _ret,
    Op.NEW: _new, Op.NEWARR: _newarr,
    Op.GETF: _getf, Op.PUTF: _putf,
    Op.ALOAD: _aload, Op.ASTORE: _astore, Op.ALEN: _alen,
    Op.FAA: _faa, Op.CAS: _cas, Op.LL: _ll, Op.SC: _sc,
    Op.CALL: _call, Op.VCALL: _vcall,
    Op.MENTER: _menter, Op.MEXIT: _mexit,
    Op.SAFEPOINT: _safepoint, Op.NOP: _nop,
}
