"""Fluent builders for constructing guest programs.

Workloads and tests author bytecode through :class:`MethodBuilder` /
:class:`ProgramBuilder` rather than hand-assembling :class:`Instr` lists.
The builder manages register allocation, label patching, and the lowering of
``synchronized`` methods into explicit monitor operations.

Example::

    pb = ProgramBuilder()
    m = pb.method("sum_to", params=("n",))
    n = m.param(0)
    total = m.const(0)
    i = m.const(0)
    m.label("head")
    m.br("ge", i, n, "done")
    m.add(total, total, i, dst=total)
    ...
"""

from __future__ import annotations

from .bytecode import (
    BINOPS,
    CONDITIONS,
    ClassDef,
    Instr,
    Method,
    Op,
    Program,
)


class Reg(int):
    """A register handle; a plain ``int`` subtype so instructions store ints."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"r{int(self)}"


class MethodBuilder:
    """Builds one :class:`Method` instruction-by-instruction.

    Branch targets are string labels; :meth:`build` patches them to
    instruction indices.  Every value-producing emitter returns the
    destination :class:`Reg` (freshly allocated unless ``dst`` is given), so
    straight-line code composes naturally.
    """

    def __init__(
        self,
        name: str,
        params: tuple[str, ...] | list[str] = (),
        owner: str | None = None,
        synchronized: bool = False,
    ) -> None:
        self.name = name
        self.owner = owner
        self.synchronized = synchronized
        self.param_names = tuple(params)
        self._next_reg = len(self.param_names)
        self._instrs: list[Instr] = []
        self._labels: dict[str, int] = {}
        self._fixups: list[tuple[int, str]] = []
        self._named: dict[str, Reg] = {
            pname: Reg(i) for i, pname in enumerate(self.param_names)
        }

    # -- registers --------------------------------------------------------
    def param(self, index: int) -> Reg:
        if not 0 <= index < len(self.param_names):
            raise IndexError(f"method {self.name!r} has no parameter {index}")
        return Reg(index)

    def var(self, name: str) -> Reg:
        """A named register, allocated on first use (parameters included)."""
        reg = self._named.get(name)
        if reg is None:
            reg = self.fresh()
            self._named[name] = reg
        return reg

    def fresh(self) -> Reg:
        reg = Reg(self._next_reg)
        self._next_reg += 1
        return reg

    # -- labels -----------------------------------------------------------
    def label(self, name: str) -> None:
        if name in self._labels:
            raise ValueError(f"label {name!r} bound twice in {self.name!r}")
        self._labels[name] = len(self._instrs)

    def _emit(self, instr: Instr, label: str | None = None) -> Instr:
        if label is not None:
            self._fixups.append((len(self._instrs), label))
        self._instrs.append(instr)
        return instr

    # -- data / arithmetic ------------------------------------------------
    def const(self, value: int, dst: Reg | None = None) -> Reg:
        dst = dst if dst is not None else self.fresh()
        self._emit(Instr(Op.CONST, dst=dst, imm=int(value)))
        return dst

    def const_null(self, dst: Reg | None = None) -> Reg:
        dst = dst if dst is not None else self.fresh()
        self._emit(Instr(Op.CONST_NULL, dst=dst))
        return dst

    def mov(self, src: Reg, dst: Reg | None = None) -> Reg:
        dst = dst if dst is not None else self.fresh()
        self._emit(Instr(Op.MOV, dst=dst, a=src))
        return dst

    def _binop(self, op: Op, a: Reg, b: Reg, dst: Reg | None) -> Reg:
        dst = dst if dst is not None else self.fresh()
        self._emit(Instr(op, dst=dst, a=a, b=b))
        return dst

    def add(self, a: Reg, b: Reg, dst: Reg | None = None) -> Reg:
        return self._binop(Op.ADD, a, b, dst)

    def sub(self, a: Reg, b: Reg, dst: Reg | None = None) -> Reg:
        return self._binop(Op.SUB, a, b, dst)

    def mul(self, a: Reg, b: Reg, dst: Reg | None = None) -> Reg:
        return self._binop(Op.MUL, a, b, dst)

    def div(self, a: Reg, b: Reg, dst: Reg | None = None) -> Reg:
        return self._binop(Op.DIV, a, b, dst)

    def mod(self, a: Reg, b: Reg, dst: Reg | None = None) -> Reg:
        return self._binop(Op.MOD, a, b, dst)

    def and_(self, a: Reg, b: Reg, dst: Reg | None = None) -> Reg:
        return self._binop(Op.AND, a, b, dst)

    def or_(self, a: Reg, b: Reg, dst: Reg | None = None) -> Reg:
        return self._binop(Op.OR, a, b, dst)

    def xor(self, a: Reg, b: Reg, dst: Reg | None = None) -> Reg:
        return self._binop(Op.XOR, a, b, dst)

    def shl(self, a: Reg, b: Reg, dst: Reg | None = None) -> Reg:
        return self._binop(Op.SHL, a, b, dst)

    def shr(self, a: Reg, b: Reg, dst: Reg | None = None) -> Reg:
        return self._binop(Op.SHR, a, b, dst)

    # -- control flow -----------------------------------------------------
    def jmp(self, label: str) -> None:
        self._emit(Instr(Op.JMP), label=label)

    def br(self, cond: str, a: Reg, b: Reg, label: str) -> None:
        if cond not in CONDITIONS:
            raise ValueError(f"bad condition {cond!r}")
        self._emit(Instr(Op.BR, cond=cond, a=a, b=b), label=label)

    def ret(self, value: Reg | None = None) -> None:
        self._emit(Instr(Op.RET, a=value))

    # -- heap ---------------------------------------------------------------
    def new(self, class_name: str, dst: Reg | None = None) -> Reg:
        dst = dst if dst is not None else self.fresh()
        self._emit(Instr(Op.NEW, dst=dst, cls=class_name))
        return dst

    def newarr(self, length: Reg, dst: Reg | None = None) -> Reg:
        dst = dst if dst is not None else self.fresh()
        self._emit(Instr(Op.NEWARR, dst=dst, a=length))
        return dst

    def getfield(self, obj: Reg, fieldname: str, dst: Reg | None = None) -> Reg:
        dst = dst if dst is not None else self.fresh()
        self._emit(Instr(Op.GETF, dst=dst, a=obj, fieldname=fieldname))
        return dst

    def putfield(self, obj: Reg, fieldname: str, src: Reg) -> None:
        self._emit(Instr(Op.PUTF, a=obj, b=src, fieldname=fieldname))

    def aload(self, arr: Reg, idx: Reg, dst: Reg | None = None) -> Reg:
        dst = dst if dst is not None else self.fresh()
        self._emit(Instr(Op.ALOAD, dst=dst, a=arr, b=idx))
        return dst

    def astore(self, arr: Reg, idx: Reg, src: Reg) -> None:
        self._emit(Instr(Op.ASTORE, a=arr, b=idx, c=src))

    def alen(self, arr: Reg, dst: Reg | None = None) -> Reg:
        dst = dst if dst is not None else self.fresh()
        self._emit(Instr(Op.ALEN, dst=dst, a=arr))
        return dst

    # -- atomic read-modify-write -------------------------------------------
    def faa(self, obj: Reg, fieldname: str, delta: Reg,
            dst: Reg | None = None) -> Reg:
        """Fetch-and-add: dst <- obj.field; obj.field <- dst + delta."""
        dst = dst if dst is not None else self.fresh()
        self._emit(Instr(Op.FAA, dst=dst, a=obj, b=delta, fieldname=fieldname))
        return dst

    def cas(self, obj: Reg, fieldname: str, expected: Reg, new: Reg,
            dst: Reg | None = None) -> Reg:
        """Compare-and-swap: dst <- 1 and store ``new`` iff the field still
        equals ``expected``, else dst <- 0."""
        dst = dst if dst is not None else self.fresh()
        self._emit(Instr(Op.CAS, dst=dst, a=obj, b=expected, c=new,
                         fieldname=fieldname))
        return dst

    def ll(self, obj: Reg, fieldname: str, dst: Reg | None = None) -> Reg:
        """Load-linked: dst <- obj.field, reserving the address for SC."""
        dst = dst if dst is not None else self.fresh()
        self._emit(Instr(Op.LL, dst=dst, a=obj, fieldname=fieldname))
        return dst

    def sc(self, obj: Reg, fieldname: str, value: Reg,
           dst: Reg | None = None) -> Reg:
        """Store-conditional: dst <- 1 and store ``value`` iff this thread's
        reservation on the address survived, else dst <- 0."""
        dst = dst if dst is not None else self.fresh()
        self._emit(Instr(Op.SC, dst=dst, a=obj, b=value, fieldname=fieldname))
        return dst

    # -- calls --------------------------------------------------------------
    def call(self, method: str, args: tuple[Reg, ...] = (), dst: Reg | None = None) -> Reg:
        dst = dst if dst is not None else self.fresh()
        self._emit(Instr(Op.CALL, dst=dst, method=method, args=tuple(args)))
        return dst

    def vcall(self, obj: Reg, method: str, args: tuple[Reg, ...] = (), dst: Reg | None = None) -> Reg:
        dst = dst if dst is not None else self.fresh()
        all_args = (obj, *args)
        self._emit(Instr(Op.VCALL, dst=dst, a=obj, method=method, args=all_args))
        return dst

    # -- synchronization / misc ----------------------------------------------
    def monitor_enter(self, obj: Reg) -> None:
        self._emit(Instr(Op.MENTER, a=obj))

    def monitor_exit(self, obj: Reg) -> None:
        self._emit(Instr(Op.MEXIT, a=obj))

    def safepoint(self) -> None:
        self._emit(Instr(Op.SAFEPOINT))

    def nop(self) -> None:
        self._emit(Instr(Op.NOP))

    # -- finalization ---------------------------------------------------------
    def build(self) -> Method:
        """Patch labels and return the finished :class:`Method`."""
        instrs = list(self._instrs)
        if not instrs or instrs[-1].op not in (Op.RET, Op.JMP):
            instrs.append(Instr(Op.RET))
        for index, label in self._fixups:
            try:
                instrs[index].target = self._labels[label]
            except KeyError:
                raise ValueError(
                    f"undefined label {label!r} in method {self.name!r}"
                ) from None
        if self.synchronized:
            instrs = _wrap_synchronized(instrs, len(self.param_names))
        method = Method(
            name=self.name,
            num_params=len(self.param_names),
            instrs=instrs,
            num_regs=max(self._next_reg, len(self.param_names)),
            owner=self.owner,
            synchronized=self.synchronized,
        )
        return method


def _wrap_synchronized(instrs: list[Instr], num_params: int) -> list[Instr]:
    """Bracket a method body with MENTER/MEXIT on the receiver (register 0).

    Mirrors how JVMs lower ``synchronized`` instance methods.  Every RET is
    preceded by an MEXIT; branch targets are re-patched for the prologue
    shift and for inserted exits.
    """
    if num_params == 0:
        raise ValueError("synchronized methods need a receiver parameter")
    # Compute new index for each old instruction: +1 for the prologue MENTER,
    # plus one extra slot for each preceding RET (which gains an MEXIT).
    new_index: list[int] = []
    offset = 1
    for instr in instrs:
        new_index.append(offset)
        offset += 2 if instr.op == Op.RET else 1

    out: list[Instr] = [Instr(Op.MENTER, a=0)]
    for instr in instrs:
        if instr.op == Op.RET:
            out.append(Instr(Op.MEXIT, a=0))
            out.append(instr)
        else:
            if instr.target is not None:
                instr.target = new_index[instr.target]
            out.append(instr)
    return out


class ProgramBuilder:
    """Builds a :class:`Program` from classes and methods."""

    def __init__(self) -> None:
        self.program = Program()
        self._pending: list[MethodBuilder] = []

    def cls(
        self,
        name: str,
        fields: tuple[str, ...] | list[str] = (),
        super_name: str | None = None,
    ) -> ClassDef:
        return self.program.add_class(
            ClassDef(name=name, fields=list(fields), super_name=super_name)
        )

    def method(
        self,
        name: str,
        params: tuple[str, ...] | list[str] = (),
        owner: str | None = None,
        synchronized: bool = False,
    ) -> MethodBuilder:
        builder = MethodBuilder(name, params=params, owner=owner, synchronized=synchronized)
        self._pending.append(builder)
        return builder

    def entry(self, name: str) -> None:
        self.program.entry = name

    def build(self) -> Program:
        for builder in self._pending:
            self.program.add_method(builder.build())
        self._pending.clear()
        if self.program.entry is None and "main" in self.program.methods:
            self.program.entry = "main"
        return self.program
