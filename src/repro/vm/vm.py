"""The tiered virtual machine: profiling interpreter + optimizing compiler
+ simulated hardware.

Execution starts in the tier-0 interpreter, which gathers the profiles the
tier-1 compiler consumes.  Methods whose invocation count crosses the
compile threshold are compiled (per the active :class:`CompilerConfig`) and
subsequently run on the simulated machine, including their atomic regions.

For deterministic experiments, the harness drives the tiers explicitly:
``warm_up`` interprets until profiles exist, ``compile_hot`` installs
machine code, ``start_measurement`` resets the statistics and the timing
model, and the measured calls then run on the final code, exactly like the
paper's marker-delimited samples.

Warm-up is pure tier-0 work, so its outcome is a :class:`WarmState` that
does not depend on the compiler or hardware config: a VM of any
configuration can start from a private copy of it.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

from ..faults import FaultInjector, FaultPlan
from ..hw.config import BASELINE_4WIDE, HardwareConfig
from ..hw.machine import Machine
from ..hw.stats import ExecStats
from ..hw.timing import INTERPRETER_CYCLES_PER_BYTECODE, TimingModel
from ..lang.bytecode import Method, Program
from ..lang.validate import validate_program
from ..obs.tracer import NULL_TRACER
from ..runtime.errors import VMError
from ..runtime.heap import Heap, Value
from ..runtime.interpreter import Interpreter
from ..runtime.profile import ProfileStore
from ..runtime.sched import DeterministicScheduler, SchedulePlan
from .compiler import CompilationRecord, CompilerConfig, NO_ATOMIC, compile_method


@dataclass
class VMOptions:
    compile_threshold: int = 10
    enable_timing: bool = True
    #: machine dispatch: "auto" (template-jit fused code, the reference
    #: loop under a scheduler) or "interpretive" (always the reference
    #: loop, the tests' oracle).  A host-speed knob only; see
    #: :class:`repro.hw.machine.Machine`.
    dispatch: str = "auto"


@dataclass(frozen=True)
class WarmState:
    """Everything tier-0 warm-up leaves behind.

    The program, the heap the warm-up calls allocated, the profiles they
    gathered and the interpreter's counters.  A fresh VM starts from an
    empty state.  The objects are live: the VM that produced or received a
    state keeps mutating them, so another VM starts from :meth:`copy`.
    """

    program: Program
    heap: Heap = field(default_factory=Heap)
    profiles: ProfileStore = field(default_factory=ProfileStore)
    bytecodes_executed: int = 0
    safepoints_polled: int = 0

    def copy(self) -> "WarmState":
        """A private deep copy, sharing no mutable object with ``self``.

        One ``deepcopy`` call covers every field, so references between
        them (heap objects' field layouts are the program's) stay shared
        within the copy.  Heap arrays of ints and nulls, nearly all of
        the copied words, copy as list slices (``GuestArray.__deepcopy__``).
        """
        return copy.deepcopy(self)


class TieredVM:
    """One guest program + one compiler config + one hardware config.

    ``program`` is either a freshly built program or a :class:`WarmState`
    to start from; the VM takes ownership of the state's objects.
    """

    def __init__(
        self,
        program: Program | WarmState,
        compiler_config: CompilerConfig = NO_ATOMIC,
        hw_config: HardwareConfig = BASELINE_4WIDE,
        options: VMOptions | None = None,
        fault_plan: FaultPlan | None = None,
        fault_injector: FaultInjector | None = None,
        validate: bool = True,
        tracer=None,
    ) -> None:
        warm = program if isinstance(program, WarmState) else WarmState(program)
        program = warm.program
        if validate:
            validate_program(program)
        self.program = program
        self.compiler_config = compiler_config
        self.hw_config = hw_config
        self.options = options if options is not None else VMOptions()
        #: region-lifecycle tracer shared by the machine, the scheduler,
        #: the fault injector, and the adaptive controller.  Defaults to
        #: the null tracer: one attribute check, zero emission.
        self.tracer = tracer if tracer is not None else NULL_TRACER

        self.heap = warm.heap
        self.profiles = warm.profiles
        self.stats = ExecStats()
        self.timing = TimingModel(hw_config) if self.options.enable_timing else None
        self.interpreter = Interpreter(
            program, heap=self.heap, profiles=self.profiles, dispatcher=self
        )
        self.interpreter.bytecodes_executed = warm.bytecodes_executed
        self.interpreter.safepoints_polled = warm.safepoints_polled
        if fault_injector is not None and fault_plan is not None:
            raise VMError("pass either fault_plan or fault_injector, not both")
        if fault_injector is None and fault_plan is not None:
            fault_injector = FaultInjector(fault_plan)
        self.fault_injector = fault_injector
        self.machine = Machine(
            program,
            self.heap,
            config=hw_config,
            stats=self.stats,
            timing=self.timing,
            dispatcher=self,
            fault_injector=fault_injector,
            tracer=self.tracer,
            dispatch=self.options.dispatch,
        )
        self.compiled: dict[str, CompilationRecord] = {}
        #: per-method branch pcs barred from assert conversion (§7 adaptive).
        self.blocked_asserts: dict[str, set[int]] = {}
        self._measuring = False
        #: True while :meth:`warm_up` runs: no method compiles.
        self._warming = False
        self._interp_bytecodes_at_start = 0
        self.compilations = 0

    # -- dispatch -----------------------------------------------------------
    def run(self, entry: str | None = None, args: list[Value] | None = None) -> Value:
        name = entry if entry is not None else self.program.entry
        if name is None:
            raise VMError("program has no entry point")
        method = self.program.resolve_static(name)
        return self.invoke(method, list(args or []))

    def invoke(self, method: Method, args: list[Value]) -> Value:
        qualified = method.qualified_name
        record = self.compiled.get(qualified)
        if record is not None:
            return self.machine.execute(record.compiled, args)
        if (
            not self._warming
            and self.profiles.method(qualified).invocations
            >= self.options.compile_threshold
        ):
            record = self.compile(method)
            return self.machine.execute(record.compiled, args)
        return self.interpreter.invoke(method, args)

    # -- compilation ---------------------------------------------------------
    def compile(self, method: Method) -> CompilationRecord:
        qualified = method.qualified_name
        blocked = frozenset(self.blocked_asserts.get(qualified, ()))
        record = compile_method(
            self.program, method, self.profiles, self.compiler_config,
            blocked_asserts=blocked,
        )
        previous = self.compiled.get(qualified)
        if previous is not None:
            # Forward-progress patches are durable decisions, not artifacts
            # of one code object: a region that exhausted its abort budget
            # must not resume speculating just because the method was
            # recompiled (adaptively or otherwise).  Carry every surviving
            # region's patch onto the new code.
            for region_id in sorted(previous.compiled.disabled_regions):
                if region_id in record.compiled.region_entries:
                    record.compiled.disable_region(region_id)
        self.compiled[qualified] = record
        # Build the machine's dispatch table (a compile-on-first-entry
        # stub per fused run) at install time.  Each run's host compile
        # happens on its first entry, so the first sweep that reaches a
        # run pays for it.
        self.machine.prepare(record.compiled)
        self.compilations += 1
        if self.tracer.enabled:
            # Tier transition: this method leaves the interpreter for the
            # machine (blocked_asserts > 0 marks an adaptive recompile).
            self.tracer.tier_compile(
                self.machine.uops_executed, qualified, len(blocked),
            )
        return record

    def compile_hot(self, min_invocations: int | None = None) -> list[str]:
        """Compile every sufficiently-invoked method; returns their names."""
        threshold = (
            min_invocations
            if min_invocations is not None
            else self.options.compile_threshold
        )
        names = []
        for method in self.program.all_methods():
            qualified = method.qualified_name
            if qualified in self.compiled:
                continue
            if qualified in self.profiles and (
                self.profiles.method(qualified).invocations >= threshold
            ):
                self.compile(method)
                names.append(qualified)
        return names

    def recompile(self, qualified: str, extra_blocked: set[int]) -> None:
        """Adaptive recompilation: bar the given branch pcs from asserts."""
        self.blocked_asserts.setdefault(qualified, set()).update(extra_blocked)
        method = self._find_method(qualified)
        self.compile(method)

    def _find_method(self, qualified: str) -> Method:
        for method in self.program.all_methods():
            if method.qualified_name == qualified:
                return method
        raise KeyError(qualified)

    # -- multi-threaded execution ---------------------------------------------
    def run_threads(
        self,
        calls: list,
        plan: SchedulePlan | None = None,
    ) -> DeterministicScheduler:
        """Run several guest calls as concurrently-scheduled guest threads.

        ``calls`` is a list of ``(entry, args)`` or ``(entry, args, name)``
        tuples; each becomes one guest thread invoking the named static
        method.  The threads are interleaved by a
        :class:`DeterministicScheduler` seeded from ``plan`` — at most one
        runs at any instant, at switch points drawn from the plan's PRNG, so
        the whole run replays bit-for-bit from the seed.  While attached,
        the scheduler doubles as the coherence fabric: committed stores are
        checked against in-flight atomic regions' read/write sets and
        genuine overlaps abort those regions with reason ``"conflict"``.

        Returns the scheduler: per-thread results/errors are on
        ``sched.threads`` and the interleaving on ``sched.trace``.  The
        first guest error (or a :class:`DeadlockError`) is re-raised after
        the wind-down.  Concurrency counters fold into :attr:`stats`.
        """
        sched = DeterministicScheduler(plan)
        sched.line_shift = self.hw_config.line_shift
        sched.tracer = self.tracer
        self.machine.sched = sched
        self.interpreter.sched = sched
        try:
            for index, call in enumerate(calls):
                entry, args = call[0], call[1]
                name = call[2] if len(call) > 2 else f"{entry}#{index}"
                method = self.program.resolve_static(entry)
                sched.spawn(
                    lambda m=method, a=list(args): self.invoke(m, list(a)),
                    name=name,
                )
            sched.run()
        finally:
            self.machine.sched = None
            self.interpreter.sched = None
            self.stats.context_switches += sched.context_switches
            self.stats.contended_acquisitions += sched.contended_acquisitions
            for thread in sched.threads:
                self.stats.uops_by_thread[thread.tid] += thread.steps
        return sched

    # -- measurement protocol ---------------------------------------------------
    def warm_up(self, entry: str, args_list: list[list[Value]]) -> WarmState:
        """Interpret the workload to build profiles (no stats recorded).

        Auto-compilation is suspended: warm-up is a pure tier-0 profiling
        phase, so no method's profile is frozen mid-warm-up with only a
        handful of branch samples (which would misclassify warm edges as
        cold and create spurious asserts).  Before anything is compiled,
        every call therefore runs on the interpreter, which never reads the
        compiler or hardware config, the timing model, the fault injector
        or the tracer: the returned state (live, not a copy) can seed a VM
        of any configuration.
        """
        method = self.program.resolve_static(entry)
        self._warming = True
        try:
            for args in args_list:
                self.interpreter.invoke(method, list(args))
        finally:
            self._warming = False
        return WarmState(
            self.program, self.heap, self.profiles,
            self.interpreter.bytecodes_executed,
            self.interpreter.safepoints_polled,
        )

    def start_measurement(self) -> None:
        """Begin a timing sample: fresh statistics and timing state."""
        self.stats = ExecStats()
        self.machine.stats = self.stats
        if self.options.enable_timing:
            self.timing = TimingModel(self.hw_config)
            self.machine.timing = self.timing
        self._interp_bytecodes_at_start = self.interpreter.bytecodes_executed
        self._measuring = True

    def end_measurement(self) -> ExecStats:
        """Close the sample; interpreter work is charged to the cycle count."""
        interp_bytecodes = (
            self.interpreter.bytecodes_executed - self._interp_bytecodes_at_start
        )
        self.stats.interpreter_bytecodes = interp_bytecodes
        if self.timing is not None:
            self.timing.add_interpreter_cycles(interp_bytecodes)
            self.stats.cycles = self.timing.cycles
        else:
            self.stats.cycles = float(
                self.stats.uops_retired
                + interp_bytecodes * INTERPRETER_CYCLES_PER_BYTECODE
            )
        self._measuring = False
        return self.stats
