"""Pinned outputs of the tier-0 interpreter.

Region formation reads nothing but what tier-0 leaves behind, so the
interpreter's profiles, heap and counters are pinned exactly: each
registered workload sample's warm state right after ``warm_up``, the
bytecode count at which ``fuel`` runs out, and the per-thread steps and
context switches of scheduler-driven interpreted runs.  The expected
values were recorded with the if-chain interpreter this loop replaced;
any change to them is a change to every figure downstream.
"""

import hashlib

import pytest

from repro.lang.builder import ProgramBuilder
from repro.lang.bytecode import Op
from repro.runtime import Interpreter, VMError, interpreter
from repro.runtime.sched import SchedulePlan
from repro.vm import TieredVM, VMOptions
from repro.workloads import ALL_WORKLOADS, HSQLDB_THREADED, get_workload
from repro.workloads.contention import PRIMITIVES, contention_workload


def _sha(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def profile_image(profiles) -> list:
    """Every ``MethodProfile`` field, each dict in insertion order."""
    return [
        (name, prof.invocations, prof.bytecodes_executed,
         list(prof.block_counts.items()),
         [(pc, b.taken, b.not_taken) for pc, b in prof.branches.items()],
         [(pc, list(site.receivers.items()))
          for pc, site in prof.call_sites.items()])
        for name, prof in profiles._methods.items()
    ]


def warm_digest(state) -> str:
    return _sha((profile_image(state.profiles), state.heap.fingerprint(),
                 state.bytecodes_executed, state.safepoints_polled))


def warm_states(name):
    workload = get_workload(name)
    for sample in workload.samples:
        vm = TieredVM(workload.build(),
                      options=VMOptions(enable_timing=False))
        yield vm.warm_up(workload.entry,
                         [list(a) for a in sample.warm_args])


#: per-sample (bytecodes_executed, digest) right after warm-up.
WARM = {
    'antlr': [(463575, '89c490144f1b93f6')] * 4,
    'bloat': [(71785, 'b2d4bc1bcdb111be')] * 4,
    'fop': [(349485, '7bb7c7b9b27c79c2')] * 2,
    'hsqldb': [(31830, 'b8cf57dab6ca5e15')] * 1,
    'jython': [(414410, '861e646ec3e7dd68')] * 1,
    'pmd': [(165460, '3022e35d31ca15b2')] * 4,
    'xalan': [(164340, '4b25145a0d1445d0')] * 1,
}


@pytest.mark.parametrize("name", sorted(ALL_WORKLOADS))
def test_warm_state_matches_recorded(name):
    got = [(s.bytecodes_executed, warm_digest(s)) for s in warm_states(name)]
    assert got == WARM[name]


def spin_program():
    """``main(n)`` loops ``n`` times over a branch, a field bump and a
    virtual call; ``forever()`` never returns."""
    pb = ProgramBuilder()
    pb.cls("Box", fields=["v"])
    get = pb.method("get", params=("this",), owner="Box")
    g = get.getfield(get.param(0), "v")
    get.ret(g)
    m = pb.method("main", params=("n",))
    n = m.param(0)
    box = m.new("Box")
    i = m.const(0)
    one = m.const(1)
    m.label("head")
    m.br("ge", i, n, "done")
    v = m.vcall(box, "get", ())
    m.putfield(box, "v", m.add(v, one))
    m.add(i, one, dst=i)
    m.safepoint()
    m.jmp("head")
    m.label("done")
    m.ret(m.getfield(box, "v"))
    f = pb.method("forever", params=())
    z = f.const(0)
    f.label("top")
    f.safepoint()
    f.br("eq", z, z, "top")
    f.ret(z)
    return pb.build()


#: fuel -> (bytecodes_executed, safepoints_polled, profile digest) at the
#: raise, for ``main(1000)`` (which needs more than any of these).
FUEL = {
    1: (2, 0, '693b764331b1790f'),
    6: (7, 0, '65fcd8136ccde323'),
    7: (8, 0, '27b1230e58e1d0b4'),
    100: (101, 10, 'cbd54f60153a9aa4'),
    2503: (2504, 277, '13eb43884c3ca26e'),
}


@pytest.mark.parametrize("fuel", sorted(FUEL))
def test_fuel_runs_out_at_recorded_point(fuel):
    interp = Interpreter(spin_program(), fuel=fuel)
    with pytest.raises(VMError, match="fuel"):
        interp.run("main", [1000])
    assert (interp.bytecodes_executed, interp.safepoints_polled,
            _sha(profile_image(interp.profiles))) == FUEL[fuel]


def test_fuel_bounds_a_guest_loop():
    interp = Interpreter(spin_program(), fuel=500)
    with pytest.raises(VMError, match="fuel"):
        interp.run("forever")
    assert interp.bytecodes_executed == 501


def threaded_cases():
    cases = [(f"{scenario}-{primitive}",
              contention_workload(scenario, primitive, 3))
             for scenario in ("counter", "ticket", "msqueue")
             for primitive in PRIMITIVES]
    return cases + [("hsqldb", HSQLDB_THREADED)]


def interpreted_threads(workload, seed):
    """A threaded run on a fresh VM that compiles nothing: every step is
    a tier-0 bytecode."""
    vm = TieredVM(workload.build(), options=VMOptions(
        enable_timing=False, compile_threshold=1 << 30))
    shared = vm.run(workload.setup)
    sched = vm.run_threads(
        [(workload.worker, [shared, *args]) for args in workload.thread_args],
        plan=SchedulePlan(seed=seed, quantum=(1, 7)),
    )
    assert not vm.compiled
    return ([t.steps for t in sched.threads], sched.context_switches,
            vm.interpreter.bytecodes_executed,
            _sha(([t.result for t in sched.threads],
                  vm.heap.fingerprint(), profile_image(vm.profiles))))


#: case -> seed -> (steps per thread, context switches, bytecodes, digest).
THREADED = {
    'counter-cas': {
        0: ([47, 42, 42], 23, 133, 'a140961c0cb6f6cd'),
        1: ([42, 47, 42], 17, 133, 'a140961c0cb6f6cd'),
    },
    'counter-faa': {
        0: ([26, 26, 26], 14, 80, '975c8ad4fb9f7815'),
        1: ([26, 26, 26], 5, 80, '975c8ad4fb9f7815'),
    },
    'counter-llsc': {
        0: ([47, 42, 42], 23, 133, 'a140961c0cb6f6cd'),
        1: ([42, 47, 42], 17, 133, 'a140961c0cb6f6cd'),
    },
    'counter-lock': {
        0: ([54, 54, 54], 27, 164, '1dc3fdde8c5a3f36'),
        1: ([54, 54, 54], 29, 164, '1dc3fdde8c5a3f36'),
    },
    'hsqldb': {
        0: ([3247, 3247], 847, 6501, '7d2abcc7809b4cad'),
        1: ([3247, 3247], 867, 6501, '7d2abcc7809b4cad'),
    },
    'msqueue-cas': {
        0: ([70, 53, 53], 29, 198, '3bbe2f6e2e5589a1'),
        1: ([70, 61, 50], 21, 203, '1cd0cb3c679a5025'),
    },
    'msqueue-faa': {
        0: ([50, 53, 53], 27, 178, '2cdbefee793a9dd7'),
        1: ([50, 53, 46], 20, 171, '7f4d4dbe9cefd149'),
    },
    'msqueue-llsc': {
        0: ([70, 46, 90], 35, 228, 'bdc36463dee0e711'),
        1: ([70, 61, 50], 21, 203, '1cd0cb3c679a5025'),
    },
    'msqueue-lock': {
        0: ([70, 48, 48], 32, 188, '6c583e46e7e52ccb'),
        1: ([70, 76, 48], 32, 216, '303fe49f0e13a703'),
    },
    'ticket-cas': {
        0: ([136, 113, 167], 70, 418, '57a5e7e696f1f08c'),
        1: ([107, 155, 146], 61, 410, 'ac053687d069bd7a'),
    },
    'ticket-faa': {
        0: ([108, 111, 177], 66, 398, '832a97b168b5123e'),
        1: ([108, 156, 144], 61, 410, 'a5743273650a176d'),
    },
    'ticket-llsc': {
        0: ([136, 112, 167], 70, 417, 'c9b6694fb59ce518'),
        1: ([106, 173, 143], 64, 424, '61a40da6036d32a6'),
    },
    'ticket-lock': {
        0: ([59, 59, 59], 39, 179, 'dadcc483b59bdbc4'),
        1: ([59, 59, 59], 35, 179, 'dadcc483b59bdbc4'),
    },
}


@pytest.mark.parametrize("label,workload", threaded_cases(),
                         ids=[label for label, _ in threaded_cases()])
@pytest.mark.parametrize("seed", [0, 1])
def test_interpreted_threads_match_recorded(label, workload, seed):
    assert interpreted_threads(workload, seed) == THREADED[label][seed]


def test_every_opcode_decodes():
    assert set(interpreter._HANDLERS) == set(Op)
