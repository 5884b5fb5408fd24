"""Property-based tests (hypothesis) on core invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.atomic.boundaries import pi_cost, select_acyclic_boundaries
from repro.runtime import compare, guest_div, guest_mod, wrap_int
from repro.testutil import assert_same_outcome, profiled
from repro.testutil.genprog import GenConfig, ProgramGenerator

int64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)
small_int = st.integers(min_value=-(10**6), max_value=10**6)


class TestGuestArithmetic:
    @given(int64)
    def test_wrap_int_idempotent(self, x):
        assert wrap_int(wrap_int(x)) == wrap_int(x)

    @given(st.integers())
    def test_wrap_int_range(self, x):
        w = wrap_int(x)
        assert -(2**63) <= w < 2**63

    @given(int64, int64)
    def test_wrap_add_matches_modular(self, a, b):
        assert wrap_int(a + b) == wrap_int((a + b) % 2**64)

    @given(small_int, small_int.filter(lambda b: b != 0))
    def test_div_mod_reconstruct(self, a, b):
        q, r = guest_div(a, b), guest_mod(a, b)
        assert q * b + r == a

    @given(small_int, small_int.filter(lambda b: b != 0))
    def test_mod_sign_follows_dividend(self, a, b):
        r = guest_mod(a, b)
        assert r == 0 or (r > 0) == (a > 0)

    @given(small_int, small_int)
    def test_compare_total_order(self, a, b):
        assert compare("lt", a, b) == (not compare("ge", a, b))
        assert compare("le", a, b) == (not compare("gt", a, b))
        assert compare("eq", a, b) == (not compare("ne", a, b))


class TestEquationOne:
    @given(st.floats(min_value=1.0, max_value=10_000.0),
           st.floats(min_value=1.0, max_value=10_000.0))
    def test_pi_cost_nonnegative(self, size, target):
        assert pi_cost(size, target) >= 0.0

    @given(st.floats(min_value=1.0, max_value=10_000.0))
    def test_pi_cost_zero_only_at_target(self, target):
        assert pi_cost(target, target) == 0.0
        assert pi_cost(target * 2, target) > 0.0

    @given(st.floats(min_value=10.0, max_value=1000.0),
           st.floats(min_value=1.0, max_value=500.0))
    def test_pi_symmetric_in_ratio(self, target, delta):
        # Π((R-r)²/(R·r)) penalizes r = R·k and r = R/k equally.
        k = 1.0 + delta / target
        lo = pi_cost(target / k, target)
        hi = pi_cost(target * k, target)
        assert abs(lo - hi) < 1e-6 * max(lo, hi, 1.0)


class TestDifferentialProperty:
    """The heavyweight oracle: random programs through the whole compiler."""

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6),
           st.integers(min_value=-10, max_value=10))
    def test_region_formation_preserves_semantics(self, seed, arg):
        from repro.atomic import form_regions
        from repro.opt import optimize

        program = ProgramGenerator(
            GenConfig(seed=seed, parametric=True, max_statements=10)
        ).generate()
        profiles = profiled(program, args=(1,))

        def transform(graph, _program):
            form_regions(graph)
            optimize(graph)

        assert_same_outcome(program, transform=transform, args=(arg,),
                            profiles=profiles)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_compiled_machine_matches_interpreter(self, seed):
        from repro.testutil import outcome_bytecode
        from repro.vm import ATOMIC_AGGRESSIVE, TieredVM, VMOptions
        from repro.runtime import GuestError

        program = ProgramGenerator(
            GenConfig(seed=seed, parametric=True, max_statements=10)
        ).generate()
        expected = outcome_bytecode(program, args=(-3,))
        vm = TieredVM(program, ATOMIC_AGGRESSIVE,
                      options=VMOptions(enable_timing=False,
                                        compile_threshold=1))
        vm.warm_up("main", [[1]] * 3)
        vm.compile_hot(min_invocations=1)
        try:
            value = vm.run("main", [-3])
            got = (value, None)
        except GuestError as exc:
            got = (None, type(exc).__name__)
        assert got == (expected.value, expected.error)


def _atomic_reference(initial, ops):
    """Pure-Python sequential model of the atomic uops on one field.

    Mirrors the architectural contract: FAA returns the old value, CAS
    returns 1/0 and stores on match, LL loads and reserves, SC succeeds
    iff the reservation is live (cleared either way), and a thread's own
    stores never kill its own reservation — only other threads' do, which
    is unobservable single-threaded.  The fold hashes every uop result and
    the final field value so any divergence shows up in one integer.
    """
    value = initial
    reserved = False
    acc = 0
    for op in ops:
        kind = op[0]
        if kind == "faa":
            result, value = value, wrap_int(value + op[1])
        elif kind == "cas":
            result = 1 if value == op[1] else 0
            if result:
                value = op[2]
        elif kind == "ll":
            result, reserved = value, True
        elif kind == "sc":
            result, reserved = (1 if reserved else 0), False
            if result:
                value = op[1]
        else:  # put: plain store; own stores leave own reservation live
            value, result = op[1], 0
        acc = wrap_int(acc * 31 + result)
    return wrap_int(acc * 31 + value)


def _atomic_program(ops):
    """Guest program applying ``ops`` to one field, folding as above."""
    from repro.lang import ProgramBuilder

    pb = ProgramBuilder()
    pb.cls("Cell", fields=["n"])
    w = pb.method("work", params=("init",))
    init = w.param(0)
    cell = w.new("Cell")
    w.putfield(cell, "n", init)
    prime = w.const(31)
    acc = w.const(0)
    for op in ops:
        kind = op[0]
        if kind == "faa":
            delta = w.const(op[1])
            result = w.faa(cell, "n", delta)
        elif kind == "cas":
            expected = w.const(op[1])
            update = w.const(op[2])
            result = w.cas(cell, "n", expected, update)
        elif kind == "ll":
            result = w.ll(cell, "n")
        elif kind == "sc":
            update = w.const(op[1])
            result = w.sc(cell, "n", update)
        else:  # put
            update = w.const(op[1])
            w.putfield(cell, "n", update)
            result = w.const(0)
        scaled = w.mul(acc, prime)
        w.add(scaled, result, dst=acc)
    final = w.getfield(cell, "n")
    scaled = w.mul(acc, prime)
    out = w.add(scaled, final)
    w.ret(out)
    return pb.build()


_atomic_val = st.integers(min_value=0, max_value=3)
_atomic_ops = st.lists(
    st.one_of(
        st.tuples(st.just("faa"), st.integers(min_value=-2, max_value=3)),
        st.tuples(st.just("cas"), _atomic_val, _atomic_val),
        st.tuples(st.just("ll")),
        st.tuples(st.just("sc"), _atomic_val),
        st.tuples(st.just("put"), _atomic_val),
    ),
    min_size=1, max_size=16,
)


class TestAtomicUopProperties:
    """Every atomic uop against the sequential reference model, through
    every execution tier, and under multi-threaded contention."""

    @given(_atomic_ops, _atomic_val)
    def test_interpreter_matches_reference(self, ops, initial):
        from repro.testutil import outcome_bytecode

        outcome = outcome_bytecode(_atomic_program(ops), entry="work",
                                   args=(initial,))
        assert outcome.error is None
        assert outcome.value == _atomic_reference(initial, ops)

    @settings(max_examples=25, deadline=None)
    @given(_atomic_ops, _atomic_val)
    def test_region_formation_preserves_atomics(self, ops, initial):
        from repro.atomic import form_regions
        from repro.opt import optimize

        program = _atomic_program(ops)
        profiles = profiled(program, entry="work", args=(1,))

        def transform(graph, _program):
            form_regions(graph)
            optimize(graph)

        assert_same_outcome(program, transform=transform, entry="work",
                            args=(initial,), profiles=profiles)

    @settings(max_examples=15, deadline=None)
    @given(_atomic_ops, _atomic_val,
           st.sampled_from([("interpretive", None), ("auto", "faulted"),
                            ("auto", None)]))
    def test_machine_tiers_match_reference(self, ops, initial, tier):
        from repro.faults import FaultPlan
        from repro.vm import ATOMIC_AGGRESSIVE, TieredVM, VMOptions

        dispatch, faulted = tier
        program = _atomic_program(ops)
        vm = TieredVM(program, ATOMIC_AGGRESSIVE,
                      options=VMOptions(enable_timing=False,
                                        compile_threshold=1,
                                        dispatch=dispatch),
                      # an injector with no fault armed: the faulted profile
                      fault_plan=FaultPlan.none() if faulted else None)
        vm.warm_up("work", [[1]] * 3)
        vm.compile_hot(min_invocations=1)
        assert vm.run("work", [initial]) == _atomic_reference(initial, ops)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6),
           st.sampled_from(["faa", "cas", "llsc", "lock"]),
           st.integers(min_value=2, max_value=6),
           st.integers(min_value=1, max_value=6))
    def test_threaded_counter_never_loses_updates(self, seed, primitive,
                                                  threads, iters):
        from repro.runtime import SchedulePlan
        from repro.vm import NO_ATOMIC, TieredVM, VMOptions
        from repro.workloads.contention import build_counter

        program = build_counter(primitive)
        vm = TieredVM(program, NO_ATOMIC,
                      options=VMOptions(enable_timing=False,
                                        compile_threshold=3))
        warm = vm.run("setup")
        vm.warm_up("worker", [[warm, 2]] * 3)
        vm.compile_hot(min_invocations=1)
        counter = vm.run("setup")
        vm.run_threads(
            [("worker", [counter, iters], f"t{tid}")
             for tid in range(threads)],
            plan=SchedulePlan(seed=seed, quantum=(4, 16)),
        )
        assert counter.get("n") == threads * iters
        assert not vm.heap.reservations


class TestPredictorProperties:
    @given(st.lists(st.booleans(), min_size=1, max_size=200))
    def test_counts_consistent(self, outcomes):
        from repro.hw import CombiningPredictor

        pred = CombiningPredictor(1024, 256)
        for taken in outcomes:
            pred.predict_and_update(0x1234, taken)
        assert pred.predictions == len(outcomes)
        assert 0 <= pred.mispredictions <= pred.predictions


class TestCacheProperties:
    @given(st.lists(st.integers(min_value=0, max_value=1 << 20), min_size=1,
                    max_size=300))
    def test_hits_plus_misses(self, addresses):
        from repro.hw.cache import CacheLevel
        from repro.hw.config import CacheConfig

        cache = CacheLevel(CacheConfig(4096, 2, 64, 4))
        for address in addresses:
            cache.access(address)
        assert cache.hits + cache.misses == len(addresses)

    @given(st.lists(st.integers(min_value=0, max_value=1 << 20), min_size=1,
                    max_size=100))
    def test_ways_never_exceeded(self, addresses):
        from repro.hw.cache import CacheLevel
        from repro.hw.config import CacheConfig

        cache = CacheLevel(CacheConfig(1024, 2, 64, 4))
        for address in addresses:
            cache.access(address)
        assert all(len(ways) <= 2 for ways in cache.sets)
