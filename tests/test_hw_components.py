"""Unit tests for the hardware components: predictor, caches, timing,
configs, and codegen internals."""

import pytest

from repro.hw import (
    BASELINE_4WIDE,
    CHKPT_20CYCLE,
    CHKPT_SINGLE_INFLIGHT,
    CombiningPredictor,
    MemoryHierarchy,
    MInstr,
    MOp,
    OOO_2WIDE,
    OOO_2WIDE_HALF,
    TimingModel,
)
from repro.hw.cache import CacheLevel
from repro.hw.config import CacheConfig


class TestBranchPredictor:
    def test_learns_always_taken(self):
        pred = CombiningPredictor(1024, 256)
        for _ in range(100):
            pred.predict_and_update(0x400, True)
        assert pred.misprediction_rate < 0.1

    def test_learns_alternating_via_history(self):
        pred = CombiningPredictor(4096, 256)
        taken = True
        for _ in range(2000):
            pred.predict_and_update(0x500, taken)
            taken = not taken
        # gshare captures period-2 patterns nearly perfectly after warmup.
        assert pred.misprediction_rate < 0.2

    def test_random_branches_mispredict(self):
        import random

        rng = random.Random(7)
        pred = CombiningPredictor(1024, 256)
        for _ in range(2000):
            pred.predict_and_update(0x600, rng.random() < 0.5)
        assert pred.misprediction_rate > 0.25

    def test_biased_branch_low_mispredicts(self):
        import random

        rng = random.Random(7)
        pred = CombiningPredictor(1024, 256)
        for _ in range(5000):
            pred.predict_and_update(0x700, rng.random() < 0.99)
        assert pred.misprediction_rate < 0.05


class TestCaches:
    def test_repeat_access_hits(self):
        cache = CacheLevel(CacheConfig(32 * 1024, 4, 64, 4))
        cache.access(0x1000)
        assert cache.access(0x1000)
        assert cache.hits == 1 and cache.misses == 1

    def test_same_line_shares(self):
        cache = CacheLevel(CacheConfig(32 * 1024, 4, 64, 4))
        cache.access(0x1000)
        assert cache.access(0x1030)  # same 64B line

    def test_lru_eviction(self):
        # 2-way, 2-set cache: 4 lines total.
        cache = CacheLevel(CacheConfig(256, 2, 64, 4))
        a, b, c = 0x0, 0x100, 0x200  # all map to set 0
        cache.access(a)
        cache.access(b)
        cache.access(c)              # evicts a (LRU)
        assert not cache.contains(a)
        assert cache.contains(b) and cache.contains(c)

    def test_hierarchy_latencies(self):
        mem = MemoryHierarchy(BASELINE_4WIDE)
        cold = mem.access(0x10000)
        warm = mem.access(0x10000)
        assert cold > warm
        assert warm == BASELINE_4WIDE.l1_config.hit_cycles


class TestHardwareConfigs:
    def test_table1_baseline(self):
        hw = BASELINE_4WIDE
        assert hw.fetch_width == hw.issue_width == hw.retire_width == 4
        assert hw.instruction_window == 128
        assert hw.branch_mispredict_penalty == 20
        assert hw.l1_config.size_bytes == 32 * 1024
        assert hw.l2_config.size_bytes == 4 * 1024 * 1024

    def test_width_variants(self):
        assert OOO_2WIDE.fetch_width == 2
        assert OOO_2WIDE.l1_config.size_bytes == BASELINE_4WIDE.l1_config.size_bytes
        assert OOO_2WIDE_HALF.l1_config.size_bytes == 16 * 1024
        assert OOO_2WIDE_HALF.instruction_window == 64

    def test_figure9_knobs(self):
        assert CHKPT_20CYCLE.aregion_begin_stall == 20
        assert CHKPT_SINGLE_INFLIGHT.single_inflight_regions


class TestTimingModel:
    def make_uop(self, op=MOp.ADD, dst=1, a=2, b=3):
        return MInstr(op, dst=dst, a=a, b=b)

    def test_width_limits_throughput(self):
        timing = TimingModel(BASELINE_4WIDE)
        for _ in range(400):
            timing.uop(MInstr(MOp.CONST, dst=1, imm=0), None)
        # Independent uops: bounded by the 4-wide front end.
        assert timing.cycles >= 400 / 4 - 2

    def test_dependent_chain_serializes(self):
        timing = TimingModel(BASELINE_4WIDE)
        for _ in range(100):
            timing.uop(MInstr(MOp.ADD, dst=1, a=1, b=1), None)
        assert timing.cycles >= 100  # 1-cycle latency chain

    def test_narrow_machine_slower(self):
        wide = TimingModel(BASELINE_4WIDE)
        narrow = TimingModel(OOO_2WIDE)
        for model in (wide, narrow):
            for i in range(400):
                model.uop(MInstr(MOp.CONST, dst=i % 8, imm=0), None)
        assert narrow.cycles > wide.cycles

    def test_mispredict_penalty(self):
        clean = TimingModel(BASELINE_4WIDE)
        dirty = TimingModel(BASELINE_4WIDE)
        import random

        rng = random.Random(3)
        for model, chaos in ((clean, False), (dirty, True)):
            for i in range(500):
                taken = rng.random() < 0.5 if chaos else True
                model.branch(0x40, taken)
                model.uop(MInstr(MOp.BR, a=1, cond="eq"), None)
        assert dirty.cycles > clean.cycles * 1.5

    def test_region_begin_stall_config(self):
        fast = TimingModel(BASELINE_4WIDE)
        slow = TimingModel(CHKPT_20CYCLE)
        for model in (fast, slow):
            for _ in range(50):
                model.region_begin()
                model.uop(MInstr(MOp.AREGION_BEGIN, imm=0, target=0), None)
                for _ in range(5):
                    model.uop(MInstr(MOp.CONST, dst=1, imm=0), None)
                model.region_end()
                model.uop(MInstr(MOp.AREGION_END), None)
        assert slow.cycles > fast.cycles + 50 * 15

    def test_store_load_dependency(self):
        timing = TimingModel(BASELINE_4WIDE)
        base = TimingModel(BASELINE_4WIDE)
        # Chain through one memory address vs. independent addresses.
        for i in range(100):
            timing.uop(MInstr(MOp.STORELOCK, a=1, imm=1), 0x9000)
            timing.uop(MInstr(MOp.LOADLOCK, dst=2, a=1), 0x9000)
        for i in range(100):
            base.uop(MInstr(MOp.STORELOCK, a=1, imm=1), 0x9000 + i * 64)
            base.uop(MInstr(MOp.LOADLOCK, dst=2, a=1), 0x8000)
        assert timing.cycles > base.cycles

    def test_interpreter_cycles_accrue(self):
        timing = TimingModel(BASELINE_4WIDE)
        timing.add_interpreter_cycles(100)
        from repro.hw import INTERPRETER_CYCLES_PER_BYTECODE

        assert timing.cycles == 100 * INTERPRETER_CYCLES_PER_BYTECODE


class TestUopTiming:
    """The static scoreboard facts shared by the model and the JIT."""

    def test_classes_and_latencies(self):
        from repro.hw.timing import (ALU, LOAD, LOCK_STORE_LATENCY, RMW,
                                     STORE, uop_timing)

        assert uop_timing(MInstr(MOp.MUL, dst=1, a=2, b=3)) == (
            (2, 3), ALU, 3, 1)
        assert uop_timing(MInstr(MOp.LOADF, dst=4, a=5)).kind == LOAD
        assert uop_timing(MInstr(MOp.STOREA, a=1, b=2, c=3)) == (
            (1, 2, 3), STORE, 1, None)
        for op in (MOp.STORELOCK, MOp.FAA, MOp.CAS, MOp.LL, MOp.SC):
            facts = uop_timing(MInstr(op, dst=1, a=2))
            assert (facts.kind, facts.latency) == (RMW, LOCK_STORE_LATENCY)

    def test_sources_are_distinct_and_skip_spill_args(self):
        from repro.hw.timing import uop_timing

        assert uop_timing(MInstr(MOp.ADD, dst=1, a=2, b=2)).srcs == (2,)
        call = MInstr(MOp.CALLVM, dst=0, method="m", args=(3, -1, 4, 3))
        assert uop_timing(call).srcs == (3, 4)

    def test_model_caches_facts_per_instruction(self):
        timing = TimingModel(BASELINE_4WIDE)
        instr = MInstr(MOp.ADD, dst=1, a=2, b=3)
        assert instr.timing_facts is None
        timing.uop(instr, None)
        facts = instr.timing_facts
        assert facts is not None
        timing.uop(instr, None)
        assert instr.timing_facts is facts
        assert not hasattr(timing, "uops")


class TestCodegenUnits:
    def test_parallel_copy_cycle_broken(self):
        from repro.hw.codegen import _sequentialize
        from repro.ir import Kind, Node

        a, b = Node(Kind.PHI), Node(Kind.PHI)
        # swap: a <- b, b <- a
        ordered = _sequentialize([(a, b), (b, a)])
        # A temp must appear: 3 copies for a swap.
        assert len(ordered) == 3

    def test_coalescing_removes_simple_copy(self):
        from repro.hw.codegen import _coalesce_moves

        instrs = [
            MInstr(MOp.CONST, dst=0, imm=1),
            MInstr(MOp.MOV, dst=1, a=0),
            MInstr(MOp.RET, a=1),
        ]
        intervals = {0: [0, 1], 1: [1, 2]}
        new_instrs, index_map = _coalesce_moves(instrs, intervals, {})
        assert len(new_instrs) == 2
        assert new_instrs[-1].a == 0  # RET reads the representative
