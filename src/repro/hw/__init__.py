"""Simulated hardware: ISA, codegen, checkpoint machine, caches, timing."""

from .branchpred import CombiningPredictor
from .cache import CacheLevel, MemoryHierarchy
from .codegen import CodeGenerator, generate_code, lower_phis, split_critical_edges
from .config import (
    ABORT_DELIVERY_MODES,
    BASELINE_4WIDE,
    CHKPT_20CYCLE,
    CHKPT_SINGLE_INFLIGHT,
    CacheConfig,
    FALLBACK_LOCK_MODES,
    HTM_CACHE_SHAPED,
    HTM_FALLBACK_LOCK_BEGIN,
    HTM_FALLBACK_LOCK_END,
    HTM_MODES,
    HTM_ROCK_STORE_BUFFER,
    HTM_SETJMP_DELIVERY,
    HardwareConfig,
    OOO_2WIDE,
    OOO_2WIDE_HALF,
    htm_variant_configs,
)
from .isa import (
    ABORT_REASON_CODES,
    HW_ESCALATION_REASONS,
    RETRYABLE_REASONS,
    CompiledMethod,
    MInstr,
    MOp,
)
from .machine import Machine
from .stats import ExecStats, RegionExecution
from .templatejit import (
    FUSABLE_MOPS,
    JitProfile,
    JittedMethod,
    fused_runs,
    get_jitted,
    jit_source,
)
from .timing import INTERPRETER_CYCLES_PER_BYTECODE, TimingModel

__all__ = [
    "ABORT_DELIVERY_MODES",
    "ABORT_REASON_CODES",
    "BASELINE_4WIDE",
    "CHKPT_20CYCLE",
    "CHKPT_SINGLE_INFLIGHT",
    "CacheConfig",
    "CacheLevel",
    "CodeGenerator",
    "CombiningPredictor",
    "CompiledMethod",
    "ExecStats",
    "FUSABLE_MOPS",
    "FALLBACK_LOCK_MODES",
    "HTM_CACHE_SHAPED",
    "HTM_FALLBACK_LOCK_BEGIN",
    "HTM_FALLBACK_LOCK_END",
    "HTM_MODES",
    "HTM_ROCK_STORE_BUFFER",
    "HTM_SETJMP_DELIVERY",
    "HW_ESCALATION_REASONS",
    "HardwareConfig",
    "INTERPRETER_CYCLES_PER_BYTECODE",
    "JitProfile",
    "JittedMethod",
    "MInstr",
    "MOp",
    "Machine",
    "MemoryHierarchy",
    "OOO_2WIDE",
    "OOO_2WIDE_HALF",
    "RETRYABLE_REASONS",
    "RegionExecution",
    "TimingModel",
    "fused_runs",
    "generate_code",
    "get_jitted",
    "htm_variant_configs",
    "jit_source",
    "lower_phis",
    "split_critical_edges",
]
