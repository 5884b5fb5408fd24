"""Tiered VM: interpreter + optimizing compiler + simulated hardware."""

from .adaptive import AdaptiveController, AdaptiveDecision
from .compiler import (
    ATOMIC,
    ATOMIC_AGGRESSIVE,
    CompilationRecord,
    CompilerConfig,
    NO_ATOMIC,
    NO_ATOMIC_AGGRESSIVE,
    compile_method,
)
from .vm import TieredVM, VMOptions, WarmState

__all__ = [
    "ATOMIC",
    "ATOMIC_AGGRESSIVE",
    "AdaptiveController",
    "AdaptiveDecision",
    "CompilationRecord",
    "CompilerConfig",
    "NO_ATOMIC",
    "NO_ATOMIC_AGGRESSIVE",
    "TieredVM",
    "VMOptions",
    "WarmState",
    "compile_method",
]
