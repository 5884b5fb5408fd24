"""Execution profiles gathered by the tier-0 interpreter.

Region formation is "fundamentally a profile-driven" process (paper §4): the
compiler needs branch biases (to find cold edges, bias < 1%), block
execution counts (Algorithm 1 processes the hottest blocks first and uses
``GETEXECCOUNT``), loop trip counts (``LOOPWEIGHT``), and receiver-class
profiles at virtual call sites (for inlining and the jython monomorphism
discussion in §6.1).

Profiles are keyed by bytecode pc within each method, which survives the
translation to IR because the IR builder records the originating pc on every
operation.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field


#: Branch-bias threshold below which an edge is *cold* (paper §4: "we define
#: as cold any paths whose branch bias is less than 1%").
COLD_EDGE_BIAS = 0.01


@dataclass
class BranchProfile:
    """Taken/not-taken counts for one conditional branch site."""

    taken: int = 0
    not_taken: int = 0

    @property
    def total(self) -> int:
        return self.taken + self.not_taken

    def bias_taken(self) -> float:
        """Fraction of executions that took the branch (0.5 when unseen)."""
        if self.total == 0:
            return 0.5
        return self.taken / self.total

    def is_cold_taken(self, threshold: float = COLD_EDGE_BIAS) -> bool:
        """The taken edge is cold: rarely or never followed."""
        return self.total > 0 and self.bias_taken() < threshold

@dataclass
class CallSiteProfile:
    """Receiver-class histogram for one virtual call site."""

    receivers: Counter = field(default_factory=Counter)

    @property
    def total(self) -> int:
        return sum(self.receivers.values())

    def dominant(self) -> tuple[str | None, float]:
        """The most common receiver class and its frequency share."""
        if not self.receivers:
            return None, 0.0
        name, count = self.receivers.most_common(1)[0]
        return name, count / self.total

    def appears_polymorphic(self) -> bool:
        """More than one receiver class was *ever* observed.

        The paper's partial inliner refuses to inline methods containing
        polymorphic call sites (§6.1); this predicate is what it consults.
        """
        return len(self.receivers) > 1


@dataclass
class MethodProfile:
    """All profile data for one method."""

    invocations: int = 0
    bytecodes_executed: int = 0
    block_counts: Counter = field(default_factory=Counter)  # pc of block head -> count
    branches: dict[int, BranchProfile] = field(default_factory=dict)
    call_sites: dict[int, CallSiteProfile] = field(default_factory=dict)

    def branch_at(self, pc: int) -> BranchProfile:
        prof = self.branches.get(pc)
        if prof is None:
            prof = self.branches[pc] = BranchProfile()
        return prof

    def call_site_at(self, pc: int) -> CallSiteProfile:
        prof = self.call_sites.get(pc)
        if prof is None:
            prof = self.call_sites[pc] = CallSiteProfile()
        return prof


class ProfileStore:
    """Profiles for every method, keyed by qualified method name."""

    def __init__(self) -> None:
        self._methods: dict[str, MethodProfile] = {}

    def method(self, qualified_name: str) -> MethodProfile:
        prof = self._methods.get(qualified_name)
        if prof is None:
            prof = self._methods[qualified_name] = MethodProfile()
        return prof

    def __contains__(self, qualified_name: str) -> bool:
        return qualified_name in self._methods

    def snapshot_invocations(self) -> dict[str, int]:
        return {name: prof.invocations for name, prof in self._methods.items()}

    def clear(self) -> None:
        self._methods.clear()
