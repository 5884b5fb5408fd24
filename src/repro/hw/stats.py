"""Execution statistics: uops, cycles, regions, aborts, footprints.

These counters back every table and figure in the evaluation:

- Figure 7: ``cycles`` ratios between compiler configurations;
- Figure 8: ``uops_retired`` reduction;
- Table 3: region ``coverage``, unique regions, sizes, abort rates;
- §6.2: region size and cache-footprint distributions;
- Figure 9: cycles under degraded ``aregion_begin`` implementations.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field


@dataclass
class RegionExecution:
    """Statistics for one dynamic atomic-region execution.

    Filled in when the region commits or aborts (``uops`` is copied from
    the in-flight region's count then); nothing reads it while the
    region is in flight."""

    region_key: tuple  # (method name, region id)
    uops: int = 0
    lines_read: int = 0
    lines_written: int = 0
    committed: bool = False
    abort_reason: str | None = None
    abort_pc: int | None = None


@dataclass
class ExecStats:
    """Aggregated over one measured execution sample."""

    uops_retired: int = 0
    uops_in_regions: int = 0
    interpreter_bytecodes: int = 0
    cycles: float = 0.0

    regions_entered: int = 0
    regions_committed: int = 0
    regions_aborted: int = 0
    abort_reasons: Counter = field(default_factory=Counter)
    #: (method, region id, abort_id) -> count, for adaptive recompilation.
    abort_sites: Counter = field(default_factory=Counter)
    unique_regions: set = field(default_factory=set)

    #: per-method and per-region entry/abort counters (adaptive control and
    #: the forward-progress escalation both want rates *per region*, not the
    #: global average).
    entries_by_method: Counter = field(default_factory=Counter)
    aborts_by_method: Counter = field(default_factory=Counter)
    entries_by_region: Counter = field(default_factory=Counter)
    aborts_by_region: Counter = field(default_factory=Counter)

    #: forward-progress events: transparent conflict retries, backoff stall
    #: cycles charged, region entries skipped because the region was patched
    #: to its non-speculative fallback, and the fallback events themselves
    #: (region_key -> count).
    conflict_retries: int = 0
    backoff_cycles: float = 0.0
    regions_suppressed: int = 0
    region_fallbacks: Counter = field(default_factory=Counter)

    #: best-effort HTM realism counters (all zero under the default
    #: unbounded/no-lock/handler-delivery config).  ``capacity_aborts``
    #: mirrors ``abort_reasons["capacity"]`` as a flat counter; the
    #: fallback-lock pair counts hybrid escalations (acquisitions) and
    #: scheduler parks while contending for the lock; ``setjmp_deliveries``
    #: counts condition-code deliveries at an ``aregion_begin``.
    capacity_aborts: int = 0
    fallback_lock_acquisitions: int = 0
    fallback_lock_waits: int = 0
    setjmp_deliveries: int = 0

    #: concurrency (deterministic multi-threaded runs; all zero/empty when
    #: threads=1, so single-threaded figures are unaffected).  Conflict
    #: aborts split by provenance: ``real`` = a genuine cross-thread
    #: store-set overlap or contended monitor detected by the conflict bus,
    #: ``injected`` = scheduled by a :class:`~repro.faults.FaultPlan`.
    real_conflict_aborts: int = 0
    injected_conflict_aborts: int = 0
    contended_acquisitions: int = 0
    context_switches: int = 0
    #: tid -> retired guest steps, copied from the scheduler after a run.
    uops_by_thread: Counter = field(default_factory=Counter)

    region_sizes: list[int] = field(default_factory=list)
    region_lines: list[int] = field(default_factory=list)

    loads: int = 0
    stores: int = 0
    branches: int = 0
    mispredicts: int = 0
    monitor_ops: int = 0
    sle_elisions: int = 0

    #: architectural atomic primitives (machine tiers only; the failure
    #: counters split out the CAS/SC attempts that stored nothing — the
    #: retry traffic the contention figures plot).
    faa_ops: int = 0
    cas_ops: int = 0
    cas_failures: int = 0
    ll_ops: int = 0
    sc_ops: int = 0
    sc_failures: int = 0

    def note_region(self, record: RegionExecution) -> None:
        self.regions_entered += 1
        self.unique_regions.add(record.region_key)
        method_name = record.region_key[0]
        self.entries_by_method[method_name] += 1
        self.entries_by_region[record.region_key] += 1
        if record.committed:
            self.regions_committed += 1
            self.region_sizes.append(record.uops)
            self.region_lines.append(record.lines_read + record.lines_written)
            self.uops_in_regions += record.uops
        else:
            self.regions_aborted += 1
            self.abort_reasons[record.abort_reason] += 1
            self.aborts_by_method[method_name] += 1
            self.aborts_by_region[record.region_key] += 1

    def note_fallback(self, region_key: tuple) -> None:
        """A region exhausted its budget: patched to non-speculative code."""
        self.region_fallbacks[region_key] += 1

    def method_abort_rate(self, method_name: str) -> float:
        """Aborts per region entry for one method's regions."""
        entries = self.entries_by_method.get(method_name, 0)
        if entries == 0:
            return 0.0
        return self.aborts_by_method.get(method_name, 0) / entries

    # -- derived metrics ------------------------------------------------------
    @property
    def coverage(self) -> float:
        """Fraction of retired uops executed inside committed regions."""
        if self.uops_retired == 0:
            return 0.0
        return self.uops_in_regions / self.uops_retired

    @property
    def abort_rate(self) -> float:
        """Aborts per region entry (Table 3 'abort %')."""
        if self.regions_entered == 0:
            return 0.0
        return self.regions_aborted / self.regions_entered

    @property
    def aborts_per_kuop(self) -> float:
        if self.uops_retired == 0:
            return 0.0
        return 1000.0 * self.regions_aborted / self.uops_retired

    @property
    def mean_region_size(self) -> float:
        if not self.region_sizes:
            return 0.0
        return sum(self.region_sizes) / len(self.region_sizes)

    def summary(self) -> dict:
        return {
            "uops": self.uops_retired,
            "cycles": self.cycles,
            "coverage": round(self.coverage, 4),
            "regions": self.regions_entered,
            "unique_regions": len(self.unique_regions),
            "mean_region_size": round(self.mean_region_size, 1),
            "abort_rate": round(self.abort_rate, 5),
            "aborts_per_kuop": round(self.aborts_per_kuop, 5),
            "mispredict_rate": (
                round(self.mispredicts / self.branches, 5) if self.branches else 0.0
            ),
            "conflict_retries": self.conflict_retries,
            "region_fallbacks": sum(self.region_fallbacks.values()),
            "regions_suppressed": self.regions_suppressed,
            "real_conflict_aborts": self.real_conflict_aborts,
            "injected_conflict_aborts": self.injected_conflict_aborts,
            "contended_acquisitions": self.contended_acquisitions,
            "context_switches": self.context_switches,
            "threads": max(len(self.uops_by_thread), 1),
            "capacity_aborts": self.capacity_aborts,
            "fallback_lock_acquisitions": self.fallback_lock_acquisitions,
            "fallback_lock_waits": self.fallback_lock_waits,
            "setjmp_deliveries": self.setjmp_deliveries,
            "faa_ops": self.faa_ops,
            "cas_ops": self.cas_ops,
            "cas_failures": self.cas_failures,
            "ll_ops": self.ll_ops,
            "sc_ops": self.sc_ops,
            "sc_failures": self.sc_failures,
        }
