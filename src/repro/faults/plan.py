"""Deterministic fault schedules for the chaos/robustness harness.

The paper's reliability argument (§3, §5) is that *any* abort condition —
failed assert, footprint overflow, interrupt, coherence conflict, guest
fault — rolls the atomic region back totally and lands on the
non-speculative recovery path with correct state.  A :class:`FaultPlan`
describes, purely as data, *which* of those conditions to inject and
*when*: at precise retired-uop offsets (absolute for interrupts,
region-relative for the rest), on specific dynamic region entries, or via
a seeded pseudo-random schedule.  Plans are frozen and hashable so the
experiment cache can key on them, and the same plan always reproduces the
same fault sequence for a given execution.

The runtime half lives in :mod:`repro.faults.injector`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass


def derive_seed(seed: int, stream: str) -> int:
    """Derive an independent sub-seed for one named consumer of a chaos seed.

    One experiment seed drives several pseudo-random streams (the fault
    injector's region draws, the scheduler's quantum/pick draws); feeding
    ``random.Random`` the same integer in each would correlate them.  Hashing
    the (stream, seed) pair gives every consumer its own reproducible stream
    while keeping a single user-facing seed.  Stable across processes and
    Python versions (unlike ``hash``), so recorded schedules replay anywhere.
    """
    digest = hashlib.sha256(f"{stream}:{seed}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")

#: Every injectable abort reason, matching the machine's abort-reason
#: register values ("overflow" is line-set capacity pressure against the
#: idealized substrate's bound; "capacity" is the best-effort HTM bound —
#: a shrunken speculative store buffer).
FAULT_KINDS = (
    "interrupt", "conflict", "overflow", "assert", "exception", "capacity",
)

#: Kinds scheduled relative to a region entry (everything but interrupts).
REGION_KINDS = ("conflict", "overflow", "assert", "exception", "capacity")


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.

    - ``kind="interrupt"`` events use ``at_uop``: an *absolute* retired-uop
      threshold; the interrupt pends until the next in-region check, so it
      is never silently missed.
    - Region kinds use ``region_index`` (the 0-based dynamic region-entry
      number, or ``None`` for *every* region — an abort storm) plus
      ``offset`` (region-relative retired uops before the fault fires).
    - ``kind="overflow"`` uses ``line_limit`` to shrink the best-effort
      capacity for the targeted region (capacity pressure), forcing the
      existing overflow abort path.
    - ``kind="capacity"`` uses ``store_limit`` to shrink the speculative
      store buffer for the targeted region, forcing the best-effort HTM
      "capacity" abort path regardless of the configured ``htm_mode``.
    """

    kind: str
    at_uop: int | None = None
    region_index: int | None = None
    offset: int = 1
    line_limit: int | None = None
    store_limit: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.kind == "interrupt" and self.at_uop is None:
            raise ValueError("interrupt events need an absolute at_uop")
        if self.kind != "interrupt" and self.at_uop is not None:
            raise ValueError(f"{self.kind} events are region-relative")


@dataclass(frozen=True)
class FaultPlan:
    """A complete, deterministic fault schedule.

    Three composable layers (all optional):

    - ``events``: explicit one-shot (or every-region) :class:`FaultEvent`s;
    - ``interrupt_interval``: periodic interrupts, re-armed from the uop
      counter at each delivery (the replacement for the old modulo test);
    - ``seed`` + ``region_rates`` / ``interrupt_gap``: a seeded random
      schedule — each region entry draws independently per kind, and
      interrupt inter-arrival gaps are drawn from ``interrupt_gap``.
    """

    events: tuple[FaultEvent, ...] = ()
    interrupt_interval: int | None = None
    seed: int | None = None
    #: ((kind, probability-per-region-entry), ...), sorted for hashability.
    region_rates: tuple[tuple[str, float], ...] = ()
    #: seeded interrupt inter-arrival range in uops (inclusive), or None.
    interrupt_gap: tuple[int, int] | None = None
    #: region-relative uop offset range for seeded region faults.
    offset_range: tuple[int, int] = (1, 48)
    #: line limit imposed by seeded capacity-pressure faults.
    capacity_lines: int = 16
    #: store-buffer limit imposed by seeded "capacity" faults (0 = the
    #: first buffered store already overflows).
    capacity_stores: int = 0

    def __post_init__(self) -> None:
        for kind, rate in self.region_rates:
            if kind not in REGION_KINDS:
                raise ValueError(f"{kind!r} is not a region-relative kind")
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"rate for {kind!r} out of [0, 1]: {rate}")
        if (self.seed is None
                and (self.region_rates or self.interrupt_gap is not None)):
            raise ValueError("seeded schedules need a seed")

    # -- constructors -------------------------------------------------------
    @classmethod
    def none(cls) -> "FaultPlan":
        """An empty plan: no faults (useful as a neutral default)."""
        return cls()

    @classmethod
    def periodic_interrupts(cls, interval: int) -> "FaultPlan":
        """Interrupt every ``interval`` retired uops (absolute threshold)."""
        if interval <= 0:
            raise ValueError("interrupt interval must be positive")
        return cls(interrupt_interval=interval)

    @classmethod
    def single(cls, kind: str, *, region_index: int = 0, offset: int = 1,
               at_uop: int | None = None, line_limit: int | None = None,
               store_limit: int | None = None) -> "FaultPlan":
        """One fault of ``kind`` on one region entry (or uop threshold)."""
        if kind == "interrupt":
            return cls(events=(FaultEvent(kind, at_uop=at_uop),))
        return cls(events=(FaultEvent(
            kind, region_index=region_index, offset=offset,
            line_limit=line_limit, store_limit=store_limit,
        ),))

    @classmethod
    def storm(cls, kind: str = "conflict", offset: int = 2,
              line_limit: int | None = None,
              store_limit: int | None = None) -> "FaultPlan":
        """A perpetual abort storm: ``kind`` fires in *every* region entry.

        This is the adversarial schedule the forward-progress machinery
        must terminate: without a retry budget and permanent fallback it
        would live-lock a conflict-retrying machine.
        """
        if kind == "interrupt":
            raise ValueError("storms are region-relative; use a tiny "
                             "interrupt_interval instead")
        if kind == "overflow" and line_limit is None:
            line_limit = 0
        if kind == "capacity" and store_limit is None:
            store_limit = 0
        return cls(events=(FaultEvent(
            kind, region_index=None, offset=offset, line_limit=line_limit,
            store_limit=store_limit,
        ),))

    @classmethod
    def seeded(
        cls,
        seed: int,
        *,
        conflict_rate: float = 0.05,
        assert_rate: float = 0.03,
        exception_rate: float = 0.02,
        overflow_rate: float = 0.01,
        capacity_rate: float = 0.0,
        interrupt_gap: tuple[int, int] | None = (4_000, 12_000),
        offset_range: tuple[int, int] = (1, 48),
        capacity_lines: int = 2,
        capacity_stores: int = 0,
    ) -> "FaultPlan":
        """The chaos-mode default: every fault kind, seeded and repeatable.

        ``capacity_rate`` defaults to 0.0 so pre-existing seeded streams
        stay byte-identical (zero-rate kinds are dropped from the tuple
        and never draw from the rng); HTM-realism sweeps opt in.
        """
        rates = tuple(sorted(
            (kind, rate) for kind, rate in (
                ("conflict", conflict_rate),
                ("assert", assert_rate),
                ("exception", exception_rate),
                ("overflow", overflow_rate),
                ("capacity", capacity_rate),
            ) if rate > 0.0
        ))
        return cls(
            seed=seed,
            region_rates=rates,
            interrupt_gap=interrupt_gap,
            offset_range=offset_range,
            capacity_lines=capacity_lines,
            capacity_stores=capacity_stores,
        )

    # -- properties ---------------------------------------------------------
    def describe(self) -> str:
        parts = []
        if self.events:
            parts.append(f"{len(self.events)} event(s)")
        if self.interrupt_interval is not None:
            parts.append(f"interrupts every {self.interrupt_interval} uops")
        if self.seed is not None:
            kinds = ",".join(k for k, _ in self.region_rates) or "none"
            parts.append(f"seeded(seed={self.seed}, kinds={kinds})")
        return "; ".join(parts) if parts else "no faults"
