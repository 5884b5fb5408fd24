"""Runtime half of the fault subsystem: the machine-facing injector.

A :class:`FaultInjector` turns a frozen :class:`~repro.faults.plan.FaultPlan`
into the two hooks the machine consumes:

- :meth:`schedule_region` — called at every ``aregion_begin``; returns a
  :class:`RegionFaultSchedule` naming the region-relative faults (conflict /
  spurious assert / guest exception / capacity shrink) armed for that
  dynamic region entry;
- :meth:`take_interrupt` — called at every in-region hardware-condition
  check with the global retired-uop counter; an interrupt whose absolute
  threshold has passed *pends* until this check, so taken-branch paths that
  skip a retirement boundary can never silently swallow it (unlike the old
  ``uops % interval == 0`` test).

The injector is deterministic: the same plan against the same execution
produces the same fault sequence.  Seeded draws consume one ``Random``
stream in region-entry order, so retried regions re-draw (each retry is a
fresh dynamic entry — exactly how real conflicting hardware behaves).
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass

from ..obs.tracer import NULL_TRACER
from .plan import FaultEvent, FaultPlan


@dataclass
class RegionFaultSchedule:
    """Faults armed for one dynamic region entry (region-relative uops)."""

    conflict_at: int | None = None
    assert_at: int | None = None
    exception_at: int | None = None
    #: shrunken best-effort capacity (min'd with the config's line limit).
    line_limit: int | None = None
    #: shrunken speculative store buffer (min'd with the config's
    #: ``spec_store_buffer_entries``; effective under every ``htm_mode``).
    store_limit: int | None = None

    def merge(self, kind: str, offset: int, line_limit: int | None,
              store_limit: int | None = None) -> None:
        if kind == "conflict":
            self.conflict_at = _min_opt(self.conflict_at, offset)
        elif kind == "assert":
            self.assert_at = _min_opt(self.assert_at, offset)
        elif kind == "exception":
            self.exception_at = _min_opt(self.exception_at, offset)
        elif kind == "overflow":
            limit = line_limit if line_limit is not None else 0
            self.line_limit = _min_opt(self.line_limit, limit)
        elif kind == "capacity":
            limit = store_limit if store_limit is not None else 0
            self.store_limit = _min_opt(self.store_limit, limit)


def _min_opt(current: int | None, new: int) -> int:
    return new if current is None else min(current, new)


class FaultInjector:
    """Stateful, deterministic fault source for one machine."""

    def __init__(self, plan: FaultPlan | None = None) -> None:
        self.plan = plan if plan is not None else FaultPlan()
        #: observability: the owning machine points these at its tracer and
        #: retired-uop counter, so armed faults and delivered interrupts
        #: appear on the same timeline as the regions they perturb.
        self.tracer = NULL_TRACER
        self.clock = lambda: 0
        self.regions_seen = 0
        #: kind -> number of times a fault of that kind was armed.
        self.scheduled = Counter()
        self.interrupts_delivered = 0
        self._rng: random.Random | None = None
        self._indexed_events: dict[int, list[FaultEvent]] = {}
        self._storm_events: list[FaultEvent] = []
        self._interrupt_thresholds: list[int] = []
        self._next_interrupt_at: int | None = None
        self.reset()

    # -- lifecycle -----------------------------------------------------------
    def reset(self) -> None:
        """Rewind to the start of the schedule (fresh rng, fresh events)."""
        plan = self.plan
        self.regions_seen = 0
        self.scheduled = Counter()
        self.interrupts_delivered = 0
        self._rng = random.Random(plan.seed) if plan.seed is not None else None
        self._indexed_events = {}
        self._storm_events = []
        self._interrupt_thresholds = []
        for event in plan.events:
            if event.kind == "interrupt":
                self._interrupt_thresholds.append(event.at_uop)
            elif event.region_index is None:
                self._storm_events.append(event)
            else:
                self._indexed_events.setdefault(
                    event.region_index, []
                ).append(event)
        self._interrupt_thresholds.sort(reverse=True)  # pop() smallest last
        self._next_interrupt_at = None
        if plan.interrupt_interval is not None:
            self._next_interrupt_at = plan.interrupt_interval
        elif plan.interrupt_gap is not None:
            self._next_interrupt_at = self._rng.randint(*plan.interrupt_gap)

    # -- machine hooks -------------------------------------------------------
    def schedule_region(self, record) -> RegionFaultSchedule:
        """Arm the faults for the next dynamic region entry."""
        index = self.regions_seen
        self.regions_seen += 1
        sched = RegionFaultSchedule()
        for event in self._storm_events:
            sched.merge(event.kind, event.offset, event.line_limit,
                        event.store_limit)
            self.scheduled[event.kind] += 1
        for event in self._indexed_events.pop(index, ()):
            sched.merge(event.kind, event.offset, event.line_limit,
                        event.store_limit)
            self.scheduled[event.kind] += 1
        if self._rng is not None and self.plan.region_rates:
            lo, hi = self.plan.offset_range
            for kind, rate in self.plan.region_rates:
                if self._rng.random() < rate:
                    offset = self._rng.randint(lo, hi)
                    sched.merge(kind, offset, self.plan.capacity_lines,
                                self.plan.capacity_stores)
                    self.scheduled[kind] += 1
        tracer = self.tracer
        if tracer.enabled:
            ts = self.clock()
            if sched.conflict_at is not None:
                tracer.fault_armed(ts, 0, "conflict", index,
                                   offset=sched.conflict_at)
            if sched.assert_at is not None:
                tracer.fault_armed(ts, 0, "assert", index,
                                   offset=sched.assert_at)
            if sched.exception_at is not None:
                tracer.fault_armed(ts, 0, "exception", index,
                                   offset=sched.exception_at)
            if sched.line_limit is not None:
                tracer.fault_armed(ts, 0, "overflow", index,
                                   line_limit=sched.line_limit)
            if sched.store_limit is not None:
                tracer.fault_armed(ts, 0, "capacity", index,
                                   store_limit=sched.store_limit)
        return sched

    def take_interrupt(self, uops_executed: int) -> bool:
        """True when an interrupt is pending at this check.

        Absolute thresholds: the interrupt fires at the first check at or
        after its threshold.  Periodic/seeded interrupts re-arm relative to
        the *current* uop counter so a long stretch outside regions yields
        one pending interrupt, not a storm of stale ones.
        """
        if (self._interrupt_thresholds
                and uops_executed >= self._interrupt_thresholds[-1]):
            self._interrupt_thresholds.pop()
            self.interrupts_delivered += 1
            if self.tracer.enabled:
                self.tracer.interrupt(uops_executed)
            return True
        if (self._next_interrupt_at is not None
                and uops_executed >= self._next_interrupt_at):
            if self.plan.interrupt_interval is not None:
                self._next_interrupt_at = (
                    uops_executed + self.plan.interrupt_interval
                )
            else:
                self._next_interrupt_at = (
                    uops_executed + self._rng.randint(*self.plan.interrupt_gap)
                )
            self.interrupts_delivered += 1
            if self.tracer.enabled:
                self.tracer.interrupt(uops_executed)
            return True
        return False
