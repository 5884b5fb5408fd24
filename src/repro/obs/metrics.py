"""Metrics registry: name-addressed counters for host-side events.

Execution counters live in :class:`~repro.hw.stats.ExecStats` only
(``ExecStats.summary()`` is their name-addressed view), and a sweep's
lifecycle counts live in :class:`~repro.harness.supervisor.SweepOutcome`
fields.  :class:`Metrics` holds the counters that have no other home:
the sweep server's request, dedup, eviction and failure counts.
"""

from __future__ import annotations

from collections import Counter


class Metrics:
    """Name-addressed counters."""

    def __init__(self) -> None:
        self.counters: Counter = Counter()

    def inc(self, name: str, n=1) -> None:
        self.counters[name] += n

    def set(self, name: str, value) -> None:
        self.counters[name] = value

    def counter(self, name: str):
        return self.counters.get(name, 0)
