"""Structured region-lifecycle tracing.

Speculation bugs are interleaving/ordering bugs: what matters is *when* a
region aborted relative to scheduler switches, fault injections, and tier
transitions.  The :class:`Tracer` records exactly that — a bounded ring of
typed :class:`TraceEvent`\\ s whose timestamps are deterministic hardware
counters (retired uops / scheduler steps), never wall-clock time, so the
same seed always yields the same byte-for-byte event stream and a failing
chaos schedule can be diagnosed offline from its dump.

Overhead contract: tracing must never perturb the reproduction.

- Every emission site guards with ``if tracer.enabled:`` — the disabled
  path costs one attribute check and nothing else (``NULL_TRACER`` is the
  shared always-disabled instance every component defaults to).
- Events are append-only records of state the machine already computed;
  no emission reads the PRNGs, the heap, or any counter that feeds back
  into execution, so enabling tracing is observationally invisible
  (enforced end-to-end by ``tests/test_differential.py``).
- A tracer picks no dispatch path: traced machines run fused code too.
  Every machine-side emission sits in a region-lifecycle method, or a
  reference step, that the fast paths reach at the reference loop's
  points with counters flushed, so the stream is the reference loop's
  (enforced by the traced cross-tier tests).
- The ring is bounded (``capacity`` events, oldest dropped first) and
  flags truncation rather than growing without bound.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

#: The event taxonomy (DESIGN.md §8).  ``args`` keys per kind:
#:
#: - ``region_enter``    — method, region, pc
#: - ``region_commit``   — method, region, uops, lines_read, lines_written
#: - ``region_abort``    — method, region, reason, abort_pc, uops,
#:                         lines_read, lines_written
#: - ``region_retry``    — method, region, attempt, backoff_cycles
#: - ``region_fallback`` — method, region (patched to non-speculative code)
#: - ``region_suppressed`` — method, region (entry skipped: already patched)
#: - ``region_capacity`` — method, region, mode, used, limit (a best-effort
#:                         HTM capacity abort: which bound tripped, and how)
#: - ``fallback_lock``   — op ("acquire"/"release"/"wait"), depth (the
#:                         hybrid fallback lock's escalation traffic)
#: - ``ctx_switch``      — from_tid (``-1`` for the initial dispatch)
#: - ``tier_compile``    — method, blocked_asserts
#: - ``adaptive_recompile`` — method, blocked_pcs, rate
#: - ``fault_armed``     — fault (+ offset / line_limit / store_limit),
#:                         region_index
#: - ``interrupt``       — delivered pending injected interrupt
#:
#: Host sweep-supervisor lifecycle (``tid`` is the cell index, ``ts`` the
#: supervisor's own deterministic event sequence number):
#:
#: - ``cell_retry``      — key, attempt, backoff_s, failure (the failure
#:                         class being retried: exception/timeout/worker_lost)
#: - ``cell_timeout``    — key, timeout_s (cell exceeded its wall budget)
#: - ``pool_rebuild``    — rebuilds, reason (worker pool torn down/rebuilt)
#: - ``quarantine``      — key, attempts, failure (cell exhausted its budget)
#: - ``degrade_serial``  — rebuilds (pool gave up; remaining cells serial)
#:
#: Sweep-server lifecycle (``tid`` is the client id, ``ts`` the server's
#: deterministic event sequence number):
#:
#: - ``request_accepted`` — request, cells (one validated submit)
#: - ``cell_dedup``      — key, waiters (an in-flight cell gained a tenant)
#: - ``cell_served``     — key, source (hot/disk/cold/failed), waiters
#: - ``client_evicted``  — reason (a slow consumer lost its connection)
EVENT_KINDS = (
    "region_enter",
    "region_commit",
    "region_abort",
    "region_retry",
    "region_fallback",
    "region_suppressed",
    "region_capacity",
    "fallback_lock",
    "ctx_switch",
    "tier_compile",
    "adaptive_recompile",
    "fault_armed",
    "interrupt",
    "cell_retry",
    "cell_timeout",
    "pool_rebuild",
    "quarantine",
    "degrade_serial",
    "request_accepted",
    "cell_dedup",
    "cell_served",
    "client_evicted",
)


@dataclass(frozen=True)
class TraceEvent:
    """One typed trace event.

    ``ts`` is a deterministic logical timestamp (the machine's retired-uop
    counter, or the scheduler's global step counter for ``ctx_switch``);
    ``args`` is a sorted tuple of ``(key, value)`` pairs so events are
    hashable and two streams compare bit-for-bit with ``==``.
    """

    ts: int
    kind: str
    tid: int
    args: tuple = ()

    def arg(self, key: str, default=None):
        for k, v in self.args:
            if k == key:
                return v
        return default

    def describe(self) -> str:
        detail = " ".join(f"{k}={v}" for k, v in self.args)
        return f"@{self.ts} t{self.tid} {self.kind} {detail}".rstrip()


class _TracerAPI:
    """Shared typed-emission surface; subclasses define :meth:`emit`."""

    enabled = False

    def emit(self, kind: str, ts: int, tid: int = 0, **args) -> None:
        raise NotImplementedError  # pragma: no cover - abstract

    # -- region lifecycle --------------------------------------------------
    def region_enter(self, ts, tid, method, region, pc) -> None:
        self.emit("region_enter", ts, tid, method=method, region=region, pc=pc)

    def region_commit(self, ts, tid, method, region, uops,
                      lines_read, lines_written) -> None:
        self.emit("region_commit", ts, tid, method=method, region=region,
                  uops=uops, lines_read=lines_read,
                  lines_written=lines_written)

    def region_abort(self, ts, tid, method, region, reason, abort_pc, uops,
                     lines_read, lines_written) -> None:
        self.emit("region_abort", ts, tid, method=method, region=region,
                  reason=reason, abort_pc=abort_pc, uops=uops,
                  lines_read=lines_read, lines_written=lines_written)

    def region_retry(self, ts, tid, method, region, attempt,
                     backoff_cycles) -> None:
        self.emit("region_retry", ts, tid, method=method, region=region,
                  attempt=attempt, backoff_cycles=backoff_cycles)

    def region_fallback(self, ts, tid, method, region) -> None:
        self.emit("region_fallback", ts, tid, method=method, region=region)

    def region_suppressed(self, ts, tid, method, region) -> None:
        self.emit("region_suppressed", ts, tid, method=method, region=region)

    def region_capacity(self, ts, tid, method, region, mode, used,
                        limit) -> None:
        self.emit("region_capacity", ts, tid, method=method, region=region,
                  mode=mode, used=used, limit=limit)

    def fallback_lock(self, ts, tid, op, depth) -> None:
        self.emit("fallback_lock", ts, tid, op=op, depth=depth)

    # -- scheduler / tiers / faults ---------------------------------------
    def ctx_switch(self, ts, tid, from_tid) -> None:
        self.emit("ctx_switch", ts, tid, from_tid=from_tid)

    def tier_compile(self, ts, method, blocked_asserts) -> None:
        self.emit("tier_compile", ts, method=method,
                  blocked_asserts=blocked_asserts)

    def adaptive_recompile(self, ts, method, blocked_pcs, rate) -> None:
        self.emit("adaptive_recompile", ts, method=method,
                  blocked_pcs=blocked_pcs, rate=rate)

    def fault_armed(self, ts, tid, kind, region_index, **detail) -> None:
        self.emit("fault_armed", ts, tid, fault=kind,
                  region_index=region_index, **detail)

    def interrupt(self, ts) -> None:
        self.emit("interrupt", ts)

    # -- host sweep supervisor (tid = cell index) --------------------------
    def cell_retry(self, ts, tid, key, attempt, backoff_s, failure) -> None:
        self.emit("cell_retry", ts, tid, key=key, attempt=attempt,
                  backoff_s=backoff_s, failure=failure)

    def cell_timeout(self, ts, tid, key, timeout_s) -> None:
        self.emit("cell_timeout", ts, tid, key=key, timeout_s=timeout_s)

    def pool_rebuild(self, ts, rebuilds, reason) -> None:
        self.emit("pool_rebuild", ts, rebuilds=rebuilds, reason=reason)

    def quarantine(self, ts, tid, key, attempts, failure) -> None:
        self.emit("quarantine", ts, tid, key=key, attempts=attempts,
                  failure=failure)

    def degrade_serial(self, ts, rebuilds) -> None:
        self.emit("degrade_serial", ts, rebuilds=rebuilds)

    # -- sweep server (tid = client id) ------------------------------------
    def request_accepted(self, ts, tid, request, cells) -> None:
        self.emit("request_accepted", ts, tid, request=request, cells=cells)

    def cell_dedup(self, ts, tid, key, waiters) -> None:
        self.emit("cell_dedup", ts, tid, key=key, waiters=waiters)

    def cell_served(self, ts, key, source, waiters) -> None:
        self.emit("cell_served", ts, key=key, source=source, waiters=waiters)

    def client_evicted(self, ts, tid, reason) -> None:
        self.emit("client_evicted", ts, tid, reason=reason)


class NullTracer(_TracerAPI):
    """The disabled tracer: every emission is a no-op, nothing is stored.

    Components hold ``NULL_TRACER`` by default and guard emission with
    ``if tracer.enabled:``, so the cost of disabled tracing is a single
    attribute check per already-rare lifecycle event.
    """

    enabled = False
    #: immutable empties so "zero emission" is checkable, not just assumed.
    events: tuple = ()
    emitted = 0
    truncated = False

    def emit(self, kind: str, ts: int, tid: int = 0, **args) -> None:
        return None


#: Shared disabled tracer (stateless, safe to share between machines).
NULL_TRACER = NullTracer()


class Tracer(_TracerAPI):
    """Enabled tracer: a bounded ring buffer of :class:`TraceEvent`."""

    enabled = True

    def __init__(self, capacity: int = 1 << 16) -> None:
        if capacity <= 0:
            raise ValueError("tracer capacity must be positive")
        self.capacity = capacity
        self._ring: deque[TraceEvent] = deque(maxlen=capacity)
        #: total events ever emitted (>= len(events) once truncating).
        self.emitted = 0

    def emit(self, kind: str, ts: int, tid: int = 0, **args) -> None:
        self.emitted += 1
        self._ring.append(
            TraceEvent(ts=ts, kind=kind, tid=tid,
                       args=tuple(sorted(args.items())))
        )

    @property
    def events(self) -> list[TraceEvent]:
        """The retained events, oldest first."""
        return list(self._ring)

    @property
    def truncated(self) -> bool:
        """True when the ring dropped events (emitted more than capacity)."""
        return self.emitted > self.capacity

    def clear(self) -> None:
        self._ring.clear()
        self.emitted = 0

    def __len__(self) -> int:
        return len(self._ring)
