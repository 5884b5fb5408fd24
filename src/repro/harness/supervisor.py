"""Fault-tolerant sweep supervisor: experiment cells as host transactions.

The machine under study gets its reliability from atomic execution plus
abort-and-re-execute; the *host* harness historically had neither — one
worker crash in :mod:`repro.harness.parallel` aborted an entire figure
sweep, and a hung cell hung it forever.  This module mirrors the
machine's retry → backoff → fallback ladder one level up: each cell of a
sweep is an all-or-nothing transaction whose only observable effect is a
completed result (or an explicit failure record), re-executable any
number of times.

The ladder, top to bottom (DESIGN.md §11):

1. **Run** each cell on a process pool; results come back in
   submission order, whatever order the pool completes them in.
2. **Timeout** — a cell past its wall budget is abandoned; the pool that
   hosts the hung worker is killed and rebuilt.
3. **Retry with backoff** — a failed cell (exception, timeout, lost
   worker) is re-enqueued after a bounded exponential backoff, up to
   ``max_attempts`` total tries.
4. **Pool rebuild** — a broken pool (worker ``os._exit``, OOM-kill, hang)
   is torn down and rebuilt; cells whose work was merely *lost* (their
   worker died of someone else's fault) are re-enqueued without being
   charged an attempt.
5. **Degrade to serial** — after ``max_pool_rebuilds`` rebuilds the pool
   is abandoned entirely and remaining cells run in-process, one by one.
6. **Quarantine** — a cell that exhausts its attempt budget is recorded
   in the failure manifest and the sweep *continues*: partial results
   plus an explicit manifest, never a dead sweep.

Crash consistency comes from an append-only **journal** of completed
cells (:class:`Journal`): each record is length-prefixed and
sha256-checksummed, so a SIGKILL mid-write leaves a torn tail that load
detects and discards.  Re-running the same sweep with the same journal
resumes: already-journaled cells are spliced in without recomputation.

Determinism contract (the headline invariant, enforced by
``tests/test_hostchaos.py``): cells are pure functions of their items, so
no matter which faults fire — kills, hangs, transient exceptions,
corrupted cache entries — a supervised sweep that completes produces
results byte-identical to a clean serial run.

This is the only code in the harness that runs a process pool.
:class:`Supervisor` is its long-lived form: it owns one pool, sized at
``workers``, across :meth:`Supervisor.run` calls and rebuilds it only
after a break or a timeout, so a caller that runs many small sweeps (the
sweep server, one batch at a time) pays worker start-up once.
:func:`run_supervised` is that form used once.

Lifecycle is observable end to end: ``cell_retry`` / ``cell_timeout`` /
``pool_rebuild`` / ``quarantine`` / ``degrade_serial`` trace events
(timestamped by the supervisor's own deterministic event sequence
number), each counted once in a :class:`SweepOutcome` field, which
:meth:`SweepOutcome.manifest` and
:func:`repro.harness.report.render_supervisor` read.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import struct
import threading
import time
import warnings
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass
from pathlib import Path

from ..obs import NULL_TRACER

#: patchable sleep so tests can run retry ladders without wall delay.
_sleep = time.sleep


def default_workers() -> int:
    """The harness-wide worker count: ``REPRO_WORKERS`` clamped to >= 1,
    else 1 (serial; parallelism is opt-in).

    This is *the* one place worker counts come from — the supervisor
    and the sweep server both defer here, so one environment variable
    steers every pool.  The value is clamped, not trusted:
    ``REPRO_WORKERS=0`` or a negative count means serial, and a
    malformed value (``"four"``, ``"4x"``) falls back to serial with a
    warning instead of raising ``ValueError`` deep inside a sweep — a
    bad environment variable must never kill hours of cells.
    """
    env = os.environ.get("REPRO_WORKERS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            warnings.warn(
                f"malformed REPRO_WORKERS={env!r}; falling back to serial "
                "(workers=1)", RuntimeWarning, stacklevel=2,
            )
            return 1
    return 1


@dataclass(frozen=True)
class SupervisorConfig:
    """Tuning knobs for one supervised sweep.

    ``workers=None`` defers to :func:`default_workers`
    (the ``REPRO_WORKERS`` discipline); ``cell_timeout_s=None`` disables
    the wall budget (cells of unknown duration); ``journal_path=None``
    disables checkpoint/resume.
    """

    workers: int | None = None
    cell_timeout_s: float | None = None
    max_attempts: int = 3
    backoff_base_s: float = 0.005
    backoff_factor: float = 2.0
    backoff_max_s: float = 0.25
    max_pool_rebuilds: int = 3
    journal_path: str | os.PathLike | None = None


@dataclass(frozen=True)
class CellFailure:
    """One quarantined cell: the failure manifest entry."""

    index: int
    key: str
    attempts: int
    kind: str  # "exception" | "timeout" | "worker_lost"
    error: str


@dataclass
class SweepOutcome:
    """Everything one supervised sweep produced.

    ``results`` is in submission order;
    quarantined slots hold ``None`` (consult :attr:`failures` for truth —
    a legitimate ``None`` result is indistinguishable by design, and no
    harness cell returns one).
    """

    results: list
    failures: list[CellFailure]
    completed: int
    resumed: int
    retries: int
    timeouts: int
    pool_rebuilds: int
    degraded_serial: bool

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def quarantined(self) -> int:
        return len(self.failures)

    def manifest(self) -> dict:
        """JSON-safe failure manifest (the CI artifact on red runs)."""
        return {
            "cells": len(self.results),
            "completed": self.completed,
            "resumed": self.resumed,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "pool_rebuilds": self.pool_rebuilds,
            "degraded_serial": self.degraded_serial,
            "quarantined": self.quarantined,
            "failures": [asdict(f) for f in self.failures],
        }

    def raise_on_failure(self) -> None:
        if self.failures:
            detail = "\n".join(
                f"  {f.key}: {f.kind} x{f.attempts} — {f.error}"
                for f in self.failures
            )
            raise RuntimeError(
                f"{self.quarantined} cell(s) quarantined:\n{detail}"
            )


# -- crash-consistent completion journal --------------------------------------

#: per-record magic; a record is MAGIC + <u64 payload length> +
#: <sha256(payload)> + payload, payload = pickle((key, result)).
_JOURNAL_MAGIC = b"RSJ1"
_HEADER = struct.Struct("<8sQ")  # magic padded to 8, then length


class Journal:
    """Append-only journal of completed cells, torn-tail tolerant.

    Records are self-delimiting and individually checksummed;
    :meth:`load` replays the longest valid prefix and silently discards
    anything after the first torn or corrupt record — exactly the state a
    SIGKILL mid-append leaves behind.  Appends flush and fsync so a
    record that :meth:`load` returns really survived the crash.
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = Path(path)

    def load(self) -> dict[str, object]:
        """key → result for every intact record (empty if no journal)."""
        try:
            data = self.path.read_bytes()
        except OSError:
            return {}
        entries: dict[str, object] = {}
        offset = 0
        header_size = _HEADER.size + 32
        while offset + header_size <= len(data):
            magic, length = _HEADER.unpack_from(data, offset)
            if magic[:4] != _JOURNAL_MAGIC:
                break
            start = offset + header_size
            payload = data[start:start + length]
            if len(payload) < length:
                break  # torn tail: the append was interrupted
            digest = data[offset + _HEADER.size:start]
            if hashlib.sha256(payload).digest() != digest:
                break  # corrupt record: stop replay here
            try:
                key, result = pickle.loads(payload)
            except Exception:
                break
            entries[key] = result
            offset = start + length
        return entries

    def append(self, key: str, result) -> None:
        """Durably record one completed cell; failures are non-fatal
        (an unjournaled completion merely recomputes on resume)."""
        try:
            payload = pickle.dumps((key, result))
            record = (
                _HEADER.pack(_JOURNAL_MAGIC.ljust(8, b"\0"), len(payload))
                + hashlib.sha256(payload).digest()
                + payload
            )
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with open(self.path, "ab") as handle:
                handle.write(record)
                handle.flush()
                os.fsync(handle.fileno())
        except Exception:
            pass


# -- the supervisor ------------------------------------------------------------

#: how often a pool worker checks that the process that built its pool
#: is still its parent.
PARENT_POLL_S = 1.0


def _exit_with_parent(parent: int) -> None:
    """Pool initializer: a worker exits once its parent is gone.

    A SIGKILLed parent cannot tear its pool down, and its idle workers
    would otherwise live on, re-parented, forever.  A daemon thread
    polls the parent pid and ``os._exit``s the worker when it changes.
    """

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(PARENT_POLL_S)
        os._exit(1)

    threading.Thread(target=watch, name="exit-with-parent",
                     daemon=True).start()


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a pool down even when a worker is hung: terminate first (the
    only way to unblock a hung worker), then shut down."""
    for process in list((getattr(pool, "_processes", None) or {}).values()):
        try:
            process.terminate()
        except Exception:
            pass
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:
        pass


class Supervisor:
    """The long-lived supervisor: one pool across many sweeps.

    With ``workers <= 1`` every sweep runs in-process.  Otherwise the
    pool is created by the first sweep that has work, sized at
    ``workers``, and every cell runs on it — a one-cell sweep included,
    so the caller's process never computes while it drives a pool.  A
    broken or timed-out pool is rebuilt inside the sweep that hit it;
    :meth:`close` (or leaving a ``with`` block) tears it down.  One
    thread at a time may call :meth:`run`.
    """

    def __init__(self, config: SupervisorConfig | None = None,
                 tracer=NULL_TRACER, key_fn=repr) -> None:
        self.config = config or SupervisorConfig()
        self.tracer = tracer
        self.key_fn = key_fn
        self.workers = (default_workers() if self.config.workers is None
                        else self.config.workers)
        self.pool: ProcessPoolExecutor | None = None

    def run(self, items, fn) -> SweepOutcome:
        """Map ``fn`` over ``items`` under the ladder; see
        :func:`run_supervised`."""
        return _Sweep(self, list(items), fn).run()

    def open(self) -> ProcessPoolExecutor:
        """The live pool, built on first use."""
        if self.pool is None:
            self.pool = ProcessPoolExecutor(
                max_workers=self.workers, initializer=_exit_with_parent,
                initargs=(os.getpid(),))
        return self.pool

    def close(self) -> None:
        if self.pool is not None:
            _kill_pool(self.pool)
            self.pool = None

    def __enter__(self) -> "Supervisor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class _Sweep:
    """State machine for one supervised sweep (see module docstring)."""

    def __init__(self, owner: Supervisor, items: list, fn) -> None:
        self.owner = owner
        self.items = items
        self.fn = fn
        self.config = owner.config
        self.tracer = owner.tracer
        self.keys = [owner.key_fn(item) for item in items]
        n = len(items)
        self.results: list = [None] * n
        self.done = [False] * n
        self.attempts = [0] * n
        self.failures: list[CellFailure] = []
        self.journal = (
            Journal(self.config.journal_path)
            if self.config.journal_path is not None else None
        )
        #: deterministic event sequence number: trace timestamps.
        self.seq = 0
        self.completed = 0
        self.resumed = 0
        self.retries = 0
        self.timeouts = 0
        self.pool_rebuilds = 0
        self.degraded = False

    def _tick(self) -> int:
        self.seq += 1
        return self.seq

    # -- cell bookkeeping --------------------------------------------------
    def _complete(self, index: int, result) -> None:
        self.results[index] = result
        self.done[index] = True
        self.completed += 1
        if self.journal is not None:
            self.journal.append(self.keys[index], result)

    def _handle_failure(self, index: int, kind: str, error: str,
                        backoff: bool = True) -> str:
        """Retry or quarantine a failed attempt; returns which it chose."""
        config = self.config
        if kind == "timeout":
            self.timeouts += 1
            if self.tracer.enabled:
                self.tracer.cell_timeout(
                    self._tick(), index, key=self.keys[index],
                    timeout_s=config.cell_timeout_s,
                )
        if self.attempts[index] >= config.max_attempts:
            self.done[index] = True  # done-with-failure; result slot stays None
            self.failures.append(CellFailure(
                index=index, key=self.keys[index],
                attempts=self.attempts[index], kind=kind, error=error,
            ))
            if self.tracer.enabled:
                self.tracer.quarantine(
                    self._tick(), index, key=self.keys[index],
                    attempts=self.attempts[index], failure=kind,
                )
            return "quarantined"
        self.retries += 1
        delay = 0.0
        if backoff:
            delay = min(
                config.backoff_max_s,
                config.backoff_base_s
                * config.backoff_factor ** (self.attempts[index] - 1),
            )
        if self.tracer.enabled:
            self.tracer.cell_retry(
                self._tick(), index, key=self.keys[index],
                attempt=self.attempts[index], backoff_s=delay, failure=kind,
            )
        if delay > 0:
            _sleep(delay)
        return "retry"

    # -- serial execution (workers<=1 and the degraded endgame) ------------
    def _run_serial(self, pending) -> None:
        """In-process loop with the same retry/quarantine ladder.

        No wall budget applies here: a hang in the supervisor's own
        process cannot be preempted portably, which is exactly why the
        pool path (which *can* kill a hung worker) is the default."""
        queue = deque(pending)
        while queue:
            index = queue.popleft()
            self.attempts[index] += 1
            try:
                result = self.fn(self.items[index])
            except Exception as exc:  # noqa: BLE001 - the ladder is the point
                if self._handle_failure(
                        index, "exception", repr(exc)) == "retry":
                    queue.appendleft(index)
                continue
            self._complete(index, result)

    # -- pool execution ----------------------------------------------------
    def _rebuild(self, reason: str) -> ProcessPoolExecutor | None:
        """Replace the owner's broken pool; None means the rebuild budget
        is spent and the sweep degrades to serial."""
        owner = self.owner
        owner.close()
        self.pool_rebuilds += 1
        if self.tracer.enabled:
            self.tracer.pool_rebuild(
                self._tick(), rebuilds=self.pool_rebuilds, reason=reason)
        if self.pool_rebuilds > self.config.max_pool_rebuilds:
            self.degraded = True
            if self.tracer.enabled:
                self.tracer.degrade_serial(
                    self._tick(), rebuilds=self.pool_rebuilds)
            return None
        return owner.open()

    def _run_pool(self, pending) -> None:
        config = self.config
        owner = self.owner
        workers = owner.workers
        queue: deque[int] = deque(pending)
        pool = owner.open()
        in_flight: dict = {}  # future -> (cell index, wall deadline | None)

        def abandon_in_flight() -> None:
            """Re-enqueue cells whose work was lost through no fault of
            their own — uncharged, per the transaction model."""
            for future, (index, _deadline) in in_flight.items():
                future.cancel()
                self.attempts[index] -= 1
                queue.append(index)
            in_flight.clear()

        try:
            while queue or in_flight:
                broken_reason = None
                # fill the pool (one wave at a time so a submitted
                # future's deadline approximates its start time)
                while queue and len(in_flight) < workers:
                    index = queue.popleft()
                    self.attempts[index] += 1
                    try:
                        future = pool.submit(self.fn, self.items[index])
                    except BrokenProcessPool as exc:
                        self.attempts[index] -= 1
                        queue.appendleft(index)
                        broken_reason = repr(exc)
                        break
                    deadline = (
                        time.monotonic() + config.cell_timeout_s
                        if config.cell_timeout_s is not None else None
                    )
                    in_flight[future] = (index, deadline)

                if broken_reason is None and in_flight:
                    deadlines = [
                        deadline for _idx, deadline in in_flight.values()
                        if deadline is not None
                    ]
                    wait_timeout = (
                        max(0.0, min(deadlines) - time.monotonic())
                        if deadlines else None
                    )
                    finished, _ = wait(
                        set(in_flight), timeout=wait_timeout,
                        return_when=FIRST_COMPLETED,
                    )
                    for future in finished:
                        index, _deadline = in_flight.pop(future)
                        try:
                            result = future.result()
                        except BrokenProcessPool as exc:
                            broken_reason = repr(exc)
                            if self._handle_failure(
                                    index, "worker_lost", repr(exc),
                                    backoff=False) == "retry":
                                queue.appendleft(index)
                        except Exception as exc:  # noqa: BLE001
                            if self._handle_failure(
                                    index, "exception",
                                    repr(exc)) == "retry":
                                queue.appendleft(index)
                        else:
                            self._complete(index, result)
                    if broken_reason is None:
                        now = time.monotonic()
                        hung = [
                            future
                            for future, (_idx, deadline) in in_flight.items()
                            if deadline is not None and now >= deadline
                        ]
                        for future in hung:
                            index, _deadline = in_flight.pop(future)
                            if self._handle_failure(
                                    index, "timeout",
                                    f"exceeded {config.cell_timeout_s}s wall "
                                    f"budget", backoff=False) == "retry":
                                queue.appendleft(index)
                        if hung:
                            # the hung worker still occupies a pool slot
                            # and cannot be cancelled individually
                            broken_reason = "cell timeout (hung worker)"

                if broken_reason is not None:
                    abandon_in_flight()
                    pool = self._rebuild(broken_reason)
                    if pool is None:
                        remaining = list(queue)
                        queue.clear()
                        self._run_serial(remaining)
                        return
        except BaseException:
            # work may still be in flight: never hand a busy pool to the
            # owner's next sweep
            owner.close()
            raise

    # -- entry -------------------------------------------------------------
    def run(self) -> SweepOutcome:
        if self.journal is not None:
            journaled = self.journal.load()
            for index, key in enumerate(self.keys):
                if not self.done[index] and key in journaled:
                    self.results[index] = journaled[key]
                    self.done[index] = True
                    self.resumed += 1
        pending = [i for i in range(len(self.items)) if not self.done[i]]
        if self.owner.workers <= 1:
            self._run_serial(pending)
        elif pending:
            self._run_pool(pending)
        return SweepOutcome(
            results=self.results,
            failures=self.failures,
            completed=self.completed,
            resumed=self.resumed,
            retries=self.retries,
            timeouts=self.timeouts,
            pool_rebuilds=self.pool_rebuilds,
            degraded_serial=self.degraded,
        )


def run_supervised(items, fn, config: SupervisorConfig | None = None,
                   tracer=NULL_TRACER, key_fn=repr) -> SweepOutcome:
    """Map ``fn`` over ``items`` under the fault-tolerance ladder.

    The long-lived :class:`Supervisor` used once: its pool lives for
    this one sweep.  Results come back in submission order.  ``fn`` must
    be a pure function of its item (that is what makes re-execution safe
    — the same discipline the machine's abort-and-re-execute relies on)
    and picklable for the pool path.  ``key_fn`` names a cell for the
    journal and the failure manifest; the default ``repr`` is stable for
    the harness's dataclass/tuple cells.
    """
    with Supervisor(config, tracer, key_fn) as supervisor:
        return supervisor.run(items, fn)
