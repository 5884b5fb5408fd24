"""The asyncio multi-tenant sweep server.

Batch sweeps made a service: a long-running :class:`SweepServer` accepts
experiment-cell requests from many concurrent clients (newline-delimited
JSON over TCP, :mod:`repro.service.protocol`), schedules them across a
persistent supervised worker pool, and streams results back as cells
complete.  Four disciplines make "simulation as a service" more than a
socket in front of a process pool:

- **In-flight dedup.**  Cells are identified by the canonical memo key;
  N tenants asking for the same (workload, config, seed) share one
  execution, each receiving its own result event.  The dedup table spans
  pending *and* executing cells, so a burst of identical submits costs
  one cell of compute no matter how it interleaves with scheduling.

- **Memory-speed cache hits.**  A bounded LRU hot cache
  (:class:`repro.harness.diskcache.HotCache`) fronts the checksummed
  disk cache: a repeat cell is answered from the event loop without
  touching the pool, the disk, or pickle.  Disk hits are promoted into
  the hot layer on first touch.

- **Per-tenant fairness + backpressure.**  Every client owns a bounded
  send queue drained by its own writer task; fan-out of a completed cell
  rotates its starting client (round-robin), so one greedy tenant cannot
  starve the others' streams.  A client that stops draining its queue is
  *evicted*: a typed ``slow_consumer`` error is written best-effort and
  the connection closed — slow consumers shed load instead of wedging
  the server.

- **Determinism.**  Cells are the harness's :class:`~repro.harness.Cell`
  and execute through the same ``compute_cell`` as a serial run, in
  worker processes with no shared state; the payload a tenant receives
  is byte-identical (through
  :func:`~repro.service.protocol.canonical_json`) to a serial run,
  whether the cell was computed cold, deduped, or served from either
  cache layer.  ``tests/test_service.py`` enforces this under
  concurrent duplicate submissions and mid-stream disconnects.

The server holds one long-lived sweep supervisor
(:class:`repro.harness.Supervisor`) for its lifetime, sized by
:func:`repro.harness.default_workers`, and runs every batch through it:
the pool stays warm across batches, every cell of a pooled server runs
in a worker (never in the server's own process), and a broken pool is
rebuilt, a raising cell retried, and an exhausted one quarantined
exactly as in batch sweeps — the service inherits the whole resilience
ladder instead of reimplementing it.
"""

from __future__ import annotations

import asyncio
import itertools
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from ..harness import diskcache
from ..harness.parallel import Cell, compute_cell
from ..harness.supervisor import Supervisor, SupervisorConfig, default_workers
from ..obs import NULL_TRACER, Metrics, Tracer, to_chrome_trace
from .protocol import (
    FRAME_LIMIT,
    PROTOCOL_VERSION,
    ProtocolError,
    encode,
    decode,
    payload_digest,
    result_payload,
    validate_cell,
)

#: ops the dispatcher understands.
_OPS = ("submit", "watch", "ping", "stats")


@dataclass
class _Waiter:
    """One tenant's claim on a cell: where to deliver, and under which
    client-visible ids."""

    client: "_Client"
    cell_id: str
    request_id: str
    source: str  # how this waiter's copy was satisfied: cold/dedup/...


@dataclass
class _Job:
    """One scheduled execution (1 cell, N waiters)."""

    cell: Cell
    key: tuple
    waiters: list[_Waiter] = field(default_factory=list)


class _Client:
    """Per-connection state: send queue, writer task, id bookkeeping."""

    def __init__(self, cid: int, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter, queue_limit: int) -> None:
        self.cid = cid
        self.reader = reader
        self.writer = writer
        self.queue: asyncio.Queue = asyncio.Queue(maxsize=queue_limit)
        self.writer_task: asyncio.Task | None = None
        self.used_ids: set[str] = set()
        self.request_seq = itertools.count(1)
        self.cell_seq = itertools.count(1)
        #: request id -> undelivered cell count (for the ``done`` event).
        self.open_requests: dict[str, int] = {}
        self.watching = False
        self.evicted = False


class SweepServer:
    """A multi-tenant simulation server over asyncio streams.

    ``workers=None`` defers to :func:`repro.harness.default_workers`
    (the ``REPRO_WORKERS`` discipline shared with every other pool in
    the harness); ``disk_cache=None`` defers to ``REPRO_DISK_CACHE``
    exactly like batch sweeps.  ``port=0`` binds an ephemeral port
    (returned by :meth:`start`) — the in-process form the tests and the
    benchmark use.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        workers: int | None = None,
        batch_max: int = 8,
        queue_limit: int = 256,
        hot_cache: diskcache.HotCache | None = None,
        disk_cache: bool | None = None,
        tracer=NULL_TRACER,
    ) -> None:
        self.host = host
        self.port = port
        self.workers = default_workers() if workers is None else max(1, workers)
        self.batch_max = max(1, batch_max)
        self.queue_limit = max(1, queue_limit)
        self.hot = hot_cache if hot_cache is not None else diskcache.HotCache()
        self.disk = diskcache.enabled(disk_cache)
        #: the server's one process pool, alive as long as the server.
        self.supervisor = Supervisor(SupervisorConfig(workers=self.workers))
        self.tracer = tracer
        self.metrics = Metrics()

        self._server: asyncio.AbstractServer | None = None
        self._clients: dict[int, _Client] = {}
        self._conn_tasks: set[asyncio.Task] = set()
        self._next_cid = itertools.count(1)
        self._pending: deque[_Job] = deque()
        self._inflight: dict[tuple, _Job] = {}
        self._wake = asyncio.Event()
        self._scheduler_task: asyncio.Task | None = None
        #: the scheduler's thread (batches block it, never the loop).
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="sweep-batch")
        #: round-robin rotation for fan-out fairness.
        self._rr = 0
        #: deterministic event sequence for service trace timestamps.
        self._seq = 0
        self.served = 0
        self.executions = 0

    # -- lifecycle ---------------------------------------------------------
    async def start(self) -> tuple[str, int]:
        """Bind and start serving; returns the (host, port) actually bound."""
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port, limit=FRAME_LIMIT)
        self.host, self.port = self._server.sockets[0].getsockname()[:2]
        self._scheduler_task = asyncio.ensure_future(self._scheduler())
        return self.host, self.port

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    async def stop(self) -> None:
        """Stop accepting, drop clients, and tear the pool down."""
        if self._scheduler_task is not None:
            self._scheduler_task.cancel()
            try:
                await self._scheduler_task
            except BaseException:
                pass
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for client in list(self._clients.values()):
            self._drop_client(client)
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        # close on the batch thread, after any batch still running: a
        # pool killed underneath a running sweep would be rebuilt by it
        await asyncio.get_running_loop().run_in_executor(
            self._executor, self.supervisor.close)
        self._executor.shutdown(wait=False)

    async def __aenter__(self) -> "SweepServer":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    def _tick(self) -> int:
        self._seq += 1
        return self._seq

    # -- counters ----------------------------------------------------------
    def counters(self) -> dict:
        """JSON-safe server stats: service counters + cache counters."""
        return {
            "clients": len(self._clients),
            "served": self.served,
            "executions": self.executions,
            "dedup_hits": self.metrics.counter("service.dedup_hits"),
            "evictions": self.metrics.counter("service.evictions"),
            "pending": len(self._pending),
            "inflight": len(self._inflight),
            "workers": self.workers,
            "disk_cache": self.disk,
            "cache": self.hot.counters(),
        }

    # -- connection handling -----------------------------------------------
    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        client = _Client(next(self._next_cid), reader, writer,
                         self.queue_limit)
        self._clients[client.cid] = client
        client.writer_task = asyncio.ensure_future(self._drain(client))
        self._enqueue(client, {
            "event": "hello", "server": "repro-sweep-server",
            "version": PROTOCOL_VERSION, "client": client.cid,
        })
        try:
            while not client.evicted:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    self._enqueue(client, ProtocolError(
                        "bad_request", "frame exceeds the line limit").event())
                    break
                except (ConnectionError, OSError):
                    break
                if not line:
                    break
                try:
                    message = decode(line)
                except ProtocolError as exc:
                    self._enqueue(client, exc.event())
                    continue
                try:
                    self._dispatch(client, message)
                except ProtocolError as exc:
                    extra = {}
                    if isinstance(message.get("id"), str):
                        extra["id"] = message["id"]
                    self._enqueue(client, exc.event(**extra))
        except asyncio.CancelledError:
            # server shutdown: end the task *uncancelled* so 3.11's
            # stream-protocol completion callback doesn't re-raise into
            # the event loop.
            pass
        finally:
            self._drop_client(client)

    def _drop_client(self, client: _Client) -> None:
        """Forget a client; its pending cells keep computing (dedup peers
        may be waiting on them) but deliveries to it are skipped."""
        self._clients.pop(client.cid, None)
        if client.writer_task is not None:
            client.writer_task.cancel()
        try:
            client.writer.close()
        except Exception:
            pass

    def _evict(self, client: _Client, reason: str) -> None:
        """Disconnect a slow consumer with a typed error (best-effort
        direct write — its queue is, by definition, full)."""
        if client.evicted:
            return
        client.evicted = True
        self.metrics.inc("service.evictions")
        if self.tracer.enabled:
            self.tracer.client_evicted(self._tick(), client.cid, reason=reason)
        try:
            client.writer.write(encode(
                ProtocolError("slow_consumer",
                              f"send queue overflowed ({reason})").event()))
        except Exception:
            pass
        self._drop_client(client)

    def _enqueue(self, client: _Client, message: dict) -> None:
        """Queue one event for a client; overflow evicts the client."""
        if client.evicted or client.cid not in self._clients:
            return
        try:
            client.queue.put_nowait(message)
        except asyncio.QueueFull:
            self._evict(client, f"{self.queue_limit} events queued")

    async def _drain(self, client: _Client) -> None:
        """The client's writer task: its queue → its socket, in order."""
        try:
            while True:
                message = await client.queue.get()
                client.writer.write(encode(message))
                await client.writer.drain()
        except (asyncio.CancelledError, ConnectionError, OSError):
            pass

    # -- request dispatch --------------------------------------------------
    def _dispatch(self, client: _Client, message: dict) -> None:
        op = message.get("op")
        if op not in _OPS:
            raise ProtocolError("unknown_op",
                                f"unknown op {op!r}; expected one of {_OPS}")
        echo = ({"id": message["id"]}
                if isinstance(message.get("id"), str) else {})
        if op == "ping":
            self._enqueue(client, {"event": "pong", **echo})
        elif op == "stats":
            self._enqueue(client, {"event": "stats",
                                   "counters": self.counters(), **echo})
        elif op == "watch":
            client.watching = True
            self._enqueue(client, {"event": "watching", **echo})
        elif op == "submit":
            self._submit(client, message)

    def _request_id(self, client: _Client, message: dict) -> str:
        """Client-chosen id if fresh, else a deterministic server id
        (``r<n>`` in per-connection acceptance order)."""
        request_id = message.get("id")
        if request_id is None:
            request_id = f"r{next(client.request_seq)}"
        elif not isinstance(request_id, str) or not request_id:
            raise ProtocolError("bad_request",
                                "id must be a non-empty string")
        if request_id in client.used_ids:
            raise ProtocolError(
                "duplicate_id",
                f"request id {request_id!r} was already used on this "
                f"connection")
        return request_id

    def _submit(self, client: _Client, message: dict) -> None:
        specs = message.get("cells")
        if not isinstance(specs, list) or not specs:
            raise ProtocolError("bad_request",
                                "submit needs a non-empty cells list")
        request_id = self._request_id(client, message)
        # validate everything before scheduling anything: a submit is
        # accepted atomically or rejected atomically.
        cells = [validate_cell(spec, index)
                 for index, spec in enumerate(specs)]
        client.used_ids.add(request_id)
        cell_ids = [f"c{client.cid}-{next(client.cell_seq)}" for _ in cells]
        client.open_requests[request_id] = len(cells)
        self._enqueue(client, {"event": "accepted", "id": request_id,
                               "cells": cell_ids})
        if self.tracer.enabled:
            self.tracer.request_accepted(
                self._tick(), client.cid, request=request_id,
                cells=len(cells))
        self.metrics.inc("service.requests")
        for cell, cell_id in zip(cells, cell_ids):
            self._schedule(client, cell, cell_id, request_id)

    def _schedule(self, client: _Client, cell: Cell, cell_id: str,
                  request_id: str) -> None:
        key = cell.key()
        if not cell.trace:
            # cache ladder: hot LRU, then (if enabled) the disk cache.
            result, source = self.hot.get(key, disk=self.disk)
            if result is not None:
                self.metrics.inc(f"service.{source}_served")
                self._deliver(
                    _Waiter(client, cell_id, request_id, source),
                    result_payload(result))
                if self.tracer.enabled:
                    self.tracer.cell_served(self._tick(), key=repr(key),
                                            source=source, waiters=1)
                return
        waiter = _Waiter(client, cell_id, request_id, "cold")
        job = self._inflight.get(key)
        if job is not None:
            # in-flight dedup: attach to the existing execution.
            waiter.source = "dedup"
            job.waiters.append(waiter)
            self.metrics.inc("service.dedup_hits")
            if self.tracer.enabled:
                self.tracer.cell_dedup(self._tick(), client.cid,
                                       key=repr(key),
                                       waiters=len(job.waiters))
            return
        job = _Job(cell=cell, key=key, waiters=[waiter])
        self._inflight[key] = job
        self._pending.append(job)
        self._wake.set()

    # -- delivery ----------------------------------------------------------
    def _deliver(self, waiter: _Waiter, payload: dict | None,
                 error: str | None = None, trace: dict | None = None) -> None:
        client = waiter.client
        if client.cid not in self._clients:
            return
        if error is not None:
            self._enqueue(client, ProtocolError("compute_failed", error)
                          .event(cell=waiter.cell_id, request=waiter.request_id))
        else:
            self.served += 1
            self._enqueue(client, {
                "event": "result",
                "cell": waiter.cell_id,
                "request": waiter.request_id,
                "source": waiter.source,
                "digest": payload_digest(payload),
                "payload": payload,
            })
            if trace is not None:
                self._enqueue(client, {
                    "event": "trace", "cell": waiter.cell_id,
                    "request": waiter.request_id, "trace": trace,
                })
        remaining = client.open_requests.get(waiter.request_id)
        if remaining is not None:
            remaining -= 1
            if remaining <= 0:
                client.open_requests.pop(waiter.request_id, None)
                self._enqueue(client, {"event": "done",
                                       "id": waiter.request_id})
            else:
                client.open_requests[waiter.request_id] = remaining

    def _finish(self, job: _Job, outcome: tuple) -> None:
        """Deliver one completed job to every waiter, round-robin."""
        self._inflight.pop(job.key, None)
        status, detail = outcome[0], outcome[1]
        payload = None
        trace_doc = None
        error = None
        if status == "ok":
            result, traced = detail
            if not job.cell.trace:
                self.hot.put(job.key, result, disk=self.disk)
            payload = result_payload(result)
            if traced is not None:
                events, truncated = traced
                trace_doc = to_chrome_trace(events, truncated=truncated)
        else:
            error = detail
            self.metrics.inc("service.compute_failures")
        if self.tracer.enabled:
            self.tracer.cell_served(
                self._tick(), key=repr(job.key),
                source="cold" if error is None else "failed",
                waiters=len(job.waiters))
        # rotate the fan-out start so no client is always served first.
        waiters = job.waiters
        if len(waiters) > 1:
            start = self._rr % len(waiters)
            self._rr += 1
            waiters = waiters[start:] + waiters[:start]
        for waiter in waiters:
            self._deliver(waiter, payload, error=error, trace=trace_doc)

    def _broadcast_progress(self) -> None:
        if not any(c.watching for c in self._clients.values()):
            return
        event = {"event": "progress", "pending": len(self._pending),
                 "inflight": len(self._inflight), "served": self.served,
                 "executions": self.executions}
        for client in list(self._clients.values()):
            if client.watching:
                self._enqueue(client, event)

    # -- scheduling core ---------------------------------------------------
    async def _scheduler(self) -> None:
        """Batch pending cells and run them off-loop, one batch at a time
        (each batch is itself parallel across the worker pool)."""
        loop = asyncio.get_running_loop()
        while True:
            await self._wake.wait()
            self._wake.clear()
            while self._pending:
                batch = [self._pending.popleft()
                         for _ in range(min(self.batch_max,
                                            len(self._pending)))]
                self._broadcast_progress()
                outcomes = await loop.run_in_executor(
                    self._executor, self._compute_batch,
                    [job.cell for job in batch])
                self.executions += len(batch)
                for job, outcome in zip(batch, outcomes):
                    self._finish(job, outcome)
                self._broadcast_progress()

    # -- batch execution (runs in the executor thread) ---------------------
    def _compute_batch(self, cells: list[Cell]) -> list[tuple]:
        """One batch → one outcome per cell:
        ``("ok", (result, events|None))`` or ``("failed", message)``."""
        sweep = self.supervisor.run(cells, _compute_job)
        self.metrics.inc("service.pool_rebuilds", sweep.pool_rebuilds)
        failed = {failure.index: failure for failure in sweep.failures}
        return [
            ("failed", f"{failed[index].kind}: {failed[index].error}")
            if index in failed else ("ok", outcome)
            for index, outcome in enumerate(sweep.results)
        ]


def _compute_job(cell: Cell) -> tuple:
    """Worker entry: ``(result, (events, truncated) | None)`` for one cell
    (a live tracer's events ride back with the result for ``trace=True``
    cells)."""
    if cell.trace:
        tracer = Tracer()
        return cell.run(tracer), (tracer.events, tracer.truncated)
    return compute_cell(cell)[1], None
