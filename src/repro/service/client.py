"""Async client library for the sweep server.

:class:`SweepClient` wraps one NDJSON connection: typed submit/ping/
stats calls, an event pump that routes server events to the right
awaiter, and a :meth:`sweep` convenience that submits a cell list and
gathers every result (in cell order) — the closed-loop primitive the
benchmark and the CI smoke build on.

The client is deliberately thin: it never interprets payloads beyond
routing, so the bytes a caller sees are exactly the bytes the server's
canonical projection produced (which is what the determinism tests
compare against serial runs).
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field

from ..harness.parallel import Cell
from .protocol import FRAME_LIMIT, ProtocolError, cell_spec, decode, encode

#: events that terminate one submitted request.
_TERMINAL = ("done",)


class ServiceError(Exception):
    """A typed error event surfaced to the caller."""

    def __init__(self, code: str, detail: str) -> None:
        super().__init__(f"{code}: {detail}")
        self.code = code
        self.detail = detail


@dataclass
class SubmitHandle:
    """One accepted submit: its request id, the server-assigned cell ids,
    and the stream of its events."""

    request_id: str
    cell_ids: list[str]
    _queue: asyncio.Queue = field(default_factory=asyncio.Queue)

    async def events(self):
        """Yield this request's events until its ``done`` (exclusive)."""
        while True:
            event = await self._queue.get()
            if event.get("event") in _TERMINAL:
                return
            yield event

    async def results(self) -> dict[str, dict]:
        """cell id → result event, collected until ``done``.  A
        ``compute_failed`` error for a cell raises :class:`ServiceError`
        after the request completes (partial results are not silently
        dropped — the first failure wins)."""
        results: dict[str, dict] = {}
        failure: ServiceError | None = None
        async for event in self.events():
            if event.get("event") == "result":
                results[event["cell"]] = event
            elif event.get("event") == "error":
                failure = failure or ServiceError(
                    event.get("code", "?"), event.get("detail", ""))
        if failure is not None:
            raise failure
        return results


class SweepClient:
    """One tenant connection to a :class:`~repro.service.server.SweepServer`."""

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter, hello: dict) -> None:
        self._reader = reader
        self._writer = writer
        self.hello = hello
        self.client_id = hello.get("client")
        self._requests: dict[str, SubmitHandle] = {}
        self._cells: dict[str, SubmitHandle] = {}
        #: events that arrived before their request handle was registered
        #: (the server may answer a hot cell before the accepted event is
        #: processed); replayed on registration.
        self._orphans: list[dict] = []
        self._control: asyncio.Queue = asyncio.Queue()
        self._watch_queue: asyncio.Queue = asyncio.Queue()
        self._pump_task = asyncio.ensure_future(self._pump())
        self._next_id = 0

    # -- lifecycle ---------------------------------------------------------
    @classmethod
    async def connect(cls, host: str, port: int) -> "SweepClient":
        # FRAME_LIMIT, not the 64 KiB readline default: a streamed Chrome
        # trace is one (large) frame.
        reader, writer = await asyncio.open_connection(
            host, port, limit=FRAME_LIMIT)
        hello = decode(await reader.readline())
        if hello.get("event") != "hello":
            raise ServiceError("bad_request",
                               f"expected hello, got {hello!r}")
        return cls(reader, writer, hello)

    async def close(self) -> None:
        self._pump_task.cancel()
        try:
            await self._pump_task
        except BaseException:
            pass
        try:
            self._writer.close()
            await self._writer.wait_closed()
        except Exception:
            pass

    async def __aenter__(self) -> "SweepClient":
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()

    # -- event pump --------------------------------------------------------
    async def _pump(self) -> None:
        """Route incoming events: per-request queues for submit traffic,
        the control queue for pong/stats/watching acks, the watch queue
        for progress broadcasts."""
        while True:
            try:
                line = await self._reader.readline()
                event = decode(line) if line else None
            except (ProtocolError, ConnectionError, OSError, ValueError):
                event = None  # undecodable stream: treat like EOF
            if event is None:
                # connection gone: fail every outstanding request.
                eof = {"event": "error", "code": "bad_request",
                       "detail": "connection closed by server"}
                for handle in self._requests.values():
                    handle._queue.put_nowait(eof)
                    handle._queue.put_nowait({"event": "done"})
                self._control.put_nowait(eof)
                return
            kind = event.get("event")
            if kind in ("result", "trace"):
                handle = self._cells.get(event.get("cell"))
                if handle is not None:
                    handle._queue.put_nowait(event)
                else:
                    self._orphans.append(event)
            elif kind == "done":
                handle = self._requests.pop(event.get("id"), None)
                if handle is not None:
                    handle._queue.put_nowait(event)
                else:
                    self._orphans.append(event)
            elif kind == "progress":
                self._watch_queue.put_nowait(event)
            elif kind == "error" and ("request" in event or "cell" in event):
                # a per-cell compute failure inside a submit; may race
                # ahead of the accepted processing like results do.
                handle = (self._requests.get(event.get("request"))
                          or self._cells.get(event.get("cell")))
                if handle is not None:
                    handle._queue.put_nowait(event)
                else:
                    self._orphans.append(event)
            else:
                self._control.put_nowait(event)

    async def _send(self, message: dict) -> None:
        self._writer.write(encode(message))
        await self._writer.drain()

    async def _control_event(self) -> dict:
        event = await self._control.get()
        if event.get("event") == "error":
            raise ServiceError(event.get("code", "?"),
                               event.get("detail", ""))
        return event

    # -- operations --------------------------------------------------------
    async def submit(self, cells, request_id: str | None = None) -> SubmitHandle:
        """Submit a list of cells (:class:`~repro.harness.Cell` or wire
        dicts); returns the accepted handle or raises :class:`ServiceError`."""
        specs = [cell_spec(cell) if isinstance(cell, Cell) else cell
                 for cell in cells]
        message: dict = {"op": "submit", "cells": specs}
        if request_id is not None:
            message["id"] = request_id
        await self._send(message)
        accepted = await self._control_event()
        if accepted.get("event") != "accepted":
            raise ServiceError("bad_request",
                               f"expected accepted, got {accepted!r}")
        handle = SubmitHandle(request_id=accepted["id"],
                              cell_ids=list(accepted["cells"]))
        self._requests[handle.request_id] = handle
        for cell_id in handle.cell_ids:
            self._cells[cell_id] = handle
        # replay events that raced ahead of the accepted processing.
        orphans, self._orphans = self._orphans, []
        for event in orphans:
            if (event.get("cell") in handle.cell_ids
                    or event.get("request") == handle.request_id
                    or event.get("id") == handle.request_id):
                handle._queue.put_nowait(event)
                if event.get("event") == "done":
                    self._requests.pop(handle.request_id, None)
            else:
                self._orphans.append(event)
        return handle

    async def sweep(self, cells, request_id: str | None = None) -> list[dict]:
        """Submit and gather: one result event per cell, in cell order."""
        handle = await self.submit(cells, request_id=request_id)
        results = await handle.results()
        return [results[cell_id] for cell_id in handle.cell_ids]

    async def ping(self) -> dict:
        await self._send({"op": "ping"})
        return await self._control_event()

    async def stats(self) -> dict:
        """The server's counter snapshot (service + cache counters)."""
        await self._send({"op": "stats"})
        return (await self._control_event())["counters"]

    async def watch(self):
        """Subscribe to progress broadcasts; yields progress events."""
        await self._send({"op": "watch"})
        await self._control_event()  # the "watching" ack
        while True:
            yield await self._watch_queue.get()

    async def raw(self, message: dict) -> None:
        """Send an arbitrary frame (protocol tests drive this)."""
        await self._send(message)

    async def next_control(self) -> dict:
        """The next non-routed event, errors included (protocol tests)."""
        return await self._control.get()
