"""The sweep service: protocol, dedup, caching, fairness, determinism.

Tentpole of ISSUE 9.  The load-bearing guarantee is the determinism
contract: any payload served over the wire — cold, deduped, hot-cached,
or disk-cached, under concurrent duplicate submissions and mid-stream
disconnects — is byte-identical (through ``canonical_json``) to a serial
``compute_cell``-style run of the same cell.  The satellite edge cases
(malformed JSON, unknown names, duplicate request ids, disconnects,
slow-consumer eviction) each get a typed-error test.

No pytest-asyncio in the image: every async scenario runs under a plain
``asyncio.run`` inside a sync test.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import multiprocessing
import os
import time
from pathlib import Path

import pytest

from repro.faults import FaultPlan
from repro.harness import diskcache, experiment
from repro.harness.hostchaos import claim_attempt
from repro.harness.parallel import (
    COMPILER_CONFIGS,
    HARDWARE_CONFIGS,
    Cell,
    compute_cell,
    figure_cells,
)
from repro.hw.config import (
    BASELINE_4WIDE,
    CHKPT_20CYCLE,
    CHKPT_SINGLE_INFLIGHT,
    OOO_2WIDE,
    OOO_2WIDE_HALF,
    htm_variant_configs,
)
from repro.obs import Tracer
from repro.obs.export import validate_chrome_trace
from repro.service import (
    ERROR_CODES,
    ProtocolError,
    ServiceError,
    SweepClient,
    SweepServer,
    canonical_json,
    cell_spec,
    payload_digest,
    result_payload,
    validate_cell,
)
from repro.service.__main__ import main, parse_cell
from repro.service.protocol import decode, encode
from repro.workloads import get_workload
from repro.service.server import _compute_job

# the seed matrix under test: fast workloads, two compiler configs, a
# seeded (fault-plan-carrying) cell, and a second workload.
MATRIX = (
    Cell(workload="hsqldb", compiler="atomic"),
    Cell(workload="hsqldb", compiler="no-atomic"),
    Cell(workload="hsqldb", compiler="atomic", seed=3),
    Cell(workload="xalan", compiler="atomic+aggr-inline"),
)
CELL = MATRIX[0]


def run(coro):
    return asyncio.run(coro)


@pytest.fixture(scope="module")
def serial():
    """The serial reference: cell -> (key, result), computed once per
    module through the exact worker entry point the server uses."""
    return {cell: compute_cell(cell) for cell in MATRIX}


@pytest.fixture(scope="module")
def reference(serial):
    """cell -> canonical payload bytes of the serial run."""
    return {cell: canonical_json(result_payload(result))
            for cell, (_key, result) in serial.items()}


def prewarm(server: SweepServer, serial, cells=MATRIX) -> None:
    """Install serial results in the server's hot layer, so protocol
    tests are served at memory speed without burning compute."""
    for cell in cells:
        key, result = serial[cell]
        server.hot.put(key, result)


@contextlib.asynccontextmanager
async def connect(server: SweepServer):
    client = await SweepClient.connect(server.host, server.port)
    try:
        yield client
    finally:
        await client.close()


# -- protocol units (no server) ------------------------------------------------

class TestProtocolUnits:
    def test_encode_decode_roundtrip(self):
        frame = encode({"op": "ping", "id": "x"})
        assert frame.endswith(b"\n")
        assert decode(frame) == {"op": "ping", "id": "x"}

    def test_decode_garbage_is_bad_json(self):
        with pytest.raises(ProtocolError) as err:
            decode(b"not json at all\n")
        assert err.value.code == "bad_json"

    def test_decode_non_object_is_bad_json(self):
        with pytest.raises(ProtocolError) as err:
            decode(b"[1,2,3]\n")
        assert err.value.code == "bad_json"

    def test_error_codes_are_a_closed_set(self):
        assert "slow_consumer" in ERROR_CODES
        with pytest.raises(AssertionError):
            ProtocolError("made_up_code", "nope")

    def test_spec_roundtrip(self):
        cell = Cell(workload="hsqldb", compiler="atomic",
                    hardware="2wide", seed=7, trace=True)
        assert validate_cell(cell_spec(cell)) == cell

    @pytest.mark.parametrize("spec,code", [
        ("not a dict", "bad_request"),
        ({"workload": "hsqldb"}, "bad_request"),
        ({"workload": "hsqldb", "compiler": "atomic", "bogus": 1},
         "bad_request"),
        ({"workload": "nope", "compiler": "atomic"}, "unknown_workload"),
        ({"workload": "hsqldb", "compiler": "nope"}, "unknown_compiler"),
        ({"workload": "hsqldb", "compiler": "atomic", "hardware": "nope"},
         "unknown_hardware"),
        ({"workload": "hsqldb", "compiler": "atomic", "seed": "3"},
         "bad_request"),
        ({"workload": "hsqldb", "compiler": "atomic", "seed": True},
         "bad_request"),
        # the dispatch tier is a host knob, not a cell field
        ({"workload": "hsqldb", "compiler": "atomic", "dispatch": "auto"},
         "bad_request"),
        ({"workload": "hsqldb", "compiler": "atomic", "trace": 1},
         "bad_request"),
        ({"workload": "hsqldb", "compiler": "atomic", "hardware": []},
         "bad_request"),
        ({"workload": "hsqldb", "compiler": "atomic", "hardware": None},
         "bad_request"),
    ])
    def test_validation_is_total(self, spec, code):
        with pytest.raises(ProtocolError) as err:
            validate_cell(spec)
        assert err.value.code == code

    def test_trace_flag_changes_the_key(self):
        for seed in (None, 3):
            plain = Cell(workload="hsqldb", compiler="atomic", seed=seed)
            traced = Cell(workload="hsqldb", compiler="atomic", seed=seed,
                          trace=True)
            assert plain.key() != traced.key()
            assert traced.key() == plain.key() + ("traced",)

    def test_seeded_keys_are_deterministic(self):
        first = Cell(workload="hsqldb", compiler="atomic", seed=9)
        second = Cell(workload="hsqldb", compiler="atomic", seed=9)
        other = Cell(workload="hsqldb", compiler="atomic", seed=10)
        assert first.key() == second.key()
        assert first.key() != other.key()
        assert Cell(workload="hsqldb", compiler="atomic",
                    seed=3).key()[-1] == FaultPlan.seeded(3)

    def test_figure_cells_share_one_identity(self, monkeypatch):
        """A served figure cell and a prewarmed one share memo (and so
        disk-cache) entries: the wire round trip, the cell, and
        ``run_workload``'s own memo lookup agree on every key."""
        def miss(*_args):
            raise AssertionError("run_workload missed the memo")

        monkeypatch.setattr(experiment, "warmed", miss)
        for cell in figure_cells():
            key = cell.key()
            assert key == (cell.workload, cell.compiler, cell.hardware,
                           cell.timing, cell.force_monomorphic,
                           cell.adaptive, None)
            assert validate_cell(cell_spec(cell)).key() == key
            hit = object()
            monkeypatch.setitem(experiment._cache, key, hit)
            assert experiment.run_workload(
                get_workload(cell.workload),
                COMPILER_CONFIGS[cell.compiler],
                HARDWARE_CONFIGS[cell.hardware],
                timing=cell.timing,
                force_monomorphic=cell.force_monomorphic,
                adaptive=cell.adaptive,
                disk_cache=False,
            ) is hit

    def test_one_hardware_registry(self):
        figure = (BASELINE_4WIDE, CHKPT_20CYCLE, CHKPT_SINGLE_INFLIGHT,
                  OOO_2WIDE, OOO_2WIDE_HALF)
        for name, config in HARDWARE_CONFIGS.items():
            assert name == config.name
        # every source config is in the table, and no name is claimed by
        # two different configs
        for config in figure + htm_variant_configs():
            assert HARDWARE_CONFIGS[config.name] == config
        for name in HARDWARE_CONFIGS:
            assert validate_cell({"workload": "hsqldb", "compiler": "atomic",
                                  "hardware": name}).hardware == name
        with pytest.raises(ProtocolError) as err:
            validate_cell({"workload": "hsqldb", "compiler": "atomic",
                           "hardware": "nope"})
        assert err.value.code == "unknown_hardware"
        assert f"available: {sorted(HARDWARE_CONFIGS)}" in err.value.detail

    def test_parse_cell_forms(self):
        assert parse_cell("hsqldb:atomic") == Cell(
            workload="hsqldb", compiler="atomic")
        assert parse_cell("hsqldb:atomic:2wide:5") == Cell(
            workload="hsqldb", compiler="atomic", hardware="2wide", seed=5)
        with pytest.raises(SystemExit):
            parse_cell("just-a-workload")

    @pytest.mark.parametrize("text,code", [
        ("hsqldb:atomic:4wide:x", "bad_request"),
        ("nope:atomic", "unknown_workload"),
    ])
    def test_cli_rejects_bad_cells_before_connecting(self, text, code,
                                                     monkeypatch):
        def no_socket(*_args):
            raise AssertionError("the CLI connected before validating")

        monkeypatch.setattr(SweepClient, "connect", no_socket)
        with pytest.raises(SystemExit) as err:
            main(["submit", "--port", "1", text])
        assert text in str(err.value.code)
        assert code in str(err.value.code)


# -- wire-level edge cases -----------------------------------------------------

class TestWireEdges:
    def test_malformed_json_is_typed_and_survivable(self, serial):
        async def scenario():
            async with SweepServer(workers=1, disk_cache=False) as server:
                async with connect(server) as client:
                    client._writer.write(b"this is not json\n")
                    await client._writer.drain()
                    error = await client.next_control()
                    assert error["event"] == "error"
                    assert error["code"] == "bad_json"
                    # the connection survives a garbage frame
                    pong = await client.ping()
                    assert pong["event"] == "pong"
        run(scenario())

    def test_non_string_hardware_is_typed_and_survivable(self):
        async def scenario():
            async with SweepServer(workers=1, disk_cache=False) as server:
                async with connect(server) as client:
                    for hardware in ([], {}, 4):
                        await client.raw({"op": "submit", "cells": [
                            {"workload": "hsqldb", "compiler": "atomic",
                             "hardware": hardware}]})
                        error = await asyncio.wait_for(
                            client.next_control(), timeout=30)
                        assert error["event"] == "error"
                        assert error["code"] == "bad_request"
                        pong = await asyncio.wait_for(client.ping(),
                                                      timeout=30)
                        assert pong["event"] == "pong"
        run(scenario())

    def test_unknown_op(self):
        async def scenario():
            async with SweepServer(workers=1, disk_cache=False) as server:
                async with connect(server) as client:
                    await client.raw({"op": "launch_missiles"})
                    error = await client.next_control()
                    assert error["code"] == "unknown_op"
        run(scenario())

    def test_unknown_workload_rejects_whole_submit(self, serial):
        async def scenario():
            async with SweepServer(workers=1, disk_cache=False) as server:
                prewarm(server, serial)
                async with connect(server) as client:
                    with pytest.raises(ServiceError) as err:
                        await client.submit([
                            cell_spec(CELL),
                            {"workload": "nope", "compiler": "atomic"},
                        ])
                    assert err.value.code == "unknown_workload"
                    # atomic reject: the valid first cell was not served
                    counters = await client.stats()
                    assert counters["served"] == 0
        run(scenario())

    def test_empty_submit_is_bad_request(self):
        async def scenario():
            async with SweepServer(workers=1, disk_cache=False) as server:
                async with connect(server) as client:
                    with pytest.raises(ServiceError) as err:
                        await client.submit([])
                    assert err.value.code == "bad_request"
        run(scenario())

    def test_duplicate_request_id_reuse(self, serial):
        async def scenario():
            async with SweepServer(workers=1, disk_cache=False) as server:
                prewarm(server, serial)
                async with connect(server) as client:
                    first = await client.sweep([CELL], request_id="sweep-1")
                    assert first[0]["source"] == "hot"
                    with pytest.raises(ServiceError) as err:
                        await client.submit([CELL], request_id="sweep-1")
                    assert err.value.code == "duplicate_id"
                    # a fresh id on the same connection still works
                    again = await client.sweep([CELL], request_id="sweep-2")
                    assert again[0]["source"] == "hot"
        run(scenario())

    def test_duplicate_id_is_per_connection(self, serial):
        async def scenario():
            async with SweepServer(workers=1, disk_cache=False) as server:
                prewarm(server, serial)
                async with connect(server) as one:
                    await one.sweep([CELL], request_id="shared")
                async with connect(server) as two:
                    events = await two.sweep([CELL], request_id="shared")
                    assert events[0]["source"] == "hot"
        run(scenario())

    def test_ping_echoes_id_and_stats_shape(self):
        async def scenario():
            async with SweepServer(workers=1, disk_cache=False) as server:
                async with connect(server) as client:
                    await client.raw({"op": "ping", "id": "tick"})
                    pong = await client.next_control()
                    assert pong == {"event": "pong", "id": "tick"}
                    counters = await client.stats()
                    for field in ("clients", "served", "executions",
                                  "dedup_hits", "evictions", "cache"):
                        assert field in counters
                    assert counters["clients"] == 1
        run(scenario())


# -- cache serving -------------------------------------------------------------

class TestCacheServing:
    def test_hot_cell_served_without_compute(self, serial, reference):
        async def scenario():
            async with SweepServer(workers=1, disk_cache=False) as server:
                prewarm(server, serial)
                async with connect(server) as client:
                    events = await client.sweep(list(MATRIX))
                    assert [e["source"] for e in events] == ["hot"] * 4
                    for cell, event in zip(MATRIX, events):
                        assert (canonical_json(event["payload"])
                                == reference[cell])
                assert server.executions == 0
        run(scenario())

    def test_disk_hit_promotes_to_hot(self, serial, reference,
                                      tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_DISK_CACHE_DIR", str(tmp_path))
        key, result = serial[CELL]
        diskcache.store(key, result)

        async def scenario():
            async with SweepServer(workers=1, disk_cache=True) as server:
                async with connect(server) as client:
                    first = await client.sweep([CELL])
                    assert first[0]["source"] == "disk"
                    assert canonical_json(first[0]["payload"]) == reference[CELL]
                    second = await client.sweep([CELL])
                    assert second[0]["source"] == "hot"
                assert server.executions == 0
                assert server.hot.counters()["disk_hits"] == 1
        run(scenario())

    def test_cold_compute_lands_in_both_layers(self, reference,
                                               tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_DISK_CACHE_DIR", str(tmp_path))

        async def scenario():
            async with SweepServer(workers=1, disk_cache=True) as server:
                async with connect(server) as client:
                    cold = await client.sweep([CELL])
                    assert cold[0]["source"] == "cold"
                    assert canonical_json(cold[0]["payload"]) == reference[CELL]
                    hot = await client.sweep([CELL])
                    assert hot[0]["source"] == "hot"
                assert server.executions == 1
            # a *fresh* server over the same cache dir answers from disk
            async with SweepServer(workers=1, disk_cache=True) as server:
                async with connect(server) as client:
                    disk = await client.sweep([CELL])
                    assert disk[0]["source"] == "disk"
                    assert canonical_json(disk[0]["payload"]) == reference[CELL]
                assert server.executions == 0
        run(scenario())


# -- in-flight dedup -----------------------------------------------------------

class TestDedup:
    def test_concurrent_duplicate_submits_share_one_execution(self, reference):
        async def scenario():
            async with SweepServer(workers=1, disk_cache=False) as server:
                async with connect(server) as one, connect(server) as two:
                    first, second = await asyncio.gather(
                        one.sweep([CELL]), two.sweep([CELL]))
                    sources = sorted([first[0]["source"], second[0]["source"]])
                    assert sources == ["cold", "dedup"]
                    assert (canonical_json(first[0]["payload"])
                            == canonical_json(second[0]["payload"])
                            == reference[CELL])
                assert server.executions == 1
                assert server.metrics.counter("service.dedup_hits") == 1
        run(scenario())

    def test_duplicates_within_one_request_dedup(self, reference):
        async def scenario():
            async with SweepServer(workers=1, disk_cache=False) as server:
                async with connect(server) as client:
                    events = await client.sweep([CELL, CELL, CELL])
                    assert sorted(e["source"] for e in events) == [
                        "cold", "dedup", "dedup"]
                    for event in events:
                        assert (canonical_json(event["payload"])
                                == reference[CELL])
                assert server.executions == 1
        run(scenario())


# -- disconnects ---------------------------------------------------------------

class TestDisconnect:
    def test_mid_stream_disconnect_leaves_server_healthy(self, reference):
        async def scenario():
            async with SweepServer(workers=1, disk_cache=False) as server:
                ghost = await SweepClient.connect(server.host, server.port)
                await ghost.submit([CELL])
                # vanish before any result is streamed back
                await ghost.close()
                async with connect(server) as client:
                    events = await client.sweep([CELL])
                    # the ghost's cell kept computing; the survivor either
                    # attached to it (dedup) or hit the hot layer after it
                    # finished — never a second cold execution.
                    assert events[0]["source"] in ("dedup", "hot")
                    assert canonical_json(events[0]["payload"]) \
                        == reference[CELL]
                assert server.executions == 1
                for _ in range(100):  # the ghost's EOF is still racing in
                    if server.counters()["clients"] == 0:
                        break
                    await asyncio.sleep(0.01)
                assert server.counters()["clients"] == 0
        run(scenario())

    def test_abrupt_socket_close_is_survivable(self):
        async def scenario():
            async with SweepServer(workers=1, disk_cache=False) as server:
                reader, writer = await asyncio.open_connection(
                    server.host, server.port)
                await reader.readline()  # hello
                writer.write(b'{"op": "submit", "cells": [{"workload": '
                             b'"hsqldb", "compiler": "atomic"}]}\n')
                await writer.drain()
                writer.close()  # no graceful goodbye
                # the server must keep answering other clients (sweeping
                # the same cell also drains the orphaned execution, so the
                # server stops with no batch in flight)
                async with connect(server) as client:
                    assert (await client.ping())["event"] == "pong"
                    events = await client.sweep([CELL])
                    assert events[0]["source"] in ("dedup", "hot")
        run(scenario())


# -- backpressure --------------------------------------------------------------

class TestBackpressure:
    def test_stalled_subscriber_is_evicted_with_typed_error(self, serial):
        async def scenario():
            async with SweepServer(workers=1, disk_cache=False,
                                   queue_limit=4) as server:
                prewarm(server, serial)
                reader, writer = await asyncio.open_connection(
                    server.host, server.port)
                await reader.readline()  # hello (drains the queue once)
                # 8 hot cells answer synchronously in one dispatch: the
                # writer task cannot drain between enqueues, so the
                # 4-deep queue must overflow -> eviction, deterministically.
                submit = {"op": "submit", "cells": [cell_spec(CELL)] * 8}
                writer.write(json.dumps(submit).encode() + b"\n")
                await writer.drain()
                lines = []
                while True:
                    line = await asyncio.wait_for(reader.readline(),
                                                  timeout=5)
                    if not line:
                        break  # server closed on us
                    lines.append(decode(line))
                codes = [e.get("code") for e in lines
                         if e.get("event") == "error"]
                assert "slow_consumer" in codes
                assert server.counters()["evictions"] == 1
                writer.close()
                # unaffected tenants keep streaming
                async with connect(server) as client:
                    events = await client.sweep([CELL])
                    assert events[0]["source"] == "hot"
        run(scenario())

    def test_draining_client_is_not_evicted(self, serial):
        async def scenario():
            async with SweepServer(workers=1, disk_cache=False,
                                   queue_limit=256) as server:
                prewarm(server, serial)
                async with connect(server) as client:
                    events = await client.sweep([CELL] * 16)
                    assert len(events) == 16
                assert server.counters()["evictions"] == 0
        run(scenario())


# -- compute failures ----------------------------------------------------------

class TestComputeFailed:
    def test_worker_exception_is_a_typed_per_cell_error(self, monkeypatch):
        def boom(cell):
            raise RuntimeError("synthetic worker failure")

        monkeypatch.setattr("repro.service.server.compute_cell", boom)

        async def scenario():
            async with SweepServer(workers=1, disk_cache=False) as server:
                async with connect(server) as client:
                    handle = await client.submit([CELL])
                    with pytest.raises(ServiceError) as err:
                        await handle.results()
                    assert err.value.code == "compute_failed"
                    assert "synthetic worker failure" in err.value.detail
                    # the failed cell never poisons the cache
                    assert len(server.hot) == 0
                assert server.metrics.counter(
                    "service.compute_failures") == 1
        run(scenario())


# -- the worker pool -----------------------------------------------------------

def _recording_job(cell):
    """The server's worker entry, logging the pid that ran each cell."""
    with open(os.environ["SERVICE_TEST_PID_LOG"], "a") as log:
        log.write(f"{os.getpid()}\n")
    return _compute_job(cell)


def _kill_once_job(cell):
    """Kills its worker on each cell's first attempt, then computes.

    A doomed worker first waits (up to 30 s) until
    ``SERVICE_TEST_KILL_QUORUM`` first attempts have been claimed, so
    every worker of a batch holds its cell before the first death
    breaks the pool; otherwise a cell the broken pool never started
    would die on the rebuilt pool and force a second rebuild.
    """
    state = os.environ["SERVICE_TEST_STATE"]
    attempt = claim_attempt(state, repr(cell))
    if attempt == 0 and multiprocessing.parent_process() is not None:
        quorum = int(os.environ.get("SERVICE_TEST_KILL_QUORUM", "0"))
        deadline = time.monotonic() + 30.0
        while (len(list(Path(state).glob("*.0"))) < quorum
               and time.monotonic() < deadline):
            time.sleep(0.01)
        os._exit(113)
    return _recording_job(cell)


class TestWorkerPool:
    """A pooled server runs every batch on one long-lived supervisor's
    warm pool, and rebuilds it only when it breaks."""

    def test_batches_share_one_warm_pool(self, reference, tmp_path,
                                         monkeypatch):
        log = tmp_path / "pids"
        monkeypatch.setenv("SERVICE_TEST_PID_LOG", str(log))
        monkeypatch.setattr("repro.service.server._compute_job",
                            _recording_job)

        async def scenario():
            async with SweepServer(workers=2, disk_cache=False) as server:
                async with connect(server) as client:
                    # a one-cell batch is a worker's job too
                    first = await client.sweep([MATRIX[0]])
                    pool = server.supervisor.pool
                    workers = set(pool._processes)
                    second = await client.sweep(list(MATRIX[1:3]))
                    assert server.supervisor.pool is pool
                    assert set(pool._processes) == workers
                    return first + second, workers
        events, workers = run(scenario())
        pids = [int(line) for line in log.read_text().split()]
        assert len(pids) == 3 and set(pids) <= workers
        assert len(workers) == 2 and os.getpid() not in workers
        for cell, event in zip(MATRIX, events):
            assert canonical_json(event["payload"]) == reference[cell]

    def test_killed_worker_mid_batch_rebuilds_the_pool(
            self, reference, tmp_path, monkeypatch):
        log = tmp_path / "pids"
        state = tmp_path / "attempts"
        monkeypatch.setenv("SERVICE_TEST_PID_LOG", str(log))
        monkeypatch.setenv("SERVICE_TEST_STATE", str(state))
        # both of batch one's cells start on the first pool before
        # either worker dies: exactly one rebuild, deterministically
        monkeypatch.setenv("SERVICE_TEST_KILL_QUORUM", str(len(MATRIX)))
        monkeypatch.setattr("repro.service.server._compute_job",
                            _kill_once_job)
        for cell in MATRIX[2:]:
            claim_attempt(state, repr(cell))  # only batch one's cells die

        async def scenario():
            async with SweepServer(workers=2, disk_cache=False) as server:
                async with connect(server) as client:
                    first = await client.sweep(list(MATRIX[:2]))
                    assert server.metrics.counter(
                        "service.pool_rebuilds") >= 1
                    rebuilt = server.supervisor.pool
                    workers = set(rebuilt._processes)
                    second = await client.sweep(list(MATRIX[2:]))
                    assert server.supervisor.pool is rebuilt
                    return first + second, workers
        events, workers = run(scenario())
        assert set(int(line) for line in log.read_text().split()) <= workers
        for cell, event in zip(MATRIX, events):
            assert canonical_json(event["payload"]) == reference[cell]
            assert event["source"] == "cold"


# -- trace streaming + service observability -----------------------------------

class TestTracing:
    def test_traced_cell_streams_a_valid_chrome_trace(self):
        async def scenario():
            async with SweepServer(workers=1, disk_cache=False) as server:
                async with connect(server) as client:
                    handle = await client.submit([
                        Cell(workload="hsqldb", compiler="atomic",
                             trace=True)])
                    kinds = {}
                    async for event in handle.events():
                        kinds[event["event"]] = event
                    assert set(kinds) == {"result", "trace"}
                    document = kinds["trace"]["trace"]
                    validate_chrome_trace(document)
                    assert document["traceEvents"]
        run(scenario())

    def test_service_tracer_records_the_request_lifecycle(self, serial):
        tracer = Tracer()

        async def scenario():
            async with SweepServer(workers=1, disk_cache=False,
                                   tracer=tracer) as server:
                prewarm(server, serial)
                async with connect(server) as one, connect(server) as two:
                    await asyncio.gather(one.sweep([CELL]), two.sweep([CELL]))
        run(scenario())
        kinds = [event.kind for event in tracer.events]
        assert kinds.count("request_accepted") == 2
        assert kinds.count("cell_served") == 2  # both hot-served


# -- progress broadcasts -------------------------------------------------------

class TestWatch:
    def test_watcher_sees_progress_events(self):
        async def scenario():
            async with SweepServer(workers=1, disk_cache=False) as server:
                async with connect(server) as watcher, \
                        connect(server) as worker:
                    stream = watcher.watch()
                    watch_task = asyncio.ensure_future(stream.__anext__())
                    for _ in range(500):  # until the subscription lands
                        if any(c.watching
                               for c in server._clients.values()):
                            break
                        await asyncio.sleep(0.01)
                    await worker.sweep([CELL])
                    progress = await asyncio.wait_for(watch_task, timeout=10)
                    assert progress["event"] == "progress"
                    for field in ("pending", "inflight", "served",
                                  "executions"):
                        assert field in progress
        run(scenario())


# -- the determinism gate (acceptance criterion) -------------------------------

class TestDeterminismGate:
    def test_served_bytes_identical_to_serial_under_concurrency(
            self, serial, reference):
        """≥2 concurrent clients sweep the seed matrix against a pooled
        server while a third submits and disconnects mid-stream; every
        served payload — cold, dedup, then hot on resubmit — must be
        byte-identical to the serial reference, with matching digests,
        and the whole storm must cost exactly one execution per cell."""
        async def scenario():
            async with SweepServer(workers=2, disk_cache=False) as server:
                ghost = await SweepClient.connect(server.host, server.port)
                await ghost.submit(list(MATRIX))
                await ghost.close()  # mid-stream disconnect

                async def sweep_matrix():
                    async with connect(server) as client:
                        return await client.sweep(list(MATRIX))

                storms = await asyncio.gather(sweep_matrix(), sweep_matrix())
                for events in storms:
                    for cell, event in zip(MATRIX, events):
                        assert (canonical_json(event["payload"])
                                == reference[cell])
                        assert event["digest"] == payload_digest(
                            json.loads(reference[cell]))
                # resubmit: the whole matrix is now memory-speed
                async with connect(server) as client:
                    cached = await client.sweep(list(MATRIX))
                assert [e["source"] for e in cached] == ["hot"] * 4
                for cell, event in zip(MATRIX, cached):
                    assert canonical_json(event["payload"]) == reference[cell]
                assert server.executions == len(MATRIX)
                sources = {event["source"]
                           for events in storms for event in events}
                assert sources <= {"cold", "dedup", "hot"}
        run(scenario())
