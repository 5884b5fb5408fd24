"""Sweep-supervisor unit tests: the retry → backoff → fallback ladder.

Covers each rung in isolation — clean pass-through, transient-exception
retry, quarantine after the budget, hung-cell timeout + pool rebuild,
worker-kill (``BrokenProcessPool``) recovery, degradation to serial —
plus the crash-consistent journal (torn tails, corrupt records, resume),
the long-lived form's pool reuse, and pool workers exiting with a
killed parent.

Cell functions live at module level (the pool path pickles them) and
coordinate cross-process attempt counts through
:func:`repro.harness.hostchaos.claim_attempt`.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.harness import run_supervised
from repro.harness.hostchaos import claim_attempt
from repro.harness.supervisor import (
    Journal,
    Supervisor,
    SupervisorConfig,
    default_workers,
)
from repro.obs import Tracer


#: fast ladder for tests: no real wall-clock spent on backoff.
def _config(**overrides) -> SupervisorConfig:
    defaults = dict(backoff_base_s=0.0005, backoff_max_s=0.002)
    defaults.update(overrides)
    return SupervisorConfig(**defaults)


def _square(x):
    return x * x


def _pid(_item):
    return os.getpid()


def _flaky(spec):
    """Fails the first ``fail_times`` attempts, then succeeds."""
    value, state_dir, fail_times = spec
    attempt = claim_attempt(state_dir, repr(spec))
    if attempt < fail_times:
        raise RuntimeError(f"transient failure, attempt {attempt}")
    return value * 2


def _kill_once(spec):
    """Dies with ``os._exit`` on its first pool attempt, then succeeds."""
    value, state_dir = spec
    attempt = claim_attempt(state_dir, repr(spec))
    if attempt == 0 and multiprocessing.parent_process() is not None:
        os._exit(113)
    return value + 100


def _kill_always(spec):
    """Dies on *every* pool attempt — only serial execution can finish it."""
    value, _state_dir = spec
    if multiprocessing.parent_process() is not None:
        os._exit(113)
    return value + 7


def _hang_once(spec):
    """Hangs well past the cell budget on its first attempt."""
    import time

    value, state_dir = spec
    attempt = claim_attempt(state_dir, repr(spec))
    if attempt == 0 and multiprocessing.parent_process() is not None:
        time.sleep(10.0)
    return value * 3


class TestCleanSweep:
    def test_serial_matches_run_indexed(self):
        items = list(range(8))
        outcome = run_supervised(items, _square, config=_config(workers=1))
        assert outcome.results == [_square(x) for x in items]
        assert outcome.ok and outcome.completed == 8
        assert outcome.retries == outcome.timeouts == 0
        assert outcome.pool_rebuilds == 0 and not outcome.degraded_serial

    def test_pool_matches_run_indexed(self):
        items = list(range(6))
        outcome = run_supervised(items, _square, config=_config(workers=2))
        assert outcome.results == [x * x for x in items]
        assert outcome.ok and outcome.retries == 0

    def test_clean_sweep_emits_no_lifecycle_events(self):
        tracer = Tracer()
        outcome = run_supervised(
            list(range(4)), _square, config=_config(workers=1),
            tracer=tracer)
        assert outcome.ok
        assert tracer.events == []

    def test_outcome_counts_populated(self):
        outcome = run_supervised(
            list(range(5)), _square, config=_config(workers=1))
        assert len(outcome.results) == 5
        assert outcome.completed == 5 and outcome.resumed == 0
        assert outcome.retries == outcome.timeouts == 0
        assert outcome.manifest()["cells"] == 5


class TestRetryLadder:
    def test_transient_exception_retried_then_succeeds(self, tmp_path):
        items = [(v, str(tmp_path), 2) for v in range(4)]
        tracer = Tracer()
        outcome = run_supervised(
            items, _flaky, config=_config(workers=1, max_attempts=4),
            tracer=tracer)
        assert outcome.ok
        assert outcome.results == [v * 2 for v in range(4)]
        assert outcome.retries == 8  # 2 transient failures per cell
        kinds = [event.kind for event in tracer.events]
        assert kinds.count("cell_retry") == 8
        assert "quarantine" not in kinds
        # deterministic supervisor timestamps: the event sequence number
        assert [event.ts for event in tracer.events] == list(
            range(1, len(tracer.events) + 1))

    def test_backoff_grows_exponentially(self, tmp_path):
        tracer = Tracer()
        outcome = run_supervised(
            [(1, str(tmp_path), 3)], _flaky,
            config=_config(workers=1, max_attempts=5, backoff_base_s=0.001,
                           backoff_factor=2.0, backoff_max_s=1.0),
            tracer=tracer)
        assert outcome.ok
        backoffs = [event.arg("backoff_s") for event in tracer.events
                    if event.kind == "cell_retry"]
        assert backoffs == [0.001, 0.002, 0.004]

    def test_quarantine_after_budget(self, tmp_path):
        items = [(0, str(tmp_path), 99), (1, str(tmp_path), 0),
                 (2, str(tmp_path), 99)]
        tracer = Tracer()
        outcome = run_supervised(
            items, _flaky, config=_config(workers=1, max_attempts=2),
            tracer=tracer)
        assert not outcome.ok and outcome.quarantined == 2
        # quarantine fires only after the configured budget, never before
        assert all(f.attempts == 2 for f in outcome.failures)
        assert {f.index for f in outcome.failures} == {0, 2}
        # the sweep continued: partial results plus an explicit manifest
        assert outcome.results[1] == 2
        assert outcome.results[0] is None and outcome.results[2] is None
        manifest = outcome.manifest()
        assert manifest["quarantined"] == 2
        assert len(manifest["failures"]) == 2
        assert all(f["kind"] == "exception" for f in manifest["failures"])
        assert [e.kind for e in tracer.events].count("quarantine") == 2
        with pytest.raises(RuntimeError, match="quarantined"):
            outcome.raise_on_failure()


class TestPoolRecovery:
    def test_worker_kill_rebuilds_pool_and_recovers(self, tmp_path):
        items = [(v, str(tmp_path)) for v in range(6)]
        tracer = Tracer()
        outcome = run_supervised(
            items, _kill_once,
            config=_config(workers=2, max_attempts=8), tracer=tracer)
        assert outcome.ok
        assert outcome.results == [v + 100 for v in range(6)]
        assert outcome.pool_rebuilds >= 1
        assert any(e.kind == "pool_rebuild" for e in tracer.events)

    def test_hung_cell_times_out_and_recovers(self, tmp_path):
        items = [(v, str(tmp_path)) for v in range(4)]
        tracer = Tracer()
        outcome = run_supervised(
            items, _hang_once,
            config=_config(workers=2, max_attempts=8, cell_timeout_s=0.5),
            tracer=tracer)
        assert outcome.ok
        assert outcome.results == [v * 3 for v in range(4)]
        assert outcome.timeouts >= 1 and outcome.pool_rebuilds >= 1
        kinds = {event.kind for event in tracer.events}
        assert "cell_timeout" in kinds and "pool_rebuild" in kinds

    def test_persistent_kills_degrade_to_serial(self, tmp_path):
        items = [(v, str(tmp_path)) for v in range(4)]
        tracer = Tracer()
        outcome = run_supervised(
            items, _kill_always,
            config=_config(workers=2, max_attempts=10, max_pool_rebuilds=1),
            tracer=tracer)
        # the pool can never finish these; serial execution can
        assert outcome.ok and outcome.degraded_serial
        assert outcome.results == [v + 7 for v in range(4)]
        assert outcome.pool_rebuilds == 2  # budget of 1, then the give-up
        assert any(e.kind == "degrade_serial" for e in tracer.events)


class TestJournal:
    def test_round_trip(self, tmp_path):
        journal = Journal(tmp_path / "j.bin")
        journal.append("a", {"x": 1})
        journal.append("b", [1, 2, 3])
        assert journal.load() == {"a": {"x": 1}, "b": [1, 2, 3]}

    def test_torn_tail_discarded(self, tmp_path):
        path = tmp_path / "j.bin"
        journal = Journal(path)
        for key in ("a", "b", "c"):
            journal.append(key, key * 3)
        data = path.read_bytes()
        path.write_bytes(data[:-5])  # SIGKILL mid-append
        assert journal.load() == {"a": "aaa", "b": "bbb"}

    def test_corrupt_record_stops_replay(self, tmp_path):
        path = tmp_path / "j.bin"
        journal = Journal(path)
        journal.append("a", 1)
        intact = len(path.read_bytes())
        journal.append("b", 2)
        data = bytearray(path.read_bytes())
        data[intact + 45] ^= 0xFF  # flip a byte inside record 2's payload
        path.write_bytes(bytes(data))
        assert journal.load() == {"a": 1}

    def test_missing_journal_is_empty(self, tmp_path):
        assert Journal(tmp_path / "nope.bin").load() == {}

    def test_resume_skips_completed_cells(self, tmp_path):
        journal_path = tmp_path / "j.bin"
        items = list(range(8))
        first = run_supervised(
            items[:4], _square,
            config=_config(workers=1, journal_path=journal_path))
        assert first.ok and first.completed == 4
        resumed = run_supervised(
            items, _square,
            config=_config(workers=1, journal_path=journal_path))
        assert resumed.ok
        assert resumed.resumed == 4 and resumed.completed == 4
        assert resumed.results == [x * x for x in items]

    def test_resume_results_byte_identical(self, tmp_path):
        journal_path = tmp_path / "j.bin"
        items = list(range(6))
        run_supervised(items[:3], _square,
                       config=_config(workers=1, journal_path=journal_path))
        resumed = run_supervised(
            items, _square,
            config=_config(workers=2, journal_path=journal_path))
        serial = [_square(x) for x in items]
        assert pickle.dumps(resumed.results) == pickle.dumps(serial)


class TestDefaultWorkersHardening:
    def test_malformed_value_falls_back_to_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "4x")
        with pytest.warns(RuntimeWarning, match="malformed REPRO_WORKERS"):
            assert default_workers() == 1

    def test_word_value_falls_back_to_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "four")
        with pytest.warns(RuntimeWarning):
            assert default_workers() == 1

    def test_valid_and_empty_values_unchanged(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "4")
        assert default_workers() == 4
        monkeypatch.setenv("REPRO_WORKERS", "")
        assert default_workers() == 1
        monkeypatch.delenv("REPRO_WORKERS")
        assert default_workers() == 1

    def test_supervisor_inherits_default_workers(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "not-a-number")
        with pytest.warns(RuntimeWarning):
            outcome = run_supervised([1, 2, 3], _square, config=_config())
        assert outcome.ok and outcome.results == [1, 4, 9]


class TestLongLivedSupervisor:
    """One pool across many sweeps: started once, reused, rebuilt only
    when it breaks."""

    def test_consecutive_sweeps_share_the_worker_pool(self):
        with Supervisor(_config(workers=2)) as supervisor:
            # a one-cell sweep runs on the pool too
            first = supervisor.run([0], _pid)
            pool = supervisor.pool
            second = supervisor.run(range(4), _pid)
            assert supervisor.pool is pool
            workers = set(pool._processes)
        assert supervisor.pool is None  # closed on exit
        assert set(first.results) | set(second.results) <= workers
        assert len(workers) == 2 and os.getpid() not in workers

    def test_rebuilt_pool_serves_the_next_sweep(self, tmp_path):
        items = [(v, str(tmp_path)) for v in range(4)]
        with Supervisor(_config(workers=2, max_attempts=8)) as supervisor:
            first = supervisor.run(items, _kill_once)
            rebuilt = supervisor.pool
            # every cell has used its killing first attempt by now
            second = supervisor.run(items, _kill_once)
            assert supervisor.pool is rebuilt
        assert first.ok and first.pool_rebuilds >= 1
        assert second.ok and second.pool_rebuilds == 0
        assert first.results == second.results == [v + 100 for v in range(4)]


#: builds a 2-worker pool, prints the worker pids, then idles until
#: killed.
_DRIVER = """
import time
from repro.harness.supervisor import Supervisor, SupervisorConfig
pool = Supervisor(SupervisorConfig(workers=2)).open()
for future in [pool.submit(time.sleep, 0.3) for _ in range(2)]:
    future.result()
print(*sorted(pool._processes), flush=True)
time.sleep(60)
"""


def _running(pid: int) -> bool:
    """Whether ``pid`` still runs (a zombie awaiting its reaper has
    exited)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.mark.skipif(not Path("/proc/self/stat").exists(),
                    reason="reads process states from /proc")
class TestOrphanedWorkers:
    def test_workers_exit_when_the_driver_is_killed(self):
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        driver = subprocess.Popen([sys.executable, "-c", _DRIVER], env=env,
                                  stdout=subprocess.PIPE, text=True)
        pids = []
        try:
            pids = [int(pid) for pid in driver.stdout.readline().split()]
            assert len(pids) == 2
            driver.kill()
            driver.wait()
            deadline = time.monotonic() + 5.0
            while (any(_running(pid) for pid in pids)
                   and time.monotonic() < deadline):
                time.sleep(0.1)
            assert not [pid for pid in pids if _running(pid)], (
                "pool workers outlived their SIGKILLed parent by 5 s")
        finally:
            driver.kill()
            driver.wait()
            driver.stdout.close()
            for pid in pids:
                if _running(pid):
                    os.kill(pid, 9)
