"""Deterministic merge under adversarial completion order.

The sweep supervisor promises results in *submission* order regardless
of how the pool schedules work.  A real ``ProcessPoolExecutor``
completes mostly in order on small sweeps, so these tests swap in a stub
executor that resolves each wave of submitted futures in reverse (or
seeded-shuffled) order — the worst case a loaded host can produce — and
assert the merge discipline still yields byte-identical serial results.
"""

from __future__ import annotations

import random
from concurrent.futures import Future

import pytest

from repro.harness import supervisor
from repro.harness.chaos import run_chaos
from repro.harness.parallel import run_chaos_parallel
from repro.harness.supervisor import SupervisorConfig, run_supervised
from repro.vm.compiler import ATOMIC_AGGRESSIVE
from repro.workloads import get_workload


class _AdversarialPool:
    """In-process ``ProcessPoolExecutor`` stand-in: submitted calls run
    when the supervisor next waits, in an adversarial order."""

    #: class-level knobs so the patched constructor signature stays
    #: identical to the real executor's.
    order = "reverse"
    #: one entry per resolved wave: the submission indices in the order
    #: they completed.
    completion_log: list[list[int]] = []
    live: list["_AdversarialPool"] = []

    def __init__(self, max_workers=None, initializer=None, initargs=()):
        self._pending = []
        self._submitted = 0
        type(self).live.append(self)

    def submit(self, fn, *args, **kwargs):
        future = Future()
        self._pending.append((self._submitted, future, fn, args, kwargs))
        self._submitted += 1
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        type(self).live.remove(self)

    def drain(self):
        wave, self._pending = self._pending, []
        if not wave:
            return
        if self.order == "reverse":
            wave.reverse()
        else:
            random.Random(0xC0FFEE + len(self.completion_log)).shuffle(wave)
        type(self).completion_log.append([index for index, *_ in wave])
        for _index, future, fn, args, kwargs in wave:
            try:
                future.set_result(fn(*args, **kwargs))
            except BaseException as exc:  # delivered via result()
                future.set_exception(exc)


@pytest.fixture()
def adversarial_pool(monkeypatch):
    _AdversarialPool.completion_log = []
    _AdversarialPool.live = []
    real_wait = supervisor.wait

    def draining_wait(futures, timeout=None, return_when=None):
        for pool in list(_AdversarialPool.live):
            pool.drain()
        return real_wait(futures, timeout=timeout, return_when=return_when)

    monkeypatch.setattr(supervisor, "ProcessPoolExecutor", _AdversarialPool)
    monkeypatch.setattr(supervisor, "wait", draining_wait)
    return _AdversarialPool


def _tag(item):
    return ("cell", item, item * item)


class TestSupervisedMerge:
    def test_reverse_completion_still_submission_order(
            self, adversarial_pool):
        adversarial_pool.order = "reverse"
        items = list(range(12))
        outcome = run_supervised(items, _tag,
                                 config=SupervisorConfig(workers=4))
        assert outcome.results == [_tag(item) for item in items]
        # the stub really did complete every wave out of order
        assert adversarial_pool.completion_log == [
            [3, 2, 1, 0], [7, 6, 5, 4], [11, 10, 9, 8]]

    def test_shuffled_completion_still_submission_order(
            self, adversarial_pool):
        adversarial_pool.order = "shuffle"
        items = list(range(16))
        outcome = run_supervised(items, _tag,
                                 config=SupervisorConfig(workers=16))
        assert outcome.results == [_tag(item) for item in items]
        (completed,) = adversarial_pool.completion_log
        assert completed != list(range(16))

    def test_serial_path_never_touches_the_pool(self, adversarial_pool):
        outcome = run_supervised([1, 2, 3], _tag,
                                 config=SupervisorConfig(workers=1))
        assert outcome.results == [_tag(1), _tag(2), _tag(3)]
        assert adversarial_pool.completion_log == []


class TestChaosMergeOrder:
    """The merged chaos report re-sorts shard checks into the serial
    (sample index, seed position) order — completion order must not
    leak into the report."""

    @pytest.mark.parametrize("order", ["reverse", "shuffle"])
    def test_parallel_report_matches_serial(self, adversarial_pool, order):
        adversarial_pool.order = order
        seeds = (0, 1, 2, 3)
        serial = run_chaos(get_workload("fop"), ATOMIC_AGGRESSIVE,
                           seeds=seeds, max_samples=1)
        merged = run_chaos_parallel("fop", seeds=seeds, max_samples=1,
                                    supervisor=SupervisorConfig(workers=4))
        assert merged.describe() == serial.describe()
        assert merged.ok == serial.ok
        assert [(c.seed, c.sample_index) for c in merged.checks] == [
            (c.seed, c.sample_index) for c in serial.checks]
        # shards really completed out of submission order
        (completed,) = adversarial_pool.completion_log
        assert completed != sorted(completed)
