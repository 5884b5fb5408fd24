"""Deterministic host-level chaos for the sweep supervisor.

The guest-level chaos harness (:mod:`repro.harness.chaos`) attacks the
*machine* with seeded aborts; this module attacks the *host harness* the
same way: seeded worker kills (``os._exit``), hangs past the cell wall
budget, transient exceptions, and disk-cache corruption, injected around
otherwise-pure sweep cells.  The check mirrors the guest contract one
level up — under every seeded fault schedule, a supervised sweep must
converge to results **byte-identical** to a clean serial run
(``pickle.dumps`` equality), with quarantine firing only after the
configured retry budget.

Faults are decided by :class:`HostFaultPlan` — a pure function of
``(seed, cell key, attempt)`` — so a schedule replays; the attempt number
is claimed through a lock-free on-disk counter (:func:`claim_attempt`)
because retries re-run cells in fresh worker processes.  Kills and hangs
only fire inside pool workers (``multiprocessing.parent_process()`` is
set), so a sweep that degrades to serial execution converges instead of
killing the supervisor itself.

Run as a module, this doubles as the checkpoint-resume smoke CLI used by
CI (start a journaled sweep, SIGKILL it mid-flight, re-run with
``--expect-resume``, diff against the serial reference)::

    python -m repro.harness.hostchaos --journal J --cells 12 --cell-ms 200
    # ... kill -9 mid-flight, then:
    python -m repro.harness.hostchaos --journal J --cells 12 --cell-ms 200 \\
        --expect-resume
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import pickle
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from .supervisor import SupervisorConfig, SweepOutcome, run_supervised


class TransientHostFault(RuntimeError):
    """The injected transient failure (a stand-in for OOM, ENOSPC, a
    flaky import — anything a retry genuinely cures)."""


def claim_attempt(state_dir: str | os.PathLike, key: str) -> int:
    """Claim and return the next attempt number for ``key``.

    ``O_CREAT | O_EXCL`` on ``<sha1(key)>.<n>`` is a crash-safe,
    lock-free counter that works across the supervisor's worker
    processes — each invocation of a cell (original or retry, any
    process) claims a distinct attempt number in order.
    """
    directory = Path(state_dir)
    directory.mkdir(parents=True, exist_ok=True)
    stem = hashlib.sha1(key.encode()).hexdigest()
    attempt = 0
    while True:
        try:
            fd = os.open(directory / f"{stem}.{attempt}",
                         os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            attempt += 1
            continue
        os.close(fd)
        return attempt


@dataclass(frozen=True)
class HostFaultPlan:
    """Seeded host-fault schedule: a pure function of (cell key, attempt).

    Rates partition the unit interval — at most one fault fires per
    attempt — and ``max_faults_per_cell`` bounds how many *consecutive
    leading attempts* of a cell may fault, so any plan with
    ``max_faults_per_cell < max_attempts`` is guaranteed to converge
    within the supervisor's retry budget (the chaos matrix asserts
    quarantine never fires there).
    """

    seed: int
    kill_rate: float = 0.0
    hang_rate: float = 0.0
    error_rate: float = 0.0
    max_faults_per_cell: int = 2
    hang_s: float = 20.0

    def fault_for(self, key: str, attempt: int) -> str | None:
        """"kill" | "hang" | "error" | None for this (cell, attempt)."""
        if attempt >= self.max_faults_per_cell:
            return None
        digest = hashlib.sha256(
            f"{self.seed}|{key}|{attempt}".encode()).digest()
        u = int.from_bytes(digest[:8], "big") / 2.0 ** 64
        if u < self.kill_rate:
            return "kill"
        u -= self.kill_rate
        if u < self.hang_rate:
            return "hang"
        u -= self.hang_rate
        if u < self.error_rate:
            return "error"
        return None

class ChaoticCell:
    """Picklable wrapper enacting the plan's fault before running ``fn``.

    Kills and hangs fire only inside pool workers; in the supervisor's
    own process (serial mode, or the degraded endgame) they are no-ops —
    a host fault that killed the supervisor would be a test-harness bug,
    not a finding.  A "hang" sleeps ``plan.hang_s`` and then *completes*
    normally: if the supervisor's timeout works the result is abandoned
    and retried, and if it ever did not, the sweep still terminates.
    """

    def __init__(self, fn, plan: HostFaultPlan,
                 state_dir: str | os.PathLike) -> None:
        self.fn = fn
        self.plan = plan
        self.state_dir = os.fspath(state_dir)

    def __call__(self, item):
        key = repr(item)
        attempt = claim_attempt(self.state_dir, key)
        fault = self.plan.fault_for(key, attempt)
        in_worker = multiprocessing.parent_process() is not None
        if fault == "kill" and in_worker:
            os._exit(113)
        if fault == "hang" and in_worker:
            time.sleep(self.plan.hang_s)
        if fault == "error":
            raise TransientHostFault(
                f"injected transient fault (attempt {attempt}) for {key}")
        return self.fn(item)


def run_host_chaos(items, fn, plan: HostFaultPlan,
                   config: SupervisorConfig,
                   state_dir: str | os.PathLike,
                   tracer=None, key_fn=repr) -> SweepOutcome:
    """One supervised sweep with ``plan``'s faults injected around ``fn``."""
    chaotic = ChaoticCell(fn, plan, state_dir)
    kwargs = {"config": config, "key_fn": key_fn}
    if tracer is not None:
        kwargs["tracer"] = tracer
    return run_supervised(items, chaotic, **kwargs)


def corrupt_cache_entries(cache_dir: str | os.PathLike, seed: int,
                          rate: float = 0.5) -> list[Path]:
    """Seeded disk-cache corruption: flip one payload byte in a
    deterministic subset of entries.  Returns the corrupted paths; the
    hardened :mod:`repro.harness.diskcache` must quarantine every one of
    them (checksum mismatch) and recompute, never serve garbage."""
    corrupted = []
    for path in sorted(Path(cache_dir).glob("*.pickle")):
        digest = hashlib.sha256(f"{seed}|{path.name}".encode()).digest()
        if int.from_bytes(digest[:8], "big") / 2.0 ** 64 >= rate:
            continue
        data = bytearray(path.read_bytes())
        if not data:
            continue
        position = digest[8] % len(data)
        data[position] ^= 0xFF
        path.write_bytes(bytes(data))
        corrupted.append(path)
    return corrupted


def write_manifest(outcome: SweepOutcome, path: str | os.PathLike) -> Path:
    """Dump the failure manifest as JSON (the CI artifact on red runs)."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(outcome.manifest(), indent=2, sort_keys=True)
                      + "\n")
    return target


# -- checkpoint-resume smoke CLI ----------------------------------------------

def _smoke_value(index: int) -> int:
    """The deterministic result of smoke cell ``index`` (pure compute)."""
    acc = 0
    for k in range(1, 2000):
        acc = (acc * 31 + index * k) % 1000003
    return acc


def _smoke_cell(spec: tuple) -> int:
    """Worker entry for the smoke sweep: sleep (so a SIGKILL lands
    mid-flight), then return the pure value."""
    index, cell_ms = spec
    time.sleep(cell_ms / 1000.0)
    return _smoke_value(index)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="checkpoint-resume smoke: run a journaled supervised "
                    "sweep of deterministic cells; exits non-zero if the "
                    "merged results differ from the serial reference (or, "
                    "with --expect-resume, if nothing was resumed)."
    )
    parser.add_argument("--journal", required=True,
                        help="append-only completion journal path")
    parser.add_argument("--cells", type=int, default=12)
    parser.add_argument("--cell-ms", type=int, default=200,
                        help="per-cell sleep so kills land mid-sweep")
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--expect-resume", action="store_true",
                        help="fail unless at least one cell was resumed "
                             "from the journal")
    parser.add_argument("--manifest", default=None,
                        help="write the failure manifest JSON here")
    args = parser.parse_args(argv)

    items = [(index, args.cell_ms) for index in range(args.cells)]
    outcome = run_supervised(
        items, _smoke_cell,
        config=SupervisorConfig(workers=args.workers,
                                journal_path=args.journal),
    )
    if args.manifest:
        write_manifest(outcome, args.manifest)
    expected = [_smoke_value(index) for index in range(args.cells)]
    identical = pickle.dumps(outcome.results) == pickle.dumps(expected)
    print(json.dumps({
        "cells": args.cells,
        "completed": outcome.completed,
        "resumed": outcome.resumed,
        "quarantined": outcome.quarantined,
        "identical_to_serial": identical,
    }))
    if not outcome.ok or not identical:
        return 1
    if args.expect_resume and outcome.resumed == 0:
        print("expected a journal resume but every cell was recomputed",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
