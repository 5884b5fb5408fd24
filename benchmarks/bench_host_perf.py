#!/usr/bin/env python3
"""Host-performance trajectory: wall-clock the host dispatch paths.

Times representative workload cells — the paper's marker-delimited
measurement sweeps on compiled code, which is exactly what the fast
dispatch tier accelerates — on three dispatch paths in the same
process: the interpretive reference loop (``dispatch="interpretive"``),
fault-injected fused code (``dispatch="auto"`` with
``fault_plan=FaultPlan.none()``: an attached fault injector selects the
fused code whose region functions probe after every uop, as in every
fault-injected cell) and template-jit fused code (``dispatch="auto"``,
no fault injector).  It asserts they produce byte-identical
``ExecStats`` summaries, cycle counts and guest results, and emits
``BENCH_host.json``.  Each VM first runs one unmeasured priming sweep
(template-jit runs compile on first execution), so every number is a
steady-state sweep::

    {"<bench>": {"wall_s": ...,            # faulted fused code, best of N
                 "baseline_wall_s": ...,   # interpretive dispatch, same run
                 "uops_per_s": ...,        # retired uops / faulted wall
                 "speedup_vs_baseline": ...,
                 "jit_wall_s": ...,        # template-jit, best of N repeats
                 "jit_uops_per_s": ...,
                 "jit_speedup_vs_baseline": ...,
                 "jit_ref_uops_per_s": ...,  # jit uops/s, host-rescaled
                 "slowdown": ...,          # host slowdown over wall_s
                 "jit_slowdown": ...}}     # host slowdown over jit_wall_s

Usage:
    python benchmarks/bench_host_perf.py [--output BENCH_host.json]
        [--check BASELINE.json] [--repeats 3] [--min-jit-rate X]
        [--min-timed-jit-rate X]

``--check`` compares the fresh measurements against a previously emitted
file and exits non-zero if any cell's faulted or jit wall time,
rescaled to the reference host speed (divided by the host slowdown
measured around it), regressed more than 25% — the CI perf-smoke
gate.  ``--min-jit-rate``
additionally fails unless the *best* untimed cell's jit throughput,
rescaled to the reference host speed of ``benchmarks/e2e/hostspeed.py``
(``jit_ref_uops_per_s``), reaches the given floor in uops/s: the
template-jit acceptance gate.  The rescaling divides by fixed host work
that never touches the simulator, so the floor moves with neither the
host's speed nor the interpretive loop's; it is set well below the
quiet-machine measurement so shared-runner noise cannot flake it.
``--min-timed-jit-rate`` is the same gate for the best timed cell,
where the timing model is folded into the fused code.  Run standalone,
not under pytest: the point is wall-clock, and pytest fixtures add
noise.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent / "e2e"))

from hostspeed import HostSpeed                          # noqa: E402

from repro.faults import FaultPlan                       # noqa: E402
from repro.runtime import GuestError                     # noqa: E402
from repro.testutil.genprog import GenConfig, ProgramGenerator  # noqa: E402
from repro.vm import ATOMIC_AGGRESSIVE, TieredVM, VMOptions     # noqa: E402
from repro.workloads import get_workload                 # noqa: E402

#: allowed fast-path wall-time regression before --check fails.
REGRESSION_BUDGET = 0.25

#: the workload cells on the trajectory: the two hottest sweeps (the
#: acceptance cells), a third functional sweep, and the two hottest
#: timed cells (the timing model is most of their work — tracked so a
#: timing-model regression shows up here too).
WORKLOAD_CELLS = [
    ("hsqldb_sweep", "hsqldb", False),
    ("xalan_sweep", "xalan", False),
    ("jython_sweep", "jython", False),
    ("hsqldb_timed", "hsqldb", True),
    ("xalan_timed", "xalan", True),
]

DIFF_SEEDS = range(0, 10)
#: measured invocations per differential seed: enough work per program
#: that the one-time pre-decode cost is amortized the way any real sweep
#: amortizes it.
DIFF_CALLS = 25


def _sweep(vm, call):
    """One measurement sweep: ``call()`` inside a sample window.
    Returns (wall seconds, outcomes, closed-sample stats)."""
    vm.start_measurement()
    begin = time.perf_counter()
    outcomes = call()
    wall = time.perf_counter() - begin
    return wall, outcomes, vm.end_measurement()


def _measured_sweep(name: str, timing: bool, dispatch: str,
                    fault_plan=None):
    """Warm + compile, prime, then wall-clock a steady measurement sweep.

    Fused runs are host-compiled on their first execution, so every VM
    (on every dispatch path alike) first runs one unmeasured priming
    sweep; the measured sweep is the steady state.  Returns (wall
    seconds, uops retired, outcome digest).  The digest — guest results
    plus every measured sample's ``ExecStats.summary()``, cycle count
    included — is what the dispatch modes must agree on byte-for-byte.
    """
    workload = get_workload(name)
    wall = 0.0
    uops = 0
    digest = []
    for sample in workload.samples:
        vm = TieredVM(
            workload.build(),
            compiler_config=ATOMIC_AGGRESSIVE,
            options=VMOptions(enable_timing=timing, compile_threshold=3,
                              dispatch=dispatch),
            fault_plan=fault_plan,
        )
        vm.warm_up(workload.entry, [list(a) for a in sample.warm_args])
        vm.compile_hot(min_invocations=1)

        def call():
            return [vm.run(workload.entry, list(a))
                    for a in sample.measure_args]

        _sweep(vm, call)  # priming: compiles the fused runs it reaches
        seconds, results, stats = _sweep(vm, call)
        wall += seconds
        uops += stats.uops_retired
        digest.append((results, stats.summary()))
    return wall, uops, digest


def _differential_sweep(dispatch: str, fault_plan=None):
    """The cross-tier differential matrix cell: seeded generated guests,
    profiled with one argument and measured with another."""
    wall = 0.0
    uops = 0
    digest = []
    for seed in DIFF_SEEDS:
        program = ProgramGenerator(
            GenConfig(seed=seed, parametric=True, max_statements=10)
        ).generate()
        vm = TieredVM(
            program, ATOMIC_AGGRESSIVE,
            options=VMOptions(enable_timing=False, compile_threshold=1,
                              dispatch=dispatch),
            fault_plan=fault_plan,
        )
        vm.warm_up("main", [[1]] * 3)
        vm.compile_hot(min_invocations=1)

        def call():
            outcomes = []
            for _ in range(DIFF_CALLS):
                try:
                    outcomes.append(("value", vm.run("main", [-3])))
                except GuestError as exc:
                    outcomes.append(("error", type(exc).__name__))
            return outcomes

        _sweep(vm, call)  # priming, as in _measured_sweep
        seconds, outcomes, stats = _sweep(vm, call)
        wall += seconds
        uops += stats.uops_retired
        digest.append((outcomes, stats.summary()))
    return wall, uops, digest


def _time_cell(run, repeats: int):
    """Best-of-N wall clock for one (cell, dispatch) pair."""
    best_wall = None
    uops = 0
    digest = None
    for _ in range(repeats):
        wall, uops, digest = run()
        if best_wall is None or wall < best_wall:
            best_wall = wall
    return best_wall, uops, digest


def run_suite(repeats: int) -> dict:
    results: dict[str, dict] = {}
    cells = [
        (bench,
         lambda d, p=None, n=name, t=timing: _measured_sweep(n, t, d, p))
        for bench, name, timing in WORKLOAD_CELLS
    ]
    cells.append(("differential_sweep", _differential_sweep))
    for bench, cell in cells:
        # The host is calibrated on either side of each fast timing.
        speed = HostSpeed()
        # an injector with no fault armed selects faulted fused code
        fast_wall, fast_uops, fast_digest = _time_cell(
            lambda: cell("auto", FaultPlan.none()), repeats)
        fast_slowdown = speed.step()
        # "auto" with no fault injector is unfaulted fused code
        jit_wall, jit_uops, jit_digest = _time_cell(
            lambda: cell("auto"), repeats)
        slowdown = speed.step()
        slow_wall, _slow_uops, slow_digest = _time_cell(
            lambda: cell("interpretive"), repeats)
        if fast_digest != slow_digest:
            raise AssertionError(
                f"{bench}: faulted fused code diverged from interpretive "
                "dispatch — the fast path is NOT observationally inert"
            )
        if jit_digest != slow_digest:
            raise AssertionError(
                f"{bench}: template-jit dispatch diverged from interpretive "
                "dispatch — the fused tier is NOT observationally inert"
            )
        results[bench] = {
            "wall_s": round(fast_wall, 4),
            "baseline_wall_s": round(slow_wall, 4),
            "uops_per_s": round(fast_uops / fast_wall),
            "speedup_vs_baseline": round(slow_wall / fast_wall, 2),
            "jit_wall_s": round(jit_wall, 4),
            "jit_uops_per_s": round(jit_uops / jit_wall),
            "jit_speedup_vs_baseline": round(slow_wall / jit_wall, 2),
            "jit_ref_uops_per_s": round(jit_uops * slowdown / jit_wall),
            "slowdown": round(fast_slowdown, 4),
            "jit_slowdown": round(slowdown, 4),
            "calib_ms": round(speed.calib_ms(), 3),
        }
        print(f"{bench:>20}: faulted {fast_wall:.3f}s "
              f"({results[bench]['speedup_vs_baseline']:.2f}x)  "
              f"jit {jit_wall:.3f}s "
              f"({results[bench]['jit_speedup_vs_baseline']:.2f}x)  "
              f"interpretive {slow_wall:.3f}s  "
              f"({results[bench]['jit_uops_per_s']:,} jit uops/s, "
              f"{results[bench]['jit_ref_uops_per_s']:,} rescaled)")
    return results


def check_regression(fresh: dict, baseline_path: Path) -> int:
    """Fail if a fresh wall time, divided by the host slowdown measured
    around it (as :func:`check_jit_floor` rescales its rates), exceeds
    the baseline's by more than :data:`REGRESSION_BUDGET`."""
    baseline = json.loads(baseline_path.read_text())
    failures = []
    for bench, entry in fresh.items():
        base = baseline.get(bench)
        if base is None:
            continue
        for key, slowdown, label in (("wall_s", "slowdown", "faulted"),
                                     ("jit_wall_s", "jit_slowdown", "jit")):
            if key not in base:
                continue
            budget = base[key] * (1.0 + REGRESSION_BUDGET)
            rescaled = entry[key] / entry[slowdown]
            if rescaled > budget:
                failures.append(
                    f"{bench} ({label}): {rescaled:.3f}s rescaled "
                    f"({entry[key]:.3f}s at slowdown "
                    f"{entry[slowdown]:.2f}) vs baseline {base[key]:.3f}s "
                    f"(>{REGRESSION_BUDGET:.0%} budget)"
                )
    if failures:
        print("PERF REGRESSION:", *failures, sep="\n  ")
        return 1
    print(f"perf check ok: no cell's rescaled wall time regressed more "
          f"than {REGRESSION_BUDGET:.0%} vs {baseline_path}")
    return 0


def check_jit_floor(fresh: dict, floor: float, timed: bool = False) -> int:
    """The template-jit acceptance gate: the best untimed (or, with
    ``timed``, timed) cell's host-rescaled jit throughput must reach
    ``floor`` uops/s."""
    label = "timed" if timed else "untimed"
    cells = {bench: entry["jit_ref_uops_per_s"]
             for bench, entry in fresh.items()
             if bench.endswith("_timed") == timed}
    best_bench = max(cells, key=cells.get)
    best = cells[best_bench]
    if best < floor:
        print(f"JIT RATE GATE FAILED: best {label} cell {best_bench} "
              f"reached {best:,.0f} rescaled uops/s (floor {floor:,.0f})")
        return 1
    print(f"jit gate ok: {label} {best_bench} at {best:,.0f} rescaled "
          f"uops/s (floor {floor:,.0f})")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", default=None,
                        help="write BENCH_host.json here "
                             "(default: repo root)")
    parser.add_argument("--check", default=None, metavar="BASELINE",
                        help="fail if a fast path's host-rescaled wall "
                             "time regressed >25%% against this "
                             "previously emitted file")
    parser.add_argument("--repeats", type=int, default=3,
                        help="wall-clock repetitions per cell (best-of)")
    parser.add_argument("--min-jit-rate", type=float, default=None,
                        metavar="X",
                        help="fail unless the best untimed cell's jit "
                             "uops/s, rescaled to the reference host "
                             "speed, reaches X")
    parser.add_argument("--min-timed-jit-rate", type=float, default=None,
                        metavar="X",
                        help="fail unless the best timed cell's jit "
                             "uops/s, rescaled to the reference host "
                             "speed, reaches X")
    args = parser.parse_args()

    results = run_suite(args.repeats)
    output = Path(args.output) if args.output else (
        Path(__file__).resolve().parents[1] / "BENCH_host.json"
    )
    output.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    print(f"wrote {output}")
    status = 0
    if args.check:
        status = check_regression(results, Path(args.check))
    if args.min_jit_rate is not None:
        status = check_jit_floor(results, args.min_jit_rate) or status
    if args.min_timed_jit_rate is not None:
        status = check_jit_floor(results, args.min_timed_jit_rate,
                                 timed=True) or status
    return status


if __name__ == "__main__":
    sys.exit(main())
