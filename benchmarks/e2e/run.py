#!/usr/bin/env python3
"""End-to-end benchmark: one workload, one fresh process, cold caches.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py --workload NAME [--seed N] [--seconds S]
        [--trace 0|1] [--output R.json] [--trace-file T.json]
        [--quick] [--update-expected]

Workloads: figures-cold, steady-untimed, steady-timed, service-mixed
(README.md says what each stresses).  ``--seconds`` sizes the measured
work: about that many seconds on a 2-core x86 machine.  ``--seed`` only
changes the cells ``service-mixed`` requests.

Every metric is printed by name with its unit; the last stdout line is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end metrics of BENCHMARK.json;
with ``--trace 1`` they are its per-layer metrics, taken from a second,
traced pass (spans written as a Chrome trace to ``--trace-file``).

Outputs are checked against ``expected.json`` on every run; a mismatch
counts as a failed operation and the exit code is 1.  An unusable
environment (no simulator sources, unknown workload) exits 2 without a
result line.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import resource
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT_DIR = HERE.parents[1]
EXPECTED = HERE / "expected.json"
SPEC = ROOT_DIR / "BENCHMARK.json"

E2E_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "sim_uops_per_s": "1/s",
             "p50_ms": "ms"}


def per_layer_units(layers) -> dict[str, str]:
    units = {f"{layer}.self_pct": "%" for layer in layers}
    units.update({
        "trace.wall_s": "s", "trace.overhead_pct": "%",
        "host.calib_ms": "ms",
        "runtime.warmups": "count", "runtime.bytecodes": "count",
        "runtime.bytecodes_per_s": "1/s", "runtime.warmup_reuse": "ratio",
        "vm.compilations": "count", "hw.prepare_calls": "count",
        "hw.activations": "count", "hw.uops": "count",
        "hw.ns_per_uop": "ns", "hw.timing_ns_per_uop": "ns",
        "hw.regions_entered": "count", "hw.regions_aborted": "count",
        "harness.cell_calls": "count",
        "service.executions": "count", "service.dedup_hits": "count",
        "service.exec_per_request": "ratio",
    })
    return units


# -- expected digests -------------------------------------------------------------

_INDEXED = re.compile(r"^(.*)#(\d+)(?:-(\d+))?$")


def compact(digests: dict[str, str]) -> dict[str, str]:
    """Fold ``key#i`` entries with equal digests into ``key#a-b`` ranges."""
    out: dict[str, str] = {}
    runs: dict[str, list[tuple[int, str]]] = {}
    for key, digest in digests.items():
        match = _INDEXED.match(key)
        if match:
            runs.setdefault(match[1], []).append((int(match[2]), digest))
        else:
            out[key] = digest
    for prefix, items in runs.items():
        items.sort()
        start = 0
        for end in range(1, len(items) + 1):
            if end == len(items) or items[end][1] != items[start][1]:
                first, last = items[start][0], items[end - 1][0]
                span = f"{first}" if first == last else f"{first}-{last}"
                out[f"{prefix}#{span}"] = items[start][1]
                start = end
    return dict(sorted(out.items()))


def expand(digests: dict[str, str]) -> dict[str, str]:
    out: dict[str, str] = {}
    for key, digest in digests.items():
        match = _INDEXED.match(key)
        if match and match[3] is not None:
            for index in range(int(match[2]), int(match[3]) + 1):
                out[f"{match[1]}#{index}"] = digest
        else:
            out[key] = digest
    return out


def check_outputs(workload, passes, pinned) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over every checked output."""
    attempted, failed, problems = 0, 0, []
    for one in passes:
        for key, digest in one.outputs:
            attempted += 1
            want = pinned.get(key)
            if want is None and not workload.require_pinned:
                continue
            if want != digest:
                failed += 1
                problems.append(f"{key}: digest {digest[:16]} != pinned "
                                f"{(want or 'none')[:16]}")
        failed += len(one.failures)
        problems += one.failures
    return attempted, min(failed, attempted), problems


def observed_digests(one) -> dict[str, str]:
    seen: dict[str, str] = {}
    for key, digest in one.outputs:
        if seen.setdefault(key, digest) != digest:
            raise SystemExit(f"{key}: two digests in one run; not pinning")
    return seen


# -- metrics -------------------------------------------------------------------------

def peak_rss_mb() -> float:
    """Peak resident set of this process or any waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def end_to_end(one) -> dict[str, float]:
    return {
        "setup_s": statistics.median(one.setup_s),
        "peak_rss_mb": peak_rss_mb(),
        "sim_uops_per_s": one.sim_uops_per_s,
        "p50_ms": statistics.median(one.latencies_s) * 1000.0,
    }


def per_layer(rec, traced, untraced, layers, timing_ns, calib_ms):
    own, inclusive = rec.self_times()
    wall = inclusive[layers[0]]
    counts = rec.counts
    warmup_s = inclusive.get("runtime.warmup", 0.0)
    execute_s = inclusive.get("hw.execute", 0.0)
    values = {f"{layer}.self_pct": 100.0 * own.get(layer, 0.0) / wall
              for layer in layers}
    values.update({
        "trace.wall_s": wall,
        "trace.overhead_pct": 100.0 * (
            untraced.sim_uops_per_s / traced.sim_uops_per_s - 1.0),
        "host.calib_ms": calib_ms,
        "runtime.warmups": counts["runtime.warmup"],
        "runtime.bytecodes": counts["runtime.bytecodes"],
        "runtime.bytecodes_per_s": (counts["runtime.bytecodes"] / warmup_s
                                    if warmup_s else 0.0),
        "runtime.warmup_reuse": (len(rec.warmup_keys)
                                 / max(1, counts["runtime.warmup"])),
        "vm.compilations": counts["vm.compile"],
        "hw.prepare_calls": counts["hw.prepare"],
        "hw.activations": counts["hw.activations"],
        "hw.uops": counts["hw.uops"],
        "hw.ns_per_uop": (execute_s * 1e9 / counts["hw.uops"]
                          if counts["hw.uops"] else 0.0),
        "hw.timing_ns_per_uop": timing_ns,
        "hw.regions_entered": traced.regions_entered,
        "hw.regions_aborted": traced.regions_aborted,
        "harness.cell_calls": counts["harness.cell"],
        "service.executions": traced.executions,
        "service.dedup_hits": traced.dedup_hits,
        "service.exec_per_request": (
            traced.executions / len(traced.latencies_s)),
    })
    return values


def declared(kind: str) -> dict[str, str]:
    spec = json.loads(SPEC.read_text())
    return {entry["name"]: entry["unit"] for entry in spec[kind]}


# -- main ------------------------------------------------------------------------------

def parse(argv):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured work, in seconds on the reference "
                             "machine (default 20; 1 with --quick)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--output", type=Path, default=None,
                        help="also write the full record here")
    parser.add_argument("--trace-file", type=Path, default=None)
    parser.add_argument("--quick", action="store_true",
                        help="smoke-test size: one set-up, --seconds 1")
    parser.add_argument("--update-expected", action="store_true",
                        help="pin this run's output digests in "
                             "expected.json instead of checking them")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 1.0 if args.quick else 20.0
    return args


def main(argv=None) -> int:
    args = parse(argv)
    os.environ["REPRO_DISK_CACHE"] = "0"
    sys.path.insert(0, str(ROOT_DIR / "src"))
    try:
        import spans
        import workloads
    except ImportError as exc:
        print(f"run.py: cannot import the simulator from "
              f"{ROOT_DIR / 'src'}: {exc}", file=sys.stderr)
        return 2
    try:
        workload = workloads.make(args.workload, args.seed, args.seconds)
        want_units = declared("per_layer" if args.trace else "end_to_end")
    except (KeyError, OSError, ValueError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    units = per_layer_units(spans.LAYERS) if args.trace else E2E_UNITS
    if units != want_units:
        print("run.py: the metrics this run emits differ from "
              "BENCHMARK.json", file=sys.stderr)
        return 2

    if workload.single_cpu:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    calib_before = workloads.HostSpeed().calib_ms()
    untraced = workload.run(1 if args.quick else workload.setups)
    passes = [untraced]
    metrics = end_to_end(untraced)
    if args.trace:
        rec = spans.Recorder()
        with spans.installed(rec), rec.span(spans.ROOT):
            traced = workload.run(1, rec)
        passes.append(traced)
        timing_ns = workloads.timing_probe()
        metrics = per_layer(rec, traced, untraced, spans.LAYERS, timing_ns,
                            traced.calib_ms)
        trace_file = args.trace_file or (
            HERE / "out" / f"{workload.name}-seed{args.seed}.trace.json")
        rec.dump(trace_file)
        print(f"trace: {trace_file}")
    calib_after = workloads.HostSpeed().calib_ms()

    expected = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    if args.update_expected:
        expected[workload.name] = compact(observed_digests(untraced))
        EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True)
                            + "\n")
        print(f"pinned {len(expected[workload.name])} digests for "
              f"{workload.name} in {EXPECTED}")
    pinned = expand(expected.get(workload.name, {}))
    attempted, failed, problems = check_outputs(workload, passes, pinned)
    correct = failed == 0 and attempted > 0

    for problem in problems[:20]:
        print(f"FAIL {problem}")
    print(f"host.calib_ms before {calib_before:.3f} during "
          f"{untraced.calib_ms:.3f} after {calib_after:.3f}")
    for key, value in untraced.details.items():
        if not isinstance(value, dict):
            print(f"detail {key} {value:.6g}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    record = {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    if args.output:
        full = dict(record, workload=workload.name, seed=args.seed,
                    seconds=args.seconds, trace=args.trace,
                    calib_ms=[calib_before, untraced.calib_ms, calib_after],
                    setup_runs_s=untraced.setup_s,
                    details=untraced.details, problems=problems)
        args.output.parent.mkdir(parents=True, exist_ok=True)
        args.output.write_text(json.dumps(full, indent=1) + "\n")
    print(json.dumps(record))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
