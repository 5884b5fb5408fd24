"""Smoke tests for the end-to-end benchmark (not part of tier-1).

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

Each workload runs once at ``--quick`` size (one set-up, about a second
of measured work); the whole module takes well under 90 seconds.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORKLOADS = ("figures-cold", "steady-untimed", "steady-timed",
             "service-mixed")
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def run(*args, cwd=ROOT, timeout=120):
    return subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=timeout)


def result_line(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def declared(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def copy_bench(tmp_path: Path, with_src: bool) -> Path:
    """A checkout holding BENCHMARK.json, the benchmark and maybe src/."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", ".work",
                                                  "__pycache__"))
    if with_src:
        (tmp_path / "src").symlink_to(ROOT / "src")
    return tmp_path


@pytest.fixture(scope="module", params=WORKLOADS)
def quick(request):
    return request.param, run("--workload", request.param, "--quick",
                              "--seed", "3")


def test_quick_run_is_correct(quick):
    name, proc = quick
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = result_line(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1


def test_metrics_match_declaration(quick):
    _name, proc = quick
    metrics = result_line(proc)["metrics"]
    assert all(NAME.match(name) for name in metrics)
    assert {k: v["unit"] for k, v in metrics.items()} == declared(
        "end_to_end")
    assert all(v["value"] > 0 for v in metrics.values())


def test_traced_run_balances_and_declares_per_layer(tmp_path):
    trace = tmp_path / "t.json"
    proc = run("--workload", "service-mixed", "--quick", "--trace", "1",
               "--trace-file", str(trace))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    metrics = result_line(proc)["metrics"]
    assert all(NAME.match(name) for name in metrics)
    assert {k: v["unit"] for k, v in metrics.items()} == declared(
        "per_layer")
    depth: dict[tuple, int] = {}
    for event in json.loads(trace.read_text())["traceEvents"]:
        track = (event["pid"], event["tid"])
        if event["ph"] == "B":
            depth[track] = depth.get(track, 0) + 1
        elif event["ph"] == "E":
            depth[track] = depth.get(track, 0) - 1
            assert depth[track] >= 0, event
    assert depth and set(depth.values()) == {0}


def test_perturbed_digest_is_caught(tmp_path):
    checkout = copy_bench(tmp_path, with_src=True)
    expected_path = checkout / "benchmarks" / "e2e" / "expected.json"
    expected = json.loads(expected_path.read_text())
    key = sorted(expected["steady-untimed"])[0]
    expected["steady-untimed"][key] = "0" * 64
    expected_path.write_text(json.dumps(expected))
    proc = run("--workload", "steady-untimed", "--quick", cwd=checkout)
    assert proc.returncode == 1
    result = result_line(proc)
    assert result["correct"] is False and result["failed"] >= 1
    assert "FAIL" in proc.stdout


def test_unknown_workload_fails_loudly():
    proc = run("--workload", "no-such-workload")
    assert proc.returncode == 2
    assert "unknown workload" in proc.stderr
    assert proc.stdout.strip() == ""


def test_fails_without_the_simulator(tmp_path):
    checkout = copy_bench(tmp_path, with_src=False)
    proc = run("--workload", "figures-cold", "--quick", cwd=checkout)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
