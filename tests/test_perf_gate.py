"""The CI performance gates: ``benchmarks/perf_gate.py`` and its bounds.

The ``perf-smoke`` job checks end-to-end benchmark records against the
bounds written in ``.github/workflows/ci.yml``.  Each bound is checked
here on its own: a record exactly at it passes, and one a float step
past it fails, as does a run that is not correct or has a failed
operation.  The bounds must stay at least as strict as the fixed
floors they carry over.
"""

from __future__ import annotations

import importlib.util
import math
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
CI = ROOT / ".github" / "workflows" / "ci.yml"

_spec = importlib.util.spec_from_file_location(
    "perf_gate", ROOT / "benchmarks" / "perf_gate.py")
perf_gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perf_gate)


def _ci_gates() -> dict[str, list[tuple[str, str, float]]]:
    """``{record file: [(kind, name, limit)]}`` from every perf_gate.py
    command in the CI workflow."""
    text = CI.read_text().replace("\\\n", " ")
    gates = {}
    for match in re.finditer(r"benchmarks/perf_gate\.py (\S+)(.*)", text):
        gates[match[1]] = [
            (kind, name, float(limit)) for kind, name, limit in
            re.findall(r"--(min|max) ([\w./]+)=(\S+)", match[2])]
    return gates


GATES = _ci_gates()
BOUNDS = [(record, *bound) for record, bounds in GATES.items()
          for bound in bounds]


def _record(name: str, at: float) -> dict:
    """A clean record whose ``name`` reads ``at`` (a ratio's numerator
    holds ``at`` over a denominator of 1)."""
    record = {"correct": True, "failed": 0, "metrics": {}, "details": {}}
    for part, value in zip(name.split("/"), (at, 1.0)):
        if part.startswith("details."):
            record["details"][part[len("details."):]] = value
        else:
            record["metrics"][part] = {"value": value, "unit": ""}
    return record


def test_ci_runs_every_gate():
    assert set(GATES) == {"perf-steady-untimed.json",
                          "perf-steady-timed.json",
                          "perf-service-mixed.json",
                          "perf-figures-cold.json"}
    assert all(GATES.values())


@pytest.mark.parametrize("record, kind, name, limit", BOUNDS,
                         ids=[f"{r}:{n}" for r, _, n, _ in BOUNDS])
def test_bound_holds_at_and_fails_past(record, kind, name, limit):
    mins, maxes = ([(name, limit)], []) if kind == "min" else (
        [], [(name, limit)])
    assert perf_gate.violations(_record(name, limit), mins, maxes) == []
    past = math.nextafter(limit, -math.inf if kind == "min" else math.inf)
    [problem] = perf_gate.violations(_record(name, past), mins, maxes)
    assert name in problem


@pytest.mark.parametrize("record, floor", [
    ("perf-steady-untimed.json", 2.7e6),
    ("perf-steady-timed.json", 8.2e5),
])
def test_jit_floors_keep_the_fixed_floors(record, floor):
    assert ("min", "sim_uops_per_s") in {b[:2] for b in GATES[record]}
    for kind, name, limit in GATES[record]:
        if name == "sim_uops_per_s":
            assert kind == "min" and limit >= floor


def test_cached_cells_stay_ten_times_faster():
    assert ("min", "details.cold_p50_ms/details.cached_p50_ms", 10.0) in \
        GATES["perf-service-mixed.json"]


@pytest.mark.parametrize("broken", [{"correct": False}, {"failed": 1}])
def test_unclean_run_fails(broken):
    record = dict(_record("p50_ms", 1.0), **broken)
    assert perf_gate.violations(record, [], [("p50_ms", 2.0)])


def test_missing_value_is_an_error(tmp_path):
    path = tmp_path / "r.json"
    path.write_text('{"correct": true, "failed": 0, "metrics": {}}')
    with pytest.raises(KeyError):
        perf_gate.main([str(path), "--min", "sim_uops_per_s=1"])
