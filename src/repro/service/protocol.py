"""Wire protocol for the sweep server: newline-delimited JSON.

One message per line, UTF-8 JSON, ``\\n``-terminated — trivially
streamable over asyncio streams, greppable in a packet capture, and
speakable from ``netcat``.  Client→server messages carry an ``"op"``
(``submit`` / ``watch`` / ``ping`` / ``stats``); server→client messages
carry an ``"event"`` (``hello`` / ``accepted`` / ``result`` / ``trace``
/ ``progress`` / ``error`` / ``pong`` / ``stats`` / ``done``).

The experiment vocabulary is exactly the harness's: a wire cell is
validated against the harness's registries
(:data:`repro.harness.parallel.COMPILER_CONFIGS`,
:data:`repro.harness.parallel.HARDWARE_CONFIGS` and the workload
registry) and becomes the harness's own
:class:`repro.harness.parallel.Cell`, so the server, the disk cache, and
a serial ``compute_cell`` can never disagree about what a cell *is*.
:func:`cell_spec` and :func:`validate_cell` are the wire form's round
trip.

Determinism contract: :func:`result_payload` is the *one* projection of
a :class:`~repro.harness.experiment.RunResult` onto the wire, and
:func:`canonical_json` the one byte encoding (sorted keys, compact
separators) — served bytes are comparable ``==`` against a serial run
pushed through the same two functions.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import fields

from ..harness.parallel import (
    COMPILER_CONFIGS,
    HARDWARE_CONFIGS,
    Cell,
    compute_cell,
)
from ..hw.config import BASELINE_4WIDE
from ..workloads import workload_names

#: protocol version spoken in the hello event.
PROTOCOL_VERSION = 1

#: per-frame byte limit for both stream directions.  Far above any
#: control frame, but a served Chrome trace is one frame too and a
#: traced workload easily emits megabytes — asyncio's default 64 KiB
#: readline limit would kill the client pump mid-stream.
FRAME_LIMIT = 1 << 26

#: typed error codes (the full closed set a client must handle).
ERROR_CODES = (
    "bad_json",        # the line was not a JSON object
    "bad_request",     # structurally invalid op/fields
    "unknown_op",      # op not in the vocabulary
    "unknown_workload",
    "unknown_compiler",
    "unknown_hardware",
    "duplicate_id",    # request id reused on this connection
    "slow_consumer",   # evicted: the client stopped draining its queue
    "compute_failed",  # the cell itself raised/quarantined server-side
)

#: every cell field and its default (workload and compiler have none).
_CELL_DEFAULTS = {f.name: f.default for f in fields(Cell)}


class ProtocolError(Exception):
    """A typed protocol violation: ``code`` is one of :data:`ERROR_CODES`."""

    def __init__(self, code: str, detail: str) -> None:
        assert code in ERROR_CODES, code
        super().__init__(detail)
        self.code = code
        self.detail = detail

    def event(self, **extra) -> dict:
        """The error event a server sends for this violation."""
        return {"event": "error", "code": self.code,
                "detail": self.detail, **extra}


# -- framing -------------------------------------------------------------------

def encode(message: dict) -> bytes:
    """One wire frame: compact JSON + newline."""
    return (json.dumps(message, separators=(",", ":"), sort_keys=True)
            + "\n").encode("utf-8")


def decode(line: bytes) -> dict:
    """Parse one frame; raises :class:`ProtocolError` on garbage."""
    try:
        message = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError("bad_json", f"undecodable frame: {exc}") from None
    if not isinstance(message, dict):
        raise ProtocolError(
            "bad_json", f"frame must be a JSON object, got {type(message).__name__}"
        )
    return message


# -- cells ---------------------------------------------------------------------

def cell_spec(cell: Cell) -> dict:
    """The wire form of a cell: its names plus every field off its
    default (round-trips through :func:`validate_cell`)."""
    spec = {"hardware": cell.hardware}
    for name, default in _CELL_DEFAULTS.items():
        value = getattr(cell, name)
        if value != default:
            spec[name] = value
    return spec


def validate_cell(spec, index: int = 0) -> Cell:
    """A :class:`~repro.harness.parallel.Cell` from one wire spec, or a
    typed error.

    Validation is total: unknown fields, wrong types, and names missing
    from the workload/compiler/hardware registries each raise the
    matching :class:`ProtocolError` *before* anything is scheduled, so a
    bad submit can never occupy worker capacity.
    """
    where = f"cells[{index}]"
    if not isinstance(spec, dict):
        raise ProtocolError("bad_request", f"{where} must be an object")
    unknown = set(spec) - _CELL_DEFAULTS.keys()
    if unknown:
        raise ProtocolError(
            "bad_request", f"{where} has unknown fields {sorted(unknown)}")
    spec = {"hardware": BASELINE_4WIDE.name, **spec}
    for required in ("workload", "compiler", "hardware"):
        if not isinstance(spec.get(required), str):
            raise ProtocolError(
                "bad_request", f"{where} needs a string {required!r}")
    workload = spec["workload"]
    if workload not in workload_names():
        raise ProtocolError(
            "unknown_workload",
            f"{where}: no workload {workload!r}; "
            f"available: {sorted(workload_names())}")
    compiler = spec["compiler"]
    if compiler not in COMPILER_CONFIGS:
        raise ProtocolError(
            "unknown_compiler",
            f"{where}: no compiler config {compiler!r}; "
            f"available: {sorted(COMPILER_CONFIGS)}")
    hardware = spec["hardware"]
    if hardware not in HARDWARE_CONFIGS:
        raise ProtocolError(
            "unknown_hardware",
            f"{where}: no hardware config {hardware!r}; "
            f"available: {sorted(HARDWARE_CONFIGS)}")
    seed = spec.get("seed")
    if seed is not None and (isinstance(seed, bool) or not isinstance(seed, int)):
        raise ProtocolError("bad_request", f"{where}: seed must be an int")
    for flag in ("timing", "force_monomorphic", "adaptive", "trace"):
        if not isinstance(spec.get(flag, False), bool):
            raise ProtocolError("bad_request", f"{where}: {flag} must be a bool")
    return Cell(**spec)


# benchmarks/e2e imports the worker entry under its former name.
compute_service_cell = compute_cell


# -- result projection ---------------------------------------------------------

def _jsonify(value):
    """JSON-safe deep copy with a *stable* shape (tuples become lists
    eagerly, so in-memory and round-tripped payloads compare equal)."""
    if isinstance(value, (list, tuple)):
        return [_jsonify(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _jsonify(item) for key, item in value.items()}
    return value


def result_payload(result) -> dict:
    """The canonical wire projection of one
    :class:`~repro.harness.experiment.RunResult`: per-sample stats
    summaries and guest outcomes, plus the figure-row aggregates the
    report drivers consume.  Every served result — cold, deduped, hot,
    disk — flows through this one function, as does the serial reference
    in the determinism tests."""
    return {
        "workload": result.workload,
        "compiler": result.compiler,
        "hardware": result.hardware,
        "samples": [
            {
                "weight": sample.weight,
                "stats": _jsonify(sample.stats.summary()),
                "guest_results": _jsonify(sample.guest_results),
                "compiled_methods": sample.compiled_methods,
                "recompilations": sample.recompilations,
            }
            for sample in result.samples
        ],
        "figure_row": {
            "cycles": result.cycles,
            "uops": result.uops,
            "coverage": result.coverage,
            "unique_regions": result.unique_regions,
            "mean_region_size": result.mean_region_size,
            "abort_pct": result.abort_pct,
            "aborts_per_kuop": result.aborts_per_kuop,
        },
    }


def canonical_json(payload: dict) -> bytes:
    """The one byte-encoding of a payload (sorted keys, compact)."""
    return json.dumps(payload, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def payload_digest(payload: dict) -> str:
    """sha256 over :func:`canonical_json` — the wire-level identity a
    client can compare against a local serial run without shipping the
    full payload back."""
    return hashlib.sha256(canonical_json(payload)).hexdigest()
