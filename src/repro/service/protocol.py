"""Wire protocol for the sweep server: newline-delimited JSON.

One message per line, UTF-8 JSON, ``\\n``-terminated — trivially
streamable over asyncio streams, greppable in a packet capture, and
speakable from ``netcat``.  Client→server messages carry an ``"op"``
(``submit`` / ``watch`` / ``ping`` / ``stats``); server→client messages
carry an ``"event"`` (``hello`` / ``accepted`` / ``result`` / ``trace``
/ ``progress`` / ``error`` / ``pong`` / ``stats`` / ``done``).

The experiment vocabulary is exactly the harness's: a cell is a
(workload, compiler, hardware, seed, flags) tuple validated against the
same registries the parallel runner resolves
(:data:`repro.harness.parallel.COMPILER_CONFIGS`, the
:mod:`repro.hw.config` hardware table including the HTM variants, and
the workload registry), and its identity is the canonical
:func:`repro.harness.experiment.memo_key` — so the server, the disk
cache, and a serial ``compute_cell`` can never disagree about what a
cell *is*.  ``seed`` maps to :meth:`repro.faults.FaultPlan.seeded`
exactly as the chaos harness's default does, which is what makes a
"seed matrix of figure cells" servable.

Determinism contract: :func:`result_payload` is the *one* projection of
a :class:`~repro.harness.experiment.RunResult` onto the wire, and
:func:`canonical_json` the one byte encoding (sorted keys, compact
separators) — served bytes are comparable ``==`` against a serial run
pushed through the same two functions.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from ..faults import FaultPlan
from ..harness import experiment
from ..harness.parallel import COMPILER_CONFIGS, HARDWARE_CONFIGS
from ..hw.config import htm_variant_configs
from ..workloads import get_workload, workload_names

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

#: hardware table the service validates against: the figure configs plus
#: every best-effort HTM variant (all resolved from repro.hw.config).
SERVICE_HARDWARE = dict(HARDWARE_CONFIGS)
for _hw in htm_variant_configs():
    SERVICE_HARDWARE.setdefault(_hw.name, _hw)

_CELL_FIELDS = frozenset((
    "workload", "compiler", "hardware", "seed", "timing",
    "force_monomorphic", "adaptive", "trace",
))


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

@dataclass(frozen=True)
class ServiceCell:
    """One servable experiment cell (picklable; resolved by name in the
    worker, exactly like :class:`repro.harness.parallel.Cell`)."""

    workload: str
    compiler: str
    hardware: str = "4wide"
    seed: int | None = None
    timing: bool = True
    force_monomorphic: bool = False
    adaptive: bool = False
    trace: bool = False

    def plan(self) -> FaultPlan | None:
        """``seed`` → the chaos harness's default seeded fault schedule."""
        return None if self.seed is None else FaultPlan.seeded(self.seed)

    def key(self) -> tuple:
        """The canonical cell identity (memo key + the trace flag —
        traced executions never alias untraced cached ones)."""
        return experiment.memo_key(
            self.workload, self.compiler, self.hardware, self.timing,
            self.force_monomorphic, self.adaptive, fault_plan=self.plan(),
        ) + (("traced",) if self.trace else ())

    def spec(self) -> dict:
        """The wire form (round-trips through :func:`validate_cell`)."""
        out = {"workload": self.workload, "compiler": self.compiler,
               "hardware": self.hardware}
        if self.seed is not None:
            out["seed"] = self.seed
        if not self.timing:
            out["timing"] = False
        if self.force_monomorphic:
            out["force_monomorphic"] = True
        if self.adaptive:
            out["adaptive"] = True
        if self.trace:
            out["trace"] = True
        return out


def validate_cell(spec, index: int = 0) -> ServiceCell:
    """A :class:`ServiceCell` from one wire spec, or a typed error.

    Validation is total: unknown fields, wrong types, and names missing
    from the workload/compiler/hardware registries each raise the
    matching :class:`ProtocolError` *before* anything is scheduled, so a
    bad submit can never occupy worker capacity.
    """
    where = f"cells[{index}]"
    if not isinstance(spec, dict):
        raise ProtocolError("bad_request", f"{where} must be an object")
    unknown = set(spec) - _CELL_FIELDS
    if unknown:
        raise ProtocolError(
            "bad_request", f"{where} has unknown fields {sorted(unknown)}")
    for required in ("workload", "compiler"):
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
    hardware = spec.get("hardware", "4wide")
    if hardware not in SERVICE_HARDWARE:
        raise ProtocolError(
            "unknown_hardware",
            f"{where}: no hardware config {hardware!r}; "
            f"available: {sorted(SERVICE_HARDWARE)}")
    seed = spec.get("seed")
    if seed is not None and (isinstance(seed, bool) or not isinstance(seed, int)):
        raise ProtocolError("bad_request", f"{where}: seed must be an int")
    for flag in ("timing", "force_monomorphic", "adaptive", "trace"):
        if not isinstance(spec.get(flag, False), bool):
            raise ProtocolError("bad_request", f"{where}: {flag} must be a bool")
    return ServiceCell(
        workload=workload, compiler=compiler, hardware=hardware, seed=seed,
        timing=spec.get("timing", True),
        force_monomorphic=spec.get("force_monomorphic", False),
        adaptive=spec.get("adaptive", False),
        trace=spec.get("trace", False),
    )


# -- execution (worker entry points; must be module-level picklables) ----------

def compute_service_cell(cell: ServiceCell):
    """Worker entry: run one cell exactly as a serial ``compute_cell``
    would (cache-bypassing ``run_workload``); returns (key, result)."""
    result = experiment.run_workload(
        get_workload(cell.workload),
        COMPILER_CONFIGS[cell.compiler],
        SERVICE_HARDWARE[cell.hardware],
        timing=cell.timing,
        force_monomorphic=cell.force_monomorphic,
        adaptive=cell.adaptive,
        fault_plan=cell.plan(),
        use_cache=False,
    )
    return cell.key(), result


def compute_service_cell_traced(cell: ServiceCell):
    """Worker entry for ``trace=True`` cells: same execution with a live
    region-lifecycle tracer; returns (key, result, events, truncated)."""
    from ..obs import Tracer

    tracer = Tracer()
    result = experiment.run_workload(
        get_workload(cell.workload),
        COMPILER_CONFIGS[cell.compiler],
        SERVICE_HARDWARE[cell.hardware],
        timing=cell.timing,
        force_monomorphic=cell.force_monomorphic,
        adaptive=cell.adaptive,
        fault_plan=cell.plan(),
        use_cache=False,
        tracer=tracer,
    )
    return cell.key(), result, tracer.events, tracer.truncated


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
