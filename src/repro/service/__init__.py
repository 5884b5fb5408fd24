"""Simulation-as-a-service: the async multi-tenant sweep server.

The harness's batch machinery (sharded parallel runner, checksummed disk
cache, fault-tolerant supervisor) turned into a long-running service:

- :class:`SweepServer` — asyncio TCP server speaking newline-delimited
  JSON; validates experiment cells against the harness registries,
  dedupes identical in-flight cells across tenants, answers cached cells
  at memory speed through an LRU hot layer, and streams results,
  progress, and Chrome traces with per-tenant fairness and backpressure
  (DESIGN.md §13).
- :class:`SweepClient` — the async client library (submit / sweep /
  watch / stats), plus ``python -m repro.service`` for the CLI forms.
- :mod:`repro.service.protocol` — the wire vocabulary, cell validation,
  and the canonical result projection whose bytes are proven identical
  to serial ``compute_cell`` runs.

A served cell is the harness's own :class:`repro.harness.Cell`, the type
figure sweeps prewarm, and it runs through the same
:func:`repro.harness.parallel.compute_cell`.

Determinism contract (the repo-wide invariant, one level up): any served
cell's payload is byte-identical to a serial run — cold, deduped, or
cached, under concurrent tenants and mid-stream disconnects.
"""

from ..harness.parallel import Cell
from .client import ServiceError, SubmitHandle, SweepClient
from .protocol import (
    ERROR_CODES,
    PROTOCOL_VERSION,
    ProtocolError,
    canonical_json,
    cell_spec,
    payload_digest,
    result_payload,
    validate_cell,
)
from .server import SweepServer

# benchmarks/e2e imports the cell type under its former name.
ServiceCell = Cell

__all__ = [
    "ERROR_CODES",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "ServiceError",
    "SubmitHandle",
    "SweepClient",
    "SweepServer",
    "canonical_json",
    "cell_spec",
    "payload_digest",
    "result_payload",
    "validate_cell",
]
