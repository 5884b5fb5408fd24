"""Observability: region-lifecycle tracing, metrics, and trace exporters.

Three pieces (DESIGN.md §8):

- :class:`Tracer` / :data:`NULL_TRACER` — typed events (region
  enter/commit/abort, context switches, tier transitions, fault
  injections) in a bounded ring buffer, timestamped by deterministic
  hardware counters so the same seed reproduces the same stream;
- :class:`Metrics` — name-addressed counters for host-side events that
  have no other home (the sweep server's); execution counters live in
  :class:`~repro.hw.stats.ExecStats` only;
- :func:`to_chrome_trace` / :func:`dump_chrome_trace` — Chrome
  trace-event JSON, loadable in Perfetto, validated by
  :func:`validate_chrome_trace`.

The overhead contract: every emission site is guarded by one
``tracer.enabled`` attribute check, and tracing on/off is observationally
identical (``tests/test_differential.py``).
"""

from .export import (
    ALLOWED_PHASES,
    REQUIRED_FIELDS,
    dump_chrome_trace,
    to_chrome_trace,
    validate_chrome_trace,
)
from .metrics import Metrics
from .tracer import EVENT_KINDS, NULL_TRACER, NullTracer, TraceEvent, Tracer

__all__ = [
    "ALLOWED_PHASES",
    "EVENT_KINDS",
    "Metrics",
    "NULL_TRACER",
    "NullTracer",
    "REQUIRED_FIELDS",
    "TraceEvent",
    "Tracer",
    "dump_chrome_trace",
    "to_chrome_trace",
    "validate_chrome_trace",
]
