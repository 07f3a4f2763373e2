"""``repro.obs``: tracing, metrics and per-run telemetry (stdlib-only).

The observability layer the rest of the stack threads through:

* :class:`Tracer` / :data:`NULL_TRACER` -- hierarchical spans with a
  single-attribute-check disabled path (:mod:`repro.obs.trace`);
* :class:`Stopwatch` -- the shared wall-clock helper replacing
  hand-rolled ``perf_counter`` pairs;
* :class:`MetricsRegistry`, a session's one counter store, plus the
  :func:`session_metrics` / :func:`serve_metrics` views over it
  (:mod:`repro.obs.metrics`);
* :class:`OptimizerTelemetry` -- the per-pass optimizer story recorded
  into ``RunRecord`` envelopes (:mod:`repro.obs.telemetry`);
* the ``pops trace`` renderers (:mod:`repro.obs.report`).
"""

from repro.obs.metrics import (
    Histogram,
    MetricsRegistry,
    serve_metrics,
    session_metrics,
)
from repro.obs.report import render_record_telemetry, render_spans
from repro.obs.telemetry import OptimizerTelemetry, PassTelemetry
from repro.obs.trace import (
    NULL_TRACER,
    NullTracer,
    Span,
    Stopwatch,
    Tracer,
    load_trace_jsonl,
)

__all__ = [
    "Histogram",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "OptimizerTelemetry",
    "PassTelemetry",
    "Span",
    "Stopwatch",
    "Tracer",
    "load_trace_jsonl",
    "render_record_telemetry",
    "render_spans",
    "serve_metrics",
    "session_metrics",
]
