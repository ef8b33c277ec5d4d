"""Observability for the simulator and the experiment sweeps.

Cooperating pieces, all optional and all off by default:

* :mod:`repro.obs.metrics` — a lightweight metrics registry (counters,
  gauges, fixed-bucket histograms) with a no-op null backend;
* :mod:`repro.obs.tracing` — an in-memory event tracer exportable as
  JSONL or Chrome ``trace_event`` JSON (chrome://tracing / Perfetto);
* :mod:`repro.obs.spans` — hierarchical cross-process span tracing for
  the execution layer (plan build, cache tiers, run units, fastpath),
  riding the same tracer as ``kind == "span"`` records;
* :mod:`repro.obs.ledger` — the append-only run-provenance ledger, one
  JSONL record per resolved run unit;
* :mod:`repro.obs.schema` — checked-in JSON schemas for the span and
  ledger record formats, with a dependency-free validator;
* :mod:`repro.obs.report` — aggregation behind ``readduo report``;
* :mod:`repro.obs.progress` — the executor's live progress/ETA line;
* :mod:`repro.obs.logutil` — stdlib-logging helpers that keep every
  diagnostic line on stderr.

:class:`Telemetry` bundles a tracer, a registry, and a ledger so call
sites thread one optional argument instead of three. The engine treats
``None`` (the default everywhere) as "fully disabled" and pays
essentially nothing on its hot path; see docs/OBSERVABILITY.md for the
metric names, the record schemas, and measured overhead.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    ".logutil": ("configure_logging", "get_logger", "verbosity_to_level"),
    ".metrics": (
        "NULL_REGISTRY",
        "QUEUE_DEPTH_BUCKETS",
        "READ_LATENCY_BUCKETS_NS",
        "Counter",
        "Gauge",
        "Histogram",
        "MetricsRegistry",
        "NullRegistry",
    ),
    ".spans": ("SpanContext", "SpanTracker", "current_tracker", "maybe_span"),
    ".telemetry": ("Telemetry",),
    ".tracing": ("NullTracer", "Tracer", "chrome_trace_events"),
})

__all__ = [
    "Telemetry",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "Counter",
    "Gauge",
    "Histogram",
    "Tracer",
    "NullTracer",
    "chrome_trace_events",
    "SpanContext",
    "SpanTracker",
    "current_tracker",
    "maybe_span",
    "READ_LATENCY_BUCKETS_NS",
    "QUEUE_DEPTH_BUCKETS",
    "get_logger",
    "configure_logging",
    "verbosity_to_level",
]
