"""Workload substrate: SPEC2006-like profiles and synthetic traces.

* :mod:`repro.traces.spec` — the 14 workload profiles (Table X substitute).
* :mod:`repro.traces.generator` — statistical trace synthesis.
* :mod:`repro.traces.trace` — trace container, persistence, statistics.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    ".generator": ("generate_trace", "is_cold_line"),
    ".spec": ("SPEC_WORKLOADS", "WorkloadProfile", "workload", "workload_names"),
    ".trace": ("OP_READ", "OP_WRITE", "Trace", "TraceStats"),
})

__all__ = [
    "generate_trace",
    "is_cold_line",
    "SPEC_WORKLOADS",
    "WorkloadProfile",
    "workload",
    "workload_names",
    "OP_READ",
    "OP_WRITE",
    "Trace",
    "TraceStats",
]
