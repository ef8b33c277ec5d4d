"""The benchmark's metric catalogue: names, units and which direction is better.

``BENCHMARK.json`` at the repository root repeats these lists; the
benchmark's tests check that the two agree, so a metric is declared once
here and nowhere else in the code.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

#: The 11 registered schemes, in the order ``tests/test_sweep_regression.py``
#: pins them. Fastpath-eligible (Ideal, TLC, Hybrid, Scrubbing-W0) and
#: fallback (LWT-k, Select-k:s, Scrubbing, M-metric) schemes sit side by side.
SCHEMES: Tuple[str, ...] = (
    "Ideal", "Scrubbing", "Scrubbing-W0", "M-metric", "Hybrid", "TLC",
    "LWT-2", "LWT-4", "LWT-4-noconv", "Select-4:1", "Select-4:2",
)

#: Fallback reasons ``repro.memsim.fastpath`` records; anything else a
#: later engine reports is counted as ``other``.
FALLBACK_REASONS: Tuple[str, ...] = (
    "ineligible", "no_native", "context_mismatch", "config_limits",
    "empty_trace", "kernel_error", "other",
)

#: (name, unit, better, bound). Every workload reports every one of these;
#: what each means on each workload is tabulated in README.md.
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("throughput_per_s", "1/s", "higher", 0.25),
    ("latency_ms", "ms", "lower", 0.25),
]


def scheme_metric(scheme: str) -> str:
    """Per-scheme kernel cost metric name (``:`` is not a legal name letter)."""
    return "memsim.us_per_req." + scheme.replace(":", "_")


def _per_layer() -> List[Tuple[str, str, str]]:
    rows: List[Tuple[str, str, str]] = [
        ("startup.import_s", "s", "lower"),
        ("startup.scipy_import_s", "s", "lower"),
        ("startup.numpy_import_s", "s", "lower"),
        ("startup.native_load_s", "s", "lower"),
        ("traces.generate_calls", "count", "lower"),
        ("traces.generate_s", "s", "lower"),
        ("memsim.simulate_calls", "count", "lower"),
        ("memsim.simulate_s", "s", "lower"),
    ]
    rows += [(scheme_metric(s), "us", "lower") for s in SCHEMES]
    rows.append(("memsim.fastpath.speculated", "count", "higher"))
    rows += [
        (f"memsim.fastpath.fallback.{reason}", "count", "lower")
        for reason in FALLBACK_REASONS
    ]
    rows += [
        ("memsim.fastpath.verify_abort", "count", "lower"),
        ("memsim.fastpath_hit_ratio", "ratio", "higher"),
        ("planner.build_plan_s", "s", "lower"),
        ("planner.execute_plan_self_s", "s", "lower"),
        ("planner.units_total", "count", "lower"),
        ("planner.units_memo", "count", "higher"),
        ("planner.units_disk", "count", "higher"),
        ("planner.units_simulated", "count", "lower"),
        ("cache.run_load_calls", "count", "lower"),
        ("cache.run_load_s", "s", "lower"),
        ("cache.run_bytes_read", "bytes", "lower"),
        ("cache.hit_ratio", "ratio", "higher"),
        ("cache.run_store_calls", "count", "lower"),
        ("cache.run_store_s", "s", "lower"),
        ("cache.run_bytes_written", "bytes", "lower"),
        ("cache.sweep_store_s", "s", "lower"),
        ("cache.sweep_peek_s", "s", "lower"),
        ("stats.to_dict_calls", "count", "lower"),
        ("stats.to_dict_s", "s", "lower"),
        ("stats.from_dict_s", "s", "lower"),
        ("drivers.prewarm_s", "s", "lower"),
        ("drivers.tables_s", "s", "lower"),
        ("drivers.figures_s", "s", "lower"),
        ("execution.submit_s", "s", "lower"),
        ("execution.sweep_s", "s", "lower"),
        ("server.cpu_ms_per_req.hot", "ms", "lower"),
        ("server.cpu_ms_per_req.mixed", "ms", "lower"),
        ("server.hot_ms_p50", "ms", "lower"),
        ("server.cold_ms_p50", "ms", "lower"),
        ("server.store_ms_p50", "ms", "lower"),
        ("server.connect_ms_p50", "ms", "lower"),
        ("server.coalescing_ratio", "ratio", "higher"),
        ("server.tier_memo", "count", "higher"),
        ("server.tier_simulated", "count", "lower"),
        ("server.rejected", "count", "lower"),
        ("loadgen.p99_ms", "ms", "lower"),
        ("loadgen.late_ms_p99", "ms", "lower"),
        ("trace.overhead_frac", "ratio", "lower"),
        ("trace.unattributed_frac", "ratio", "lower"),
    ]
    return rows


PER_LAYER: List[Tuple[str, str, str]] = _per_layer()

UNITS: Dict[str, str] = {
    **{name: unit for name, unit, _better, _bound in END_TO_END},
    **{name: unit for name, unit, _better in PER_LAYER},
}


def benchmark_document() -> Dict[str, object]:
    """The ``end_to_end``/``per_layer`` parts of ``BENCHMARK.json``."""
    return {
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER
        ],
    }
