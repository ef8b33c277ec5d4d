"""Analytic drift reliability: error probabilities, LER tables, targets.

* :mod:`repro.reliability.drift_prob` — per-cell error probability.
* :mod:`repro.reliability.ler` — line error rate vs (E, S): Tables III/IV.
* :mod:`repro.reliability.scrub_analysis` — W-relaxation risks: Table V.
* :mod:`repro.reliability.targets` — DRAM FIT budget conversions.
* :mod:`repro.reliability.montecarlo` — empirical model validation.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    ".drift_prob": (
        "incremental_error_probability",
        "level_error_probability",
        "mean_cell_error_probability",
    ),
    ".ler": (
        "CELLS_PER_LINE",
        "LerTable",
        "expected_line_errors",
        "ler_table",
        "line_failure_probability",
        "max_safe_interval",
    ),
    ".montecarlo": ("MonteCarloPoint", "relative_error", "simulate_error_rates"),
    ".scrub_analysis": (
        "ScrubSetting",
        "Table5Row",
        "bch_detection_limit",
        "relaxed_scrub_risk",
        "silent_corruption_risk",
        "table5",
    ),
    ".targets": ("DRAM_FIT_PER_MBIT", "DRAM_TARGET", "LINE_BITS", "ReliabilityTarget"),
})

__all__ = [
    "incremental_error_probability",
    "level_error_probability",
    "mean_cell_error_probability",
    "CELLS_PER_LINE",
    "LerTable",
    "expected_line_errors",
    "ler_table",
    "line_failure_probability",
    "max_safe_interval",
    "MonteCarloPoint",
    "relative_error",
    "simulate_error_rates",
    "ScrubSetting",
    "Table5Row",
    "bch_detection_limit",
    "relaxed_scrub_risk",
    "silent_corruption_risk",
    "table5",
    "DRAM_FIT_PER_MBIT",
    "DRAM_TARGET",
    "LINE_BITS",
    "ReliabilityTarget",
]
