"""MLC PCM device substrate: drift model, sensing, arrays, energy, area.

Public surface:

* :mod:`repro.pcm.params` — Tables I/II/VIII/IX model constants.
* :mod:`repro.pcm.cell` / :mod:`repro.pcm.array` — stochastic drift state,
  single-cell and vectorized.
* :mod:`repro.pcm.sensing` — R/M/hybrid sense amplifiers.
* :mod:`repro.pcm.data` — byte <-> gray-coded level conversions.
* :mod:`repro.pcm.iv` — low-field I-V curves (Figure 2).
* :mod:`repro.pcm.area` — subarray area and cells-per-line budgets.
* :mod:`repro.pcm.endurance` — wear accounting and lifetime.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    ".array": ("CellArray", "LineReadResult"),
    ".cell": ("Cell", "drift_log10", "drifted_log10", "sample_alpha", "sample_initial_log10"),
    ".data": (
        "bytes_to_levels",
        "bytes_to_symbols",
        "count_bit_errors",
        "levels_to_bytes",
        "levels_to_symbols",
        "symbol_bit_errors",
        "symbols_to_bytes",
        "symbols_to_levels",
    ),
    ".endurance": ("CELL_ENDURANCE_WRITES", "WearAccount", "lifetime_years"),
    ".energy": ("EnergyAccount",),
    ".iv": ("DEFAULT_IV_MODEL", "IVModel"),
    ".params": (
        "DEFAULT_ENERGY",
        "DEFAULT_TIMING",
        "EnergyParams",
        "GRAY_LEVEL_TO_BITS",
        "M_METRIC",
        "MetricParams",
        "NUM_LEVELS",
        "R_METRIC",
        "TimingParams",
        "bits_to_level",
        "hamming_distance_levels",
        "level_to_bits",
    ),
    ".sensing": (
        "HybridSenseAmplifier",
        "MSenseAmplifier",
        "RSenseAmplifier",
        "SenseAmplifier",
        "sense_levels",
    ),
})

__all__ = [
    "CellArray",
    "LineReadResult",
    "Cell",
    "drift_log10",
    "drifted_log10",
    "sample_alpha",
    "sample_initial_log10",
    "bytes_to_levels",
    "bytes_to_symbols",
    "count_bit_errors",
    "levels_to_bytes",
    "levels_to_symbols",
    "symbol_bit_errors",
    "symbols_to_bytes",
    "symbols_to_levels",
    "CELL_ENDURANCE_WRITES",
    "EnergyAccount",
    "WearAccount",
    "lifetime_years",
    "DEFAULT_IV_MODEL",
    "IVModel",
    "DEFAULT_ENERGY",
    "DEFAULT_TIMING",
    "EnergyParams",
    "GRAY_LEVEL_TO_BITS",
    "M_METRIC",
    "MetricParams",
    "NUM_LEVELS",
    "R_METRIC",
    "TimingParams",
    "bits_to_level",
    "hamming_distance_levels",
    "level_to_bits",
    "HybridSenseAmplifier",
    "MSenseAmplifier",
    "RSenseAmplifier",
    "SenseAmplifier",
    "sense_levels",
]
