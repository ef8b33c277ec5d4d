"""ReadDuo core: hybrid readout, last-write tracking, selective rewrite.

* :mod:`repro.core.registry` — the scheme registry (names, aliases,
  parameterized families, factories); schemes self-register here.
* :mod:`repro.core.policies` — the scheme policy implementations, one
  module per family.
* :mod:`repro.core.truncation` — write truncation [11] as the
  ``<scheme>+trunc`` wrapper.
* :mod:`repro.core.lwt` — the Figure 5 flag automaton and the quantized
  tracker.
* :mod:`repro.core.conversion` — the adaptive R-M-read conversion
  throttle.
* :mod:`repro.core.readout` — a functional ReadDuo controller on real
  cells (write/read/scrub actual BCH-coded bits).
* :mod:`repro.core.sampler` — analytic drift-error sampling.
* :mod:`repro.core.agemodel` — steady-state initial line ages.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    ".agemodel": ("InitialAgeModel",),
    ".conversion": ("AdaptiveConversionController",),
    ".lwt": ("LwtLineFlags", "QuantizedTracker", "lwt_flag_bits"),
    ".readout": ("ReadDuoController", "ReadMechanism", "ReadOutcome"),
    ".sampler": ("DriftErrorSampler",),
    ".policies": (
        "CORRECTABLE_ERRORS",
        "DETECTABLE_ERRORS",
        "HybridPolicy",
        "IdealPolicy",
        "LwtPolicy",
        "M_SCRUB_INTERVAL_S",
        "MMetricPolicy",
        "PolicyContext",
        "R_SCRUB_INTERVAL_S",
        "ScrubbingPolicy",
        "SelectPolicy",
    ),
    ".registry": ("make_policy", "register_scheme", "scheme_names"),
})

__all__ = [
    "register_scheme",
    "scheme_names",
    "InitialAgeModel",
    "AdaptiveConversionController",
    "LwtLineFlags",
    "QuantizedTracker",
    "lwt_flag_bits",
    "ReadDuoController",
    "ReadMechanism",
    "ReadOutcome",
    "DriftErrorSampler",
    "CORRECTABLE_ERRORS",
    "DETECTABLE_ERRORS",
    "HybridPolicy",
    "IdealPolicy",
    "LwtPolicy",
    "M_SCRUB_INTERVAL_S",
    "MMetricPolicy",
    "PolicyContext",
    "R_SCRUB_INTERVAL_S",
    "ScrubbingPolicy",
    "SelectPolicy",
    "make_policy",
]
