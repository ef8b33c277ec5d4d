"""Error-correction substrate: GF(2^m) and binary BCH.

* :mod:`repro.ecc.gf` — finite-field arithmetic with exp/log tables.
* :mod:`repro.ecc.bch` — the shortened (592, 512) BCH-8 line code with
  decoupled detection/correction, plus arbitrary (t, k) construction.
* :mod:`repro.ecc.regimes` — the shared corrected / detected-uncorrectable
  / silent three-way split of error counts (and its thresholds).

The TLC baseline's per-word (72, 64) SECDED enters only as a cell count
(:func:`repro.pcm.area.tlc_line_budget`); no codec is needed for it.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    ".bch": ("BCHCode", "DecodeResult", "DecodeStatus", "bch8_for_line"),
    ".gf": ("GF2m", "PRIMITIVE_POLYS", "get_field"),
    ".regimes": (
        "CORRECTABLE_ERRORS",
        "DETECTABLE_ERRORS",
        "ErrorRegime",
        "classify_error_count",
    ),
})

__all__ = [
    "BCHCode",
    "DecodeResult",
    "DecodeStatus",
    "bch8_for_line",
    "CORRECTABLE_ERRORS",
    "DETECTABLE_ERRORS",
    "ErrorRegime",
    "classify_error_count",
    "GF2m",
    "PRIMITIVE_POLYS",
    "get_field",
]
