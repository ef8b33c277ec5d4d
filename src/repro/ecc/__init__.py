"""Error-correction substrate: GF(2^m), binary BCH, and (72,64) SECDED.

* :mod:`repro.ecc.gf` — finite-field arithmetic with exp/log tables.
* :mod:`repro.ecc.bch` — the shortened (592, 512) BCH-8 line code with
  decoupled detection/correction, plus arbitrary (t, k) construction.
* :mod:`repro.ecc.regimes` — the shared corrected / detected-uncorrectable
  / silent three-way split of error counts (and its thresholds).
* :mod:`repro.ecc.secded` — the TLC baseline's per-word SECDED.
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
    ".secded": ("Secded7264", "SecdedResult", "SecdedStatus"),
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
    "Secded7264",
    "SecdedResult",
    "SecdedStatus",
]
