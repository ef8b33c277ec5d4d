"""The BCH-8 error-count regimes ReadDuo's readout controller acts on.

The line code (:func:`repro.ecc.bch.bch8_for_line`) corrects up to
``t = 8`` errors and — by designed distance ``2t + 2 = 18`` — *always
detects* 9 to ``2t + 1 = 17`` errors; beyond 17 detection is
probabilistic and the decoder may silently miscorrect. Every consumer of
that three-way split (the scheme policies' R-read classification, the
engine's fault-injection path, the fault-density experiment, tests)
imports the thresholds and :func:`classify_error_count` from here so
there is exactly one definition of the regimes.
"""

from __future__ import annotations

import enum

import numpy as np

__all__ = [
    "CORRECTABLE_ERRORS",
    "DETECTABLE_ERRORS",
    "ErrorRegime",
    "REGIME_BY_CODE",
    "classify_error_count",
    "classify_error_counts",
]

#: BCH-8 correction capability (paper Section III-B).
CORRECTABLE_ERRORS = 8

#: Guaranteed-detection bound, ``2t + 1`` (designed distance 2t + 2).
DETECTABLE_ERRORS = 17


class ErrorRegime(enum.Enum):
    """Architectural outcome of a decode attempt at a given error count."""

    #: ``<= t`` errors: corrected in place.
    CORRECTED = "corrected"
    #: ``t+1 .. 2t+1`` errors: reported uncorrectable — the ReadDuo-Hybrid
    #: trigger condition for the R-M re-read.
    DETECTED_UNCORRECTABLE = "detected-uncorrectable"
    #: ``> 2t+1`` errors: detection no longer guaranteed; wrong data may
    #: be returned without warning.
    SILENT = "silent"


def classify_error_count(
    errors: int,
    correctable: int = CORRECTABLE_ERRORS,
    detectable: int = DETECTABLE_ERRORS,
) -> ErrorRegime:
    """Map a bit-error count to its BCH regime.

    Args:
        errors: Bit errors present in the codeword.
        correctable: Correction capability ``t`` (default: BCH-8).
        detectable: Guaranteed-detection bound ``2t + 1``.

    Returns:
        The :class:`ErrorRegime` the count lands in.
    """
    if errors < 0:
        raise ValueError("error count must be >= 0")
    if errors <= correctable:
        return ErrorRegime.CORRECTED
    if errors <= detectable:
        return ErrorRegime.DETECTED_UNCORRECTABLE
    return ErrorRegime.SILENT


#: Regime at each integer code :func:`classify_error_counts` emits.
REGIME_BY_CODE = (
    ErrorRegime.CORRECTED,
    ErrorRegime.DETECTED_UNCORRECTABLE,
    ErrorRegime.SILENT,
)


def classify_error_counts(
    errors: np.ndarray,
    correctable: int = CORRECTABLE_ERRORS,
    detectable: int = DETECTABLE_ERRORS,
) -> np.ndarray:
    """Vectorized :func:`classify_error_count` over an array of counts.

    Classifies a whole array of reads in one call: the split is two
    array comparisons instead of per-read Python dispatch.

    Args:
        errors: Integer bit-error counts, any shape.
        correctable: Correction capability ``t`` (default: BCH-8).
        detectable: Guaranteed-detection bound ``2t + 1``.

    Returns:
        ``int8`` array of regime codes, same shape as ``errors``:
        0 = corrected, 1 = detected-uncorrectable, 2 = silent
        (``REGIME_BY_CODE[code]`` maps back to the enum).
    """
    arr = np.asarray(errors, dtype=np.int64)
    if arr.size and int(arr.min()) < 0:
        raise ValueError("error count must be >= 0")
    codes = (arr > correctable).astype(np.int8)
    codes += (arr > detectable).astype(np.int8)
    return codes
