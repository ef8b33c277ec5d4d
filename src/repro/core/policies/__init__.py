"""Scheme policy implementations, one module per scheme family.

:mod:`repro.core.registry` declares every built-in scheme and names its
factory here (or in :mod:`repro.baselines`) as a ``"module:attr"``
reference, so a module of this package is imported only when a policy
of its family is built. No module on this path imports numpy at module
scope: the policies import it (and the error sampler) when one is
constructed.
"""

from .base import (
    CORRECTABLE_ERRORS,
    DATA_CELLS,
    DETECTABLE_ERRORS,
    M_SCRUB_INTERVAL_S,
    R_SCRUB_INTERVAL_S,
    BaseDriftPolicy,
    IdealPolicy,
    PolicyContext,
)
from .scrubbing import ScrubbingPolicy
from .mmetric import MMetricPolicy
from .hybrid import HybridPolicy
from .lwt import LwtPolicy
from .select import SelectPolicy

__all__ = [
    "R_SCRUB_INTERVAL_S",
    "M_SCRUB_INTERVAL_S",
    "CORRECTABLE_ERRORS",
    "DETECTABLE_ERRORS",
    "DATA_CELLS",
    "PolicyContext",
    "BaseDriftPolicy",
    "IdealPolicy",
    "ScrubbingPolicy",
    "MMetricPolicy",
    "HybridPolicy",
    "LwtPolicy",
    "SelectPolicy",
]
