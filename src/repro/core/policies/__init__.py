"""Scheme policy implementations, one module per scheme family.

Importing this package registers every built-in scheme with
:mod:`repro.core.registry` — submodules self-register at import time, in
the order below, which fixes the advertised
:func:`~repro.core.registry.scheme_names` ordering. The baselines
(``Precise-<w>``, TLC) live in :mod:`repro.baselines` but are imported
last here so the registry is complete after ``import repro.core.policies``.
No module on this path imports numpy at module scope: the policies import
it (and the error sampler) when one is constructed, so listing or
validating scheme names costs no numeric stack.
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

# Imported last: the baselines register after the paper's schemes so the
# listing order matches the figures' legend order. ``Precise-<w>`` is
# imported by name so it precedes TLC whichever module is imported first.
from ...baselines.precise import precise_write_policy  # noqa: F401
from ...baselines.tlc import TlcPolicy
from .. import truncation  # noqa: F401  (registers <scheme>+trunc)

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
    "TlcPolicy",
]
