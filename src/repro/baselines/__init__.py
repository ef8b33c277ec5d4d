"""Baseline schemes the paper compares against."""

# The policies package registers every built-in scheme, these two
# included, in listing order. Importing it first keeps that order when a
# baseline module is the first one imported, and keeps
# ``import repro.baselines.tlc`` out of a policies <-> tlc import cycle.
from ..core import policies as _policies  # noqa: F401
from .precise import precise_write_policy
from .tlc import TlcPolicy

__all__ = ["TlcPolicy", "precise_write_policy"]
