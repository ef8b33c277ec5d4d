"""Baseline schemes the paper compares against."""

from .precise import precise_write_policy
from .tlc import TlcPolicy

__all__ = ["TlcPolicy", "precise_write_policy"]
