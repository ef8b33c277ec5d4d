"""Baseline schemes the paper compares against."""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    ".precise": ("precise_write_policy",),
    ".tlc": ("TlcPolicy",),
})

__all__ = ["TlcPolicy", "precise_write_policy"]
