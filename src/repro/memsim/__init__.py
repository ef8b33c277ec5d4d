"""Event-driven memory-system simulator.

* :mod:`repro.memsim.config` — platform parameters (Table VIII).
* :mod:`repro.memsim.policy` — the scheme/engine interface.
* :mod:`repro.memsim.engine` — cores, banks, scrub engine, event loop.
* :mod:`repro.memsim.stats` — per-run measurements.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    ".config": ("DEFAULT_MEMORY_CONFIG", "MemoryConfig"),
    ".engine": ("MemorySystemSim", "simulate"),
    ".policy": ("ReadDecision", "ReadMode", "SchemePolicy", "ScrubDecision", "WriteDecision"),
    ".stats": ("RunStats",),
})

__all__ = [
    "DEFAULT_MEMORY_CONFIG",
    "MemoryConfig",
    "MemorySystemSim",
    "simulate",
    "ReadDecision",
    "ReadMode",
    "SchemePolicy",
    "ScrubDecision",
    "WriteDecision",
    "RunStats",
]
