"""Deterministic, seeded fault injection for the PCM simulation stack.

ReadDuo's value proposition is surviving errors; this package supplies
the errors. It models the hard-error reality that drift modeling alone
ignores — endurance wear-out (stuck-at cells), transient read noise, and
write failures — as *seeded generators* keyed by the run's content hash
and the faulted line's ``(bank, line)`` address, so a fault schedule is
bit-reproducible across worker counts, process pools, and cache replays.

* :mod:`repro.faults.models` — :class:`FaultSpec` (the declarative,
  hashable fault configuration that extends
  :class:`~repro.experiments.spec.SimSpec`) and the per-line fault
  derivation.
* :mod:`repro.faults.injector` — :class:`FaultInjector`, the stateful
  per-run instance the engine consults before sensing, plus
  :class:`FaultCounters`, the per-run accounting attached to
  :class:`~repro.memsim.stats.RunStats`.

See docs/RESILIENCE.md for the fault models and the seeding scheme.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    ".injector": ("FaultInjector", "LineFaultState"),
    ".models": ("FaultCounters", "FaultSpec", "FaultSpecError", "line_fault_seed"),
})

__all__ = [
    "FaultCounters",
    "FaultInjector",
    "FaultSpec",
    "FaultSpecError",
    "LineFaultState",
    "line_fault_seed",
]
