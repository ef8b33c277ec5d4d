"""The artifact index: every experiment id and where its driver lives.

This module imports nothing, so listing the artifacts (``readduo
list``) loads no driver and no numeric module. :mod:`.catalog` resolves
the same table into :data:`~repro.experiments.catalog.EXPERIMENTS`, so
the listing and the runnable catalog cannot disagree.
"""

#: Experiment id -> ``(module, attribute)`` of its driver, relative to
#: :mod:`repro.experiments`, in listing order.
DRIVERS = {
    "ablation-scrub-contention": ("ablations", "ablation_scrub_contention"),
    "ablation-write-cancellation": ("ablations", "ablation_write_cancellation"),
    "ablation-conversion-throttle": ("ablations", "ablation_conversion_throttle"),
    "ablation-write-truncation": ("ablations", "ablation_write_truncation"),
    "extra-bch-detection": ("extras", "bch_detection_study"),
    "extra-fault-density": ("faults", "fault_density_study"),
    "extra-scrub-interval": ("extras", "scrub_interval_sensitivity"),
    "extra-precise-write": ("extras", "precise_write_comparison"),
    "extra-mc-validation": ("extras", "montecarlo_validation"),
    **{
        f"table{n}": (f"tables.table{n}", "run")
        for n in (1, 2, 3, 4, 5, 7, 8, 9, 10)
    },
    **{
        f"figure{n}": (f"figures.figure{n}", "run")
        for n in (1, 2, 3, 4, 5, 6, 9, 10, 11, 12, 13, 14, 15)
    },
}

#: Experiments that trigger the (slow, cached) full simulation sweep.
SWEEP_EXPERIMENTS = (
    "figure3",
    "figure4",
    "figure9",
    "figure10",
    "figure11",
    "figure12",
    "figure13",
    "figure14",
    "figure15",
)

__all__ = ["DRIVERS", "SWEEP_EXPERIMENTS"]
