"""The artifact index: every experiment id and where its code lives.

This module imports nothing, so listing the artifacts (``readduo
list``) loads no driver and no numeric module. :mod:`.catalog` resolves
the same tables into :data:`~repro.experiments.catalog.EXPERIMENTS` and
:data:`~repro.experiments.catalog.EXPERIMENT_SPECS`, one module at a
time, so the listing and the runnable catalog cannot disagree and
``readduo run <id>`` imports only the drivers it runs.
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

#: Experiment id -> ``(module, attribute)`` of its spec collector, a
#: callable returning the SimSpecs that experiment's driver will feed to
#: run_sweep. Every simulating driver has one: its variants are scheme
#: names (``LWT-4@T100``, ``Precise-2``, ``Select-4:2+trunc``), never
#: hand-built policies. Closed-form and Monte-Carlo drivers are absent.
SPEC_COLLECTORS = {
    **{
        experiment_id: ("figures._sweep", "sweep_specs")
        for experiment_id in SWEEP_EXPERIMENTS
    },
    "ablation-scrub-contention": ("ablations", "scrub_contention_specs"),
    "ablation-write-cancellation": ("ablations", "write_cancellation_specs"),
    "ablation-conversion-throttle": ("ablations", "conversion_throttle_specs"),
    "ablation-write-truncation": ("ablations", "write_truncation_specs"),
    "extra-fault-density": ("faults", "fault_density_specs"),
    "extra-scrub-interval": ("extras", "scrub_interval_specs"),
    "extra-precise-write": ("extras", "precise_write_specs"),
}

__all__ = ["DRIVERS", "SPEC_COLLECTORS", "SWEEP_EXPERIMENTS"]
