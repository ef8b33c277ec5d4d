"""The artifact catalog: every reproducible table and figure by id.

:data:`EXPERIMENTS` maps experiment ids to driver callables
(``run(**kwargs) -> ExperimentResult``) so the CLI and the benchmark
harness can enumerate them. Importing this module imports every driver;
:mod:`repro.experiments` exposes its names lazily, so commands that never
render an artifact skip that cost.
"""

from typing import Callable, Dict, Tuple

from . import figures, tables
from .ablations import (
    ablation_conversion_throttle,
    ablation_scrub_contention,
    ablation_write_cancellation,
    ablation_write_truncation,
    conversion_throttle_specs,
    scrub_contention_specs,
    write_cancellation_specs,
    write_truncation_specs,
)
from .extras import (
    bch_detection_study,
    montecarlo_validation,
    precise_write_comparison,
    precise_write_specs,
    scrub_interval_sensitivity,
    scrub_interval_specs,
)
from .faults import fault_density_specs, fault_density_study
from .figures._sweep import sweep_specs
from .report import ExperimentResult
from .spec import SimSpec

EXPERIMENTS: Dict[str, Callable[..., ExperimentResult]] = {
    "ablation-scrub-contention": ablation_scrub_contention,
    "ablation-write-cancellation": ablation_write_cancellation,
    "ablation-conversion-throttle": ablation_conversion_throttle,
    "ablation-write-truncation": ablation_write_truncation,
    "extra-bch-detection": bch_detection_study,
    "extra-fault-density": fault_density_study,
    "extra-scrub-interval": scrub_interval_sensitivity,
    "extra-precise-write": precise_write_comparison,
    "extra-mc-validation": montecarlo_validation,
    "table1": tables.table1.run,
    "table2": tables.table2.run,
    "table3": tables.table3.run,
    "table4": tables.table4.run,
    "table5": tables.table5.run,
    "table7": tables.table7.run,
    "table8": tables.table8.run,
    "table9": tables.table9.run,
    "table10": tables.table10.run,
    "figure1": figures.figure1.run,
    "figure2": figures.figure2.run,
    "figure3": figures.figure3.run,
    "figure4": figures.figure4.run,
    "figure5": figures.figure5.run,
    "figure6": figures.figure6.run,
    "figure9": figures.figure9.run,
    "figure10": figures.figure10.run,
    "figure11": figures.figure11.run,
    "figure12": figures.figure12.run,
    "figure13": figures.figure13.run,
    "figure14": figures.figure14.run,
    "figure15": figures.figure15.run,
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

#: Spec collectors: experiment id -> callable returning the SimSpecs that
#: experiment's driver will feed to run_sweep. Every simulating driver
#: has one: its variants are scheme names (``LWT-4@T100``, ``Precise-2``,
#: ``Select-4:2+trunc``), never hand-built policies. The CLI's planned
#: ``readduo run`` unions these up front (plan -> dedupe -> execute) so
#: overlapping artifacts simulate each distinct run exactly once; the
#: drivers, which take the service as their ``service`` argument, then
#: read the prewarmed memo. Closed-form and Monte-Carlo drivers are absent.
EXPERIMENT_SPECS: Dict[str, Callable[..., Tuple[SimSpec, ...]]] = {
    **{experiment_id: sweep_specs for experiment_id in SWEEP_EXPERIMENTS},
    "ablation-scrub-contention": scrub_contention_specs,
    "ablation-write-cancellation": write_cancellation_specs,
    "ablation-conversion-throttle": conversion_throttle_specs,
    "ablation-write-truncation": write_truncation_specs,
    "extra-fault-density": fault_density_specs,
    "extra-scrub-interval": scrub_interval_specs,
    "extra-precise-write": precise_write_specs,
}

__all__ = ["EXPERIMENTS", "EXPERIMENT_SPECS", "SWEEP_EXPERIMENTS"]
