"""The artifact catalog: every reproducible table and figure by id.

:data:`EXPERIMENTS` maps experiment ids to driver callables
(``run(**kwargs) -> ExperimentResult``) so the CLI and the benchmark
harness can enumerate them. The ids, their order and their drivers'
locations come from :mod:`.index`; importing this module imports every
driver. :mod:`repro.experiments` exposes its names lazily, so commands
that never render an artifact skip that cost.
"""

from importlib import import_module
from typing import Callable, Dict, Tuple

from .ablations import (
    conversion_throttle_specs,
    scrub_contention_specs,
    write_cancellation_specs,
    write_truncation_specs,
)
from .extras import precise_write_specs, scrub_interval_specs
from .faults import fault_density_specs
from .figures._sweep import sweep_specs
from .index import DRIVERS, SWEEP_EXPERIMENTS
from .report import ExperimentResult
from .spec import SimSpec

EXPERIMENTS: Dict[str, Callable[..., ExperimentResult]] = {
    experiment_id: getattr(import_module(f"{__package__}.{module}"), attribute)
    for experiment_id, (module, attribute) in DRIVERS.items()
}

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
