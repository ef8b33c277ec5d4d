"""Experiment drivers regenerating every table and figure of the paper.

Each driver module exposes ``run(**kwargs) -> ExperimentResult``; the
:data:`EXPERIMENTS` registry maps experiment ids to those callables so the
CLI and the benchmark harness can enumerate them. Figures 7/8 are circuit
diagrams whose quantitative content is Table VII; Table VI's goal matrix
is folded into the figure3 driver.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    ".catalog": ("EXPERIMENTS", "EXPERIMENT_SPECS", "SWEEP_EXPERIMENTS"),
    ".report": ("ExperimentResult", "geometric_mean"),
    ".runner": ("run_sweep",),
    ".spec": ("ALL_SCHEMES", "SimSpec", "SpecError"),
})

__all__ = [
    "EXPERIMENTS",
    "EXPERIMENT_SPECS",
    "SWEEP_EXPERIMENTS",
    "ExperimentResult",
    "geometric_mean",
    "ALL_SCHEMES",
    "SimSpec",
    "SpecError",
    "run_sweep",
]
