"""Shared helpers for the simulation-sweep figures (9, 10, 12-15)."""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Optional, Sequence

from ...memsim.stats import RunStats
from ..report import ExperimentResult, geometric_mean
from ..runner import run_sweep
from ..spec import SimSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ...service import ExecutionService

__all__ = ["sweep_settings", "sweep_specs", "normalized_figure"]


def sweep_settings(
    target_requests: Optional[int] = None,
    workloads: Sequence[str] = (),
    seed: int = 42,
) -> SimSpec:
    """The spec shared by all sweep figures (one sweep feeds them all)."""
    kwargs = {"workloads": tuple(workloads), "seed": seed}
    if target_requests is not None:
        kwargs["target_requests"] = target_requests
    return SimSpec(**kwargs)


def sweep_specs(
    target_requests: Optional[int] = None,
    workloads: Sequence[str] = (),
    seed: int = 42,
) -> tuple:
    """Spec-collector form of :func:`sweep_settings` for the planner.

    Registered (via ``EXPERIMENT_SPECS``) for every sweep figure, so a
    planned ``readduo run`` can union all figures' run units up front —
    they all collapse to this one shared spec.
    """
    return (sweep_settings(target_requests, workloads, seed),)


def normalized_figure(
    experiment_id: str,
    title: str,
    schemes: Sequence[str],
    metric: Callable[[RunStats], float],
    baseline: str = "Ideal",
    settings: Optional[SimSpec] = None,
    service: Optional[ExecutionService] = None,
    notes: str = "",
    lower_is_better: bool = True,
) -> ExperimentResult:
    """Build a workloads-x-schemes grid of a normalized metric.

    Args:
        experiment_id / title: Labels for the result.
        schemes: Columns, in order (the baseline need not be listed).
        metric: Extracts the raw value from a run's statistics.
        baseline: Normalization scheme (paper: Ideal).
        settings: Sweep settings; defaults to the shared full sweep.
        service: Resolves the sweep (see :func:`run_sweep`).
        notes: Extra provenance text.
        lower_is_better: Only documentation; recorded in the notes.

    Returns:
        A grid with one row per workload plus a geometric-mean row.
    """
    settings = settings or sweep_settings()
    sweep = run_sweep(settings, service)
    headers = ["workload"] + list(schemes)
    rows: List[List[object]] = []
    columns: List[List[float]] = [[] for _ in schemes]
    for workload_name, per_scheme in sweep.items():
        base = metric(per_scheme[baseline])
        if base <= 0:
            raise ValueError(f"baseline metric non-positive for {workload_name}")
        row: List[object] = [workload_name]
        for j, scheme in enumerate(schemes):
            value = metric(per_scheme[scheme]) / base
            row.append(value)
            columns[j].append(value)
        rows.append(row)
    rows.append(["geomean"] + [geometric_mean(col) for col in columns])
    direction = "lower" if lower_is_better else "higher"
    all_notes = f"Normalized to {baseline}; {direction} is better. " + notes
    return ExperimentResult(
        experiment_id=experiment_id,
        title=title,
        headers=headers,
        rows=rows,
        notes=all_notes,
        extra={"sweep_settings": settings},
    )
