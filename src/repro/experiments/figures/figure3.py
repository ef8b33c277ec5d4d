"""Figure 3 + Table VI — why existing mitigation schemes fall short.

The motivation study: Scrubbing and M-metric degrade performance, TLC
keeps performance but pays ~30% density. Reported as each prior scheme's
execution-time overhead (geomean over all workloads) and storage density
relative to drift-free MLC.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ...pcm.area import mlc_line_budget, scheme_cell_counts
from ..report import ExperimentResult, geometric_mean
from ..runner import run_sweep
from ._sweep import sweep_settings

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ...service import ExecutionService

__all__ = ["run"]


def run(
    target_requests: Optional[int] = None,
    workloads=(),
    service: Optional[ExecutionService] = None,
) -> ExperimentResult:
    """Reproduce the Figure 3 motivation comparison."""
    settings = sweep_settings(target_requests, workloads)
    sweep = run_sweep(settings, service)
    budgets = scheme_cell_counts()
    ideal_cells = mlc_line_budget("Ideal").total_cells

    rows = []
    goals = {
        "Scrubbing": ("-", "-", "+", "-"),
        "M-metric": ("-", "-", "+", "+"),
        "TLC": ("+", "+", "-", "+"),
        "Hybrid": ("+", "+", "+", "+"),
    }
    for scheme in ("Scrubbing", "M-metric", "TLC", "Hybrid"):
        overhead = geometric_mean(
            [
                per_scheme[scheme].execution_time_ns
                / per_scheme["Ideal"].execution_time_ns
                for per_scheme in sweep.values()
            ]
        )
        density = ideal_cells / budgets[scheme].total_cells
        perf, energy, dens, endur = goals[scheme]
        rows.append([scheme, overhead - 1.0, density, perf, energy, dens, endur])
    notes = (
        "'exec overhead' is the geomean execution-time increase over "
        "Ideal; 'density' is bits-per-cell-area relative to drift-free MLC "
        "(TLC pays ~23%). The +/- columns restate the paper's Table VI "
        "goal matrix; ReadDuo (Hybrid row and beyond) is the only scheme "
        "positive on all four axes."
    )
    return ExperimentResult(
        experiment_id="figure3",
        title="Motivation: prior drift-mitigation schemes",
        headers=["scheme", "exec overhead", "density vs MLC",
                 "perf", "energy", "density", "endurance"],
        rows=rows,
        notes=notes,
    )
