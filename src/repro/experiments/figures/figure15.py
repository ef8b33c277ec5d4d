"""Figure 15 — impact on PCM lifetime.

Lifetime is inverse cell-write volume for the same work (ideal wear
leveling). Expected shape (paper): Scrubbing ~-12.4%, M-metric ~0,
Hybrid ~-6%, LWT-4 ~-10%, Select-4:2 ~+42%.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence

from ...metrics.lifetime import lifetime_ratios
from ..report import ExperimentResult, geometric_mean
from ..runner import run_sweep
from ._sweep import sweep_settings

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ...service import ExecutionService

__all__ = ["run", "FIGURE15_SCHEMES"]

FIGURE15_SCHEMES: Sequence[str] = (
    "Scrubbing",
    "M-metric",
    "Hybrid",
    "LWT-4",
    "Select-4:2",
)


def run(
    target_requests: Optional[int] = None,
    schemes: Sequence[str] = FIGURE15_SCHEMES,
    workloads: Sequence[str] = (),
    service: Optional[ExecutionService] = None,
) -> ExperimentResult:
    """Reproduce Figure 15 (relative PCM lifetime, higher is better)."""
    settings = sweep_settings(target_requests, workloads)
    sweep = run_sweep(settings, service)
    headers = ["workload"] + list(schemes)
    rows: List[List[object]] = []
    columns: List[List[float]] = [[] for _ in schemes]
    for workload_name, per_scheme in sweep.items():
        ratios = lifetime_ratios(per_scheme)
        row: List[object] = [workload_name]
        for j, scheme in enumerate(schemes):
            row.append(ratios[scheme])
            columns[j].append(ratios[scheme])
        rows.append(row)
    rows.append(["geomean"] + [geometric_mean(col) for col in columns])
    return ExperimentResult(
        experiment_id="figure15",
        title="Relative PCM lifetime (Ideal = 1.0, higher is better)",
        headers=headers,
        rows=rows,
        notes=(
            "Lifetime = Ideal cell writes / scheme cell writes on the same "
            "trace. Scrub rewrites and conversion writes cost lifetime; "
            "selective differential writes extend it."
        ),
    )
