"""Figure 13 — sensitivity to the selective-rewrite interval s.

Select-(4:s) performs one full-line write per ``s`` sub-intervals; larger
``s`` converts more demand writes into differential writes and saves
energy (the paper reports ~1.2% for s=2 over s=1) at a slight tracking
cost.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..report import ExperimentResult
from ._sweep import normalized_figure, sweep_settings

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ...service import ExecutionService

__all__ = ["run"]


def run(
    target_requests: Optional[int] = None,
    workloads=(),
    service: Optional[ExecutionService] = None,
) -> ExperimentResult:
    """Reproduce Figure 13 (impact of s on dynamic energy)."""
    return normalized_figure(
        "figure13",
        "Impact of selective-rewrite interval s (dynamic energy)",
        ("Select-4:1", "Select-4:2"),
        metric=lambda stats: stats.dynamic_energy_pj,
        settings=sweep_settings(target_requests, workloads),
        service=service,
        notes="s=2 should consume less energy than s=1 on every workload.",
    )
