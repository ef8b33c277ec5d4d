"""Figure 12 — sensitivity to the sub-interval count k (LWT-2 vs LWT-4).

More sub-intervals track writes at finer granularity, so reads stay
R-eligible for longer (k=2 certifies ~470 s, k=4 ~630 s of the 640 s
window). Workloads that re-read lines written hundreds of seconds ago
(mcf) benefit most — the paper reports 0.7% on average and 2.3% for mcf.
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
    """Reproduce Figure 12 (impact of sub-interval count k)."""
    return normalized_figure(
        "figure12",
        "Impact of sub-interval number k (execution time)",
        ("LWT-2", "LWT-4"),
        metric=lambda stats: stats.execution_time_ns,
        settings=sweep_settings(target_requests, workloads),
        service=service,
        notes="k=4 should match or beat k=2 everywhere, most visibly on mcf.",
    )
