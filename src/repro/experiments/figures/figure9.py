"""Figure 9 — normalized execution time of every scheme (the main result).

Expected shape (paper): Scrubbing ~+21%, M-metric ~+25%, Hybrid ~+5.8%,
LWT-4 ~+2.9%, Select-4:2 ~+3.4% over Ideal.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

from ..report import ExperimentResult
from ._sweep import normalized_figure, sweep_settings

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ...service import ExecutionService

__all__ = ["run", "FIGURE9_SCHEMES"]

FIGURE9_SCHEMES: Sequence[str] = (
    "Scrubbing",
    "M-metric",
    "Hybrid",
    "LWT-4",
    "Select-4:2",
)


def run(
    target_requests: Optional[int] = None,
    schemes: Sequence[str] = FIGURE9_SCHEMES,
    workloads: Sequence[str] = (),
    service: Optional[ExecutionService] = None,
) -> ExperimentResult:
    """Reproduce Figure 9 (normalized execution time)."""
    return normalized_figure(
        "figure9",
        "Normalized execution time",
        schemes,
        metric=lambda stats: stats.execution_time_ns,
        settings=sweep_settings(target_requests, workloads),
        service=service,
        notes=(
            "Scrubbing pays for channel contention from the 8 s sweep; "
            "M-metric for 450 ns reads on the critical path; ReadDuo "
            "variants stay within a few percent of Ideal."
        ),
    )
