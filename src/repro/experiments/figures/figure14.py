"""Figure 14 — impact of R-M-read conversion in LWT-4.

Without conversion, every read to an un-tracked (long-ago-written) line
pays the 600 ns R-M-read forever; with conversion the line is rewritten
once and subsequent reads are fast. The paper reports a 22% gain for
sphinx (whose reads target a database written long before) and 2.9%
overall.
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
    """Reproduce Figure 14 (R-M-read conversion on/off)."""
    return normalized_figure(
        "figure14",
        "Impact of R-M-read conversion (execution time)",
        ("LWT-4-noconv", "LWT-4"),
        metric=lambda stats: stats.execution_time_ns,
        settings=sweep_settings(target_requests, workloads),
        service=service,
        notes=(
            "LWT-4 (conversion on) should match or beat LWT-4-noconv, with "
            "the largest gap on sphinx3."
        ),
    )
