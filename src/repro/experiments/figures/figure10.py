"""Figure 10 — normalized dynamic energy.

Expected shape (paper): Scrubbing ~+17%, M-metric ~+5%, Hybrid ~+8.7%,
LWT-4 ~+1.3%, Select-4:2 ~0.778x of Ideal.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

from ..report import ExperimentResult
from ._sweep import normalized_figure, sweep_settings
from .figure9 import FIGURE9_SCHEMES

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ...service import ExecutionService

__all__ = ["run"]


def run(
    target_requests: Optional[int] = None,
    schemes: Sequence[str] = FIGURE9_SCHEMES,
    workloads: Sequence[str] = (),
    service: Optional[ExecutionService] = None,
) -> ExperimentResult:
    """Reproduce Figure 10 (normalized dynamic energy)."""
    return normalized_figure(
        "figure10",
        "Normalized dynamic energy",
        schemes,
        metric=lambda stats: stats.dynamic_energy_pj,
        settings=sweep_settings(target_requests, workloads),
        service=service,
        notes=(
            "Scrubbing burns energy on sweep reads and rewrites; Hybrid on "
            "W=0 scrub rewrites; Select-4:2 wins by writing only modified "
            "cells. Workloads that convert many R-M-reads (sphinx3) show "
            "the conversion energy the paper discusses."
        ),
    )
