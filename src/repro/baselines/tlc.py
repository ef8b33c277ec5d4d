"""Tri-Level-Cell baseline [26] (paper's TLC comparison point).

TLC removes the most drift-prone middle state of a 4-level MLC, leaving
three well-separated levels. The drift-error rate then falls far enough
that per-word (72, 64) SECDED suffices and no background scrubbing is
needed — TLC matches Ideal performance and energy behaviour but pays in
density: two tri-level cells store 3 bits, so a 64B line with SECDED
occupies 384 cells versus the MLC schemes' 296 (see
:mod:`repro.pcm.area`). That density penalty is what the EDAP comparison
(Figure 11) charges against it.
"""

from __future__ import annotations

from ..core.policies.base import BaseDriftPolicy, PolicyContext
from ..memsim.policy import ReadDecision, ReadMode, WriteDecision
from ..pcm.area import tlc_line_budget

__all__ = ["TlcPolicy"]


class TlcPolicy(BaseDriftPolicy):
    """TLC scheme: drift-resilient tri-level cells, no scrubbing.

    Args:
        ctx: Platform/workload context.
        write_efficiency: Relative per-cell program effort of tri-level
            versus 4-level P&V writes (tri-level targets are wider, so
            fewer verify iterations are needed). Scales the effective
            cell count charged per write.
    """

    name = "TLC"
    scrub_interval_s = None

    def __init__(self, ctx: PolicyContext, write_efficiency: float = 0.75) -> None:
        super().__init__(ctx)
        if not 0 < write_efficiency <= 1:
            raise ValueError("write_efficiency must be in (0, 1]")
        self.cells_per_line = tlc_line_budget().total_cells
        self._write_cells = int(round(self.cells_per_line * write_efficiency))

    def on_read(self, line: int, now_s: float) -> ReadDecision:
        # Three wide levels sense fast and do not accumulate drift errors
        # at the timescales under study.
        return ReadDecision(mode=ReadMode.R)

    def on_write(self, line: int, now_s: float) -> WriteDecision:
        self.record_write(line, now_s)
        return WriteDecision(cells_written=self._write_cells, full_line=True)
