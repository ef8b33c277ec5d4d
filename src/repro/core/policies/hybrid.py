"""ReadDuo-Hybrid (paper Section III-B): decoupled detect/correct R-reads."""

from __future__ import annotations

from ...memsim.policy import ReadDecision, ScrubDecision
from .base import M_SCRUB_INTERVAL_S, BaseDriftPolicy, PolicyContext

__all__ = ["HybridPolicy"]


class HybridPolicy(BaseDriftPolicy):
    """ReadDuo-Hybrid (Section III-B): decoupled detect/correct R-reads.

    Reads R-sense first; 0-8 errors are corrected in place, 9-17 trigger
    an M-sensing retry (R-M-read), >17 silently corrupt (kept below the
    DRAM budget by the W=0 scrub bound on line age). Scrubbing is
    M-metric, (BCH=8, S=640 s, W=0): every line is rewritten at scrub
    time, so R-sensing always sees a line younger than one interval.
    """

    name = "Hybrid"

    def __init__(
        self, ctx: PolicyContext, interval_s: float = M_SCRUB_INTERVAL_S
    ) -> None:
        super().__init__(ctx)
        self.scrub_interval_s = interval_s

    def _effective_age(self, line: int, now_s: float) -> float:
        return min(self.age_of(line, now_s), self.scrub_pass_age(line, now_s))

    def on_read(self, line: int, now_s: float) -> ReadDecision:
        errors = self.sampler.sample_errors(self._effective_age(line, now_s), "R")
        return self._classify_r_read(errors)

    def on_scrub(self, line: int, now_s: float) -> ScrubDecision:
        self.record_write(line, now_s)
        return ScrubDecision(metric="M", rewrite=True, cells_written=self.full_cells)
