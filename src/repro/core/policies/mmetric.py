"""M-sensing-only baseline [23]: every read pays 450 ns, scrubbing rare."""

from __future__ import annotations

from ...memsim.policy import ReadDecision, ReadMode, ScrubDecision
from .base import (
    CORRECTABLE_ERRORS,
    M_SCRUB_INTERVAL_S,
    BaseDriftPolicy,
    PolicyContext,
)

__all__ = ["MMetricPolicy"]


class MMetricPolicy(BaseDriftPolicy):
    """M-sensing only [23]: every read pays 450 ns, scrubbing is rare."""

    name = "M-metric"

    def __init__(
        self,
        ctx: PolicyContext,
        interval_s: float = M_SCRUB_INTERVAL_S,
        w: int = 1,
    ) -> None:
        super().__init__(ctx)
        self.scrub_interval_s = interval_s
        self.w = w

    def on_read(self, line: int, now_s: float) -> ReadDecision:
        errors = self.sampler.sample_errors(self.age_of(line, now_s), "M")
        return ReadDecision(
            mode=ReadMode.M,
            errors_seen=errors,
            uncorrectable=errors > CORRECTABLE_ERRORS,
        )

    def on_scrub(self, line: int, now_s: float) -> ScrubDecision:
        errors = self.sampler.sample_errors(self.age_of(line, now_s), "M")
        rewrite = errors >= max(self.w, 1)
        if rewrite:
            self.record_write(line, now_s)
        return ScrubDecision(
            metric="M",
            rewrite=rewrite,
            cells_written=self.full_cells if rewrite else 0,
            errors_seen=errors,
        )
