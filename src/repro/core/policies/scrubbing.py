"""Efficient scrubbing baseline [2]: R-sensing with (BCH=8, S=8 s, W)."""

from __future__ import annotations

from typing import Dict

from ...memsim.policy import ReadDecision, ReadMode, ScrubDecision, WriteDecision
from .base import (
    CORRECTABLE_ERRORS,
    DATA_CELLS,
    DETECTABLE_ERRORS,
    R_SCRUB_INTERVAL_S,
    BaseDriftPolicy,
    PolicyContext,
)

__all__ = ["ScrubbingPolicy"]


class ScrubbingPolicy(BaseDriftPolicy):
    """Efficient scrubbing [2]: R-sensing with (BCH=8, S=8 s, W).

    With W=1 (default, the paper's comparison setting) a scrubbed line is
    rewritten only when the scrub read finds one or more errors; W=0
    rewrites every line every interval and costs 2-3x execution time.

    The per-line rewrite process is a renewal process: a fresh line
    survives scrub ``m`` with probability ``(1 - p(m*S))**cells`` (drift
    errors are monotone, so "no error yet at age t" fully describes the
    state). Because the short trace run sits inside this steady state,
    each line carries a deterministic initial *survived-interval count*
    drawn from the stationary age distribution of the renewal process,
    and a scrub visit rewrites with the conditional first-error hazard
    ``q(m)``. This keeps scrub-rewrite bandwidth, energy, and wear
    consistent with the analytic model rather than with an arbitrary age
    cap.
    """

    #: Renewal-model horizon (intervals); survival beyond it is lumped.
    _MAX_INTERVALS = 96

    def __init__(
        self,
        ctx: PolicyContext,
        interval_s: float = R_SCRUB_INTERVAL_S,
        w: int = 1,
        r_params=None,
    ) -> None:
        from ..sampler import DriftErrorSampler, renewal_tables

        super().__init__(ctx)
        if w not in (0, 1):
            raise ValueError("W must be 0 or 1")
        if r_params is not None:
            # Alternative device programming (e.g. precise writes) changes
            # the drift statistics everything below is built from.
            self.sampler = DriftErrorSampler(
                cells_per_line=DATA_CELLS, rng=self.rng, r_params=r_params
            )
        self.scrub_interval_s = interval_s
        self.w = w
        self.name = "Scrubbing-W0" if w == 0 else "Scrubbing"
        self._survived: Dict[int, int] = {}
        # Hazard q(m): P(first error during interval m | survived so far),
        # and the stationary CDF of survived intervals, shared by every
        # policy on the same tables and interval.
        self._hazard, self._stationary_cdf = renewal_tables(
            self.sampler.tables, interval_s, self._MAX_INTERVALS, DATA_CELLS
        )

    def _initial_survived(self, line: int) -> int:
        """Deterministic stationary survived-interval count for ``line``."""
        from ..agemodel import _splitmix64

        u = (_splitmix64((line << 2) ^ self.ctx.seed ^ 0xA5A5) >> 11) / float(1 << 53)
        return int(self._stationary_cdf.searchsorted(u))

    def _survived_intervals(self, line: int) -> int:
        cached = self._survived.get(line)
        if cached is None:
            cached = self._initial_survived(line)
            self._survived[line] = cached
        return cached

    def _effective_age(self, line: int, now_s: float) -> float:
        raw = self.age_of(line, now_s)
        if self.w == 0:
            return min(raw, self.scrub_pass_age(line, now_s))
        renewal_age = (self._survived_intervals(line) + 0.5) * self.scrub_interval_s
        return min(raw, renewal_age)

    def on_read(self, line: int, now_s: float) -> ReadDecision:
        errors = self.sampler.sample_errors(self._effective_age(line, now_s), "R")
        if errors <= CORRECTABLE_ERRORS:
            return ReadDecision(mode=ReadMode.R, errors_seen=errors)
        if errors <= DETECTABLE_ERRORS:
            # R-only sensing has no fallback: data is bad but flagged.
            return ReadDecision(mode=ReadMode.R, errors_seen=errors, uncorrectable=True)
        return ReadDecision(mode=ReadMode.R, errors_seen=errors, silent_corruption=True)

    def on_write(self, line: int, now_s: float) -> WriteDecision:
        self._survived[line] = 0
        return super().on_write(line, now_s)

    def on_scrub(self, line: int, now_s: float) -> ScrubDecision:
        if self.w == 0:
            self.record_write(line, now_s)
            return ScrubDecision(
                metric="R", rewrite=True, cells_written=self.full_cells
            )
        m = self._survived_intervals(line)
        hazard = float(self._hazard[min(m, self._MAX_INTERVALS - 1)])
        rewrite = bool(self.rng.random() < hazard)
        if rewrite:
            self._survived[line] = 0
            self.record_write(line, now_s)
        else:
            self._survived[line] = m + 1
        return ScrubDecision(
            metric="R",
            rewrite=rewrite,
            cells_written=self.full_cells if rewrite else 0,
            errors_seen=1 if rewrite else 0,
        )

