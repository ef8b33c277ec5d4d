"""ReadDuo-LWT (paper Section III-C): last-write tracking + conversion."""

from __future__ import annotations

from typing import Optional

from ..conversion import AdaptiveConversionController
from ..lwt import QuantizedTracker
from ..registry import lwt_scheme_name
from ...memsim.policy import ReadDecision, ReadMode, ScrubDecision, WriteDecision
from .base import (
    CORRECTABLE_ERRORS,
    M_SCRUB_INTERVAL_S,
    BaseDriftPolicy,
    PolicyContext,
)

__all__ = ["LwtPolicy"]


class LwtPolicy(BaseDriftPolicy):
    """ReadDuo-LWT-k (Section III-C): last-write tracking + conversion.

    Per-line SLC flags answer, at sub-interval granularity, whether the
    line was written within the last scrub interval. Tracked reads may
    R-sense (falling back to R-M-read on 9-17 errors); untracked reads go
    straight to R-M-read and may be *converted* into a rewrite under the
    adaptive ``T`` throttle so subsequent reads are fast. Scrubbing is
    (BCH=8, S=640 s, W=1): rewrite only on detected errors. ``fixed_t``
    (spelled ``@T<t>``) holds the throttle at ``T = t``.
    """

    def __init__(
        self,
        ctx: PolicyContext,
        k: int = 4,
        interval_s: float = M_SCRUB_INTERVAL_S,
        conversion_enabled: bool = True,
        conversion_initial_t: int = 30,
        fixed_t: Optional[int] = None,
    ) -> None:
        super().__init__(ctx)
        self.k = k
        self.scrub_interval_s = interval_s
        self.tracker = QuantizedTracker(k, interval_s)
        self.conversion = AdaptiveConversionController(
            rng=self.rng,
            initial_t=conversion_initial_t if fixed_t is None else fixed_t,
            step=10 if fixed_t is None else 0,  # step 0 holds T at fixed_t
            enabled=conversion_enabled,
        )
        self.name = lwt_scheme_name(k, conversion_enabled, fixed_t, interval_s)

    # The tracked event is the last drift-resetting write of the line: a
    # demand write, a conversion write, or a scrub rewrite.

    def _tracked_last(self, line: int) -> float:
        return self.tracker.last_event_s(line, self.last_write_of(line))

    def on_read(self, line: int, now_s: float) -> ReadDecision:
        last = self._tracked_last(line)
        tracked = (
            self.tracker.abs_sub_interval(now_s) - self.tracker.abs_sub_interval(last)
            < self.k
        )
        self.conversion.record_read(untracked=not tracked)
        if tracked:
            errors = self.sampler.sample_errors(max(now_s - last, 0.0), "R")
            return self._classify_r_read(errors, flag_access=True)
        # Untracked: the flag check terminates R-sensing, M-sensing follows.
        errors = self.sampler.sample_errors(max(now_s - last, 0.0), "M")
        return ReadDecision(
            mode=ReadMode.RM,
            errors_seen=errors,
            flag_access=True,
            convert_to_write=self.conversion.should_convert(),
            uncorrectable=errors > CORRECTABLE_ERRORS,
        )

    def on_write(self, line: int, now_s: float) -> WriteDecision:
        self.record_write(line, now_s)
        self.tracker.record_event(line, now_s)
        return WriteDecision(
            cells_written=self.full_cells, full_line=True, flag_update=True
        )

    def on_conversion_write(self, line: int, now_s: float) -> WriteDecision:
        self.record_write(line, now_s)
        self.tracker.record_event(line, now_s)
        return WriteDecision(
            cells_written=self.full_cells, full_line=True, flag_update=True
        )

    def on_scrub(self, line: int, now_s: float) -> ScrubDecision:
        errors = self.sampler.sample_errors(self.age_of(line, now_s), "M")
        rewrite = errors >= 1
        if rewrite:
            self.record_write(line, now_s)
            self.tracker.record_event(line, now_s)
        return ScrubDecision(
            metric="M",
            rewrite=rewrite,
            cells_written=self.full_cells if rewrite else 0,
            errors_seen=errors,
        )
