"""ReadDuo-Select (paper Section III-D): selective differential write."""

from __future__ import annotations

from ...memsim.policy import WriteDecision
from .base import DATA_CELLS, M_SCRUB_INTERVAL_S, PolicyContext
from .lwt import LwtPolicy

__all__ = ["SelectPolicy"]


class SelectPolicy(LwtPolicy):
    """ReadDuo-Select-(k:s) (Section III-D): selective differential write.

    At most one *full-line* write lands in any ``s`` consecutive
    sub-intervals; other demand writes reprogram only the modified cells
    (plus the BCH check cells). Differential writes do not update the
    tracking flags, so read-side R-sensing decisions conservatively
    measure the distance to the last full-line write.
    """

    def __init__(
        self,
        ctx: PolicyContext,
        k: int = 4,
        s: int = 2,
        interval_s: float = M_SCRUB_INTERVAL_S,
        conversion_enabled: bool = True,
    ) -> None:
        super().__init__(
            ctx, k=k, interval_s=interval_s, conversion_enabled=conversion_enabled
        )
        if s < 1:
            raise ValueError("s must be >= 1")
        self.s = s
        self.name = f"Select-{k}:{s}"
        self._check_cells = max(self.full_cells - DATA_CELLS, 0)

    def on_write(self, line: int, now_s: float) -> WriteDecision:
        last_full = self._tracked_last(line)
        dist = self.tracker.abs_sub_interval(now_s) - self.tracker.abs_sub_interval(
            last_full
        )
        if dist < self.s:
            # Differential write: modified data cells + check cells; the
            # tracking flags (last full write) are left untouched.
            changed = int(
                self.rng.binomial(DATA_CELLS, self.ctx.profile.write_change_fraction)
            )
            return WriteDecision(
                cells_written=changed + self._check_cells,
                full_line=False,
                flag_update=False,
            )
        self.record_write(line, now_s)
        self.tracker.record_event(line, now_s)
        return WriteDecision(
            cells_written=self.full_cells, full_line=True, flag_update=True
        )
