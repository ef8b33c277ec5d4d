"""Write truncation [11] — an optional MLC write-latency optimization.

Iterative program-and-verify budgets worst-case iterations, but most
writes converge early: once every targeted cell verifies, the remaining
budgeted pulses can be *truncated*. The paper cites this (Jiang et al.)
among the orthogonal MLC write-latency techniques; this wrapper layers it
onto any scheme policy so its interaction with ReadDuo can be studied
(see :func:`repro.experiments.ablations.ablation_write_truncation`).

The scheme name ``<scheme>+trunc`` (``Select-4:2+trunc``, one level only)
wraps the named scheme, drawing from its RNG; ``RunStats.truncated_writes``
counts the shortened writes. The kernel does not model truncation, so these
runs take the event engine (fall-back reason ``ineligible``).

Model: a write's latency scale is ``clip(N(mean, std), floor, 1.0)``
multiplied by a weak function of how many cells are written — a
differential write targeting few cells converges sooner because its
slowest-cell maximum is over a smaller set.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..memsim.policy import ReadDecision, ScrubDecision, WriteDecision
from . import registry

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

__all__ = ["WriteTruncationWrapper", "truncated_policy"]


class WriteTruncationWrapper:
    """Wraps a scheme policy, truncating its write latencies.

    Implements the :class:`~repro.memsim.policy.SchemePolicy` protocol by
    delegation; only the two write callbacks are modified.

    Args:
        inner: The wrapped scheme policy.
        rng: Randomness for per-write convergence draws (defaults to the
            inner policy's RNG when it has one).
        mean_scale: Mean latency fraction of a full-line truncated write.
        std_scale: Standard deviation of the convergence draw.
        floor_scale: Minimum latency fraction (verify rounds are never
            free).
        cell_exponent: Exponent of the cells-written dependence; 0
            disables it.
    """

    def __init__(
        self,
        inner,
        rng: Optional[np.random.Generator] = None,
        mean_scale: float = 0.7,
        std_scale: float = 0.1,
        floor_scale: float = 0.4,
        cell_exponent: float = 0.15,
    ) -> None:
        if not 0 < floor_scale <= mean_scale <= 1.0:
            raise ValueError("need 0 < floor <= mean <= 1")
        self.inner = inner
        if rng is None:
            rng = getattr(inner, "rng", None)
        if rng is None:
            import numpy as np

            rng = np.random.default_rng()
        self.rng = rng
        self.mean_scale = mean_scale
        self.std_scale = std_scale
        self.floor_scale = floor_scale
        self.cell_exponent = cell_exponent
        self.name = f"{inner.name}+trunc"
        self._full_cells = getattr(inner, "full_cells", 296)

    @property
    def scrub_interval_s(self):
        return self.inner.scrub_interval_s

    def _scale_for(self, cells_written: int) -> float:
        draw = float(self.rng.normal(self.mean_scale, self.std_scale))
        scale = min(max(draw, self.floor_scale), 1.0)
        if self.cell_exponent > 0 and self._full_cells > 0:
            fraction = max(cells_written / self._full_cells, 1e-3)
            scale *= fraction**self.cell_exponent
        return min(max(scale, self.floor_scale * 0.5), 1.0)

    def _truncate(self, decision: WriteDecision) -> WriteDecision:
        return WriteDecision(
            cells_written=decision.cells_written,
            full_line=decision.full_line,
            flag_update=decision.flag_update,
            latency_scale=self._scale_for(decision.cells_written),
        )

    # ------------------------------------------------------------- delegation

    def on_read(self, line: int, now_s: float) -> ReadDecision:
        return self.inner.on_read(line, now_s)

    def on_write(self, line: int, now_s: float) -> WriteDecision:
        return self._truncate(self.inner.on_write(line, now_s))

    def on_conversion_write(self, line: int, now_s: float) -> WriteDecision:
        return self._truncate(self.inner.on_conversion_write(line, now_s))

    def on_scrub(self, line: int, now_s: float) -> ScrubDecision:
        return self.inner.on_scrub(line, now_s)



def truncated_policy(ctx, inner: str) -> WriteTruncationWrapper:
    """The ``<inner>+trunc`` factory: the named scheme's policy, wrapped."""
    return WriteTruncationWrapper(registry.make_policy(inner, ctx))
