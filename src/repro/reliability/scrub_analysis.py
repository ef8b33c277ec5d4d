"""Multi-interval scrubbing risk analysis (paper Table V and Section III).

An ``(E, S, W)`` efficient-scrubbing scheme skips rewriting a line at scrub
time when it finds fewer than ``W`` errors. The skipped line keeps its
drifted cells, so errors *accumulate across intervals*. Table V quantifies
the two hazardous compositions the paper checks:

* **Condition (ii)**: fewer than ``W`` errors during the first interval,
  then more than ``E - W`` additional errors during the second.
* **Condition (iii)**: fewer than ``W`` errors over the first *two*
  intervals, then more than ``E - W`` during the third.

Both reduce to sums over the multinomial per-cell states (error by the
checkpoint / new error in the final window / never), evaluated with
conditional binomials because drift errors are monotone in time.

This module also quantifies the hazard specific to ReadDuo-Hybrid: BCH-8
can *detect* up to ``2E + 1 = 17`` errors, and a line exceeding that at
R-sensing time silently returns corrupt data (Section III-B).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from ..pcm.params import MetricParams
from .drift_prob import mean_cell_error_probability
from .ler import CELLS_PER_LINE, _binom_pmf, _binom_sf
from .targets import DRAM_TARGET, ReliabilityTarget

__all__ = [
    "bch_detection_limit",
    "relaxed_scrub_risk",
    "silent_corruption_risk",
    "ScrubSetting",
    "Table5Row",
    "table5",
]


def bch_detection_limit(ecc_strength: int) -> int:
    """Errors a BCH-``E`` code can still *detect* (paper: 2E + 1)."""
    if ecc_strength < 0:
        raise ValueError("ecc_strength must be >= 0")
    return 2 * ecc_strength + 1


def relaxed_scrub_risk(
    params: MetricParams,
    ecc_strength: int,
    interval_s: float,
    w: int,
    skipped_intervals: int = 1,
    cells: int = CELLS_PER_LINE,
    truncated: bool = True,
) -> float:
    """Failure probability of a W-relaxed scheme after skipped rewrites.

    Args:
        params: Readout metric.
        ecc_strength: ``E`` of the BCH code.
        interval_s: Scrub interval ``S``.
        w: Rewrite threshold ``W`` (rewrite only on >= W detected errors).
        skipped_intervals: How many consecutive scrubs found < W errors and
            skipped the rewrite before the hazardous window. ``1`` evaluates
            the paper's condition (ii), ``2`` condition (iii).
        cells: Cells per line.
        truncated: Use the truncated programming distribution.

    Returns:
        P(fewer than W errors by ``skipped_intervals * S``, then more than
        ``E - W`` new errors in the following interval).
    """
    if w < 1:
        raise ValueError("w must be >= 1 (W=0 always rewrites; use condition (i))")
    if skipped_intervals < 1:
        raise ValueError("skipped_intervals must be >= 1")
    if ecc_strength < w - 1:
        raise ValueError("E must be at least W - 1")
    checkpoint_s = skipped_intervals * interval_s
    end_s = checkpoint_s + interval_s
    p_checkpoint = float(
        mean_cell_error_probability(params, checkpoint_s, truncated=truncated)
    )
    p_end = float(mean_cell_error_probability(params, end_s, truncated=truncated))
    if p_checkpoint >= 1.0:
        return 0.0
    # Conditional probability that a cell clean at the checkpoint errors by
    # the end of the final window (drift errors are monotone).
    q = max(p_end - p_checkpoint, 0.0) / (1.0 - p_checkpoint)
    total = 0.0
    for found in range(w):
        p_found = _binom_pmf(found, cells, p_checkpoint)
        if p_found == 0.0:
            continue
        overflow = _binom_sf(ecc_strength - w, cells - found, q)
        total += float(p_found) * float(overflow)
    return total


def silent_corruption_risk(
    params: MetricParams,
    ecc_strength: int,
    age_s: float,
    cells: int = CELLS_PER_LINE,
    truncated: bool = True,
) -> float:
    """P(a line's errors exceed the BCH *detection* limit at age ``age_s``).

    In ReadDuo-Hybrid a read whose R-sensing shows more errors than BCH can
    detect returns wrong data with no warning; the design keeps this below
    the DRAM budget by bounding line age to one M-scrub interval (640 s).
    """
    p_cell = float(mean_cell_error_probability(params, age_s, truncated=truncated))
    return float(_binom_sf(bch_detection_limit(ecc_strength), cells, p_cell))


@dataclass(frozen=True)
class ScrubSetting:
    """An (metric, E, S, W) scrubbing configuration under analysis."""

    metric: MetricParams
    ecc_strength: int
    interval_s: float
    w: int

    def label(self) -> str:
        return (
            f"{self.metric.name}(BCH={self.ecc_strength},"
            f"S={self.interval_s:g},W={self.w})"
        )


@dataclass(frozen=True)
class Table5Row:
    """One row of the Table V reproduction.

    Attributes:
        label: Scheme label, e.g. ``"R(BCH=8,S=8,W=1)"``.
        risk_ii: Probability of the paper's condition (ii).
        risk_iii: Probability of condition (iii).
        target: DRAM budget for one interval.
        meets: Whether both risks stay within the budget.
    """

    label: str
    risk_ii: float
    risk_iii: float
    target: float
    meets: bool


def table5(
    settings: Sequence[ScrubSetting],
    cells: int = CELLS_PER_LINE,
    target: ReliabilityTarget = DRAM_TARGET,
    truncated: bool = True,
) -> List[Table5Row]:
    """Evaluate conditions (ii)/(iii) for a list of scrub settings.

    The paper's Table V uses R(BCH=8,S=8,W=1), R(BCH=10,S=8,W=1) and
    M(BCH=8,S=640,W=1); callers supply the settings so sensitivity sweeps
    can reuse the function.
    """
    rows = []
    for setting in settings:
        risk_ii = relaxed_scrub_risk(
            setting.metric,
            setting.ecc_strength,
            setting.interval_s,
            setting.w,
            skipped_intervals=1,
            cells=cells,
            truncated=truncated,
        )
        risk_iii = relaxed_scrub_risk(
            setting.metric,
            setting.ecc_strength,
            setting.interval_s,
            setting.w,
            skipped_intervals=2,
            cells=cells,
            truncated=truncated,
        )
        budget = target.budget_for_interval(setting.interval_s)
        rows.append(
            Table5Row(
                label=setting.label(),
                risk_ii=risk_ii,
                risk_iii=risk_iii,
                target=budget,
                meets=risk_ii <= budget and risk_iii <= budget,
            )
        )
    return rows
