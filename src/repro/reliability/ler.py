"""Line error rates under ECC + scrubbing (paper Tables III and IV).

A 64B line holds 256 MLC cells (512 data bits). With gray coding a
one-state drift is exactly one bit error, and multi-state drifts are
negligible at the timescales considered, so "cell errors" and "bit errors"
coincide. Cells drift independently, so the error count of a line of age
``t`` is Binomial(256, p_cell(t)) and the probability that a BCH-``E``
protected line is uncorrectable is the binomial survival function beyond
``E``.

``ler_table`` regenerates the full Table III/IV sweep for either metric.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

import numpy as np

from ..pcm.params import MetricParams
from .drift_prob import mean_cell_error_probability
from .targets import DRAM_TARGET, ReliabilityTarget

__all__ = [
    "CELLS_PER_LINE",
    "line_failure_probability",
    "expected_line_errors",
    "LerTable",
    "ler_table",
    "max_safe_interval",
]

#: MLC cells per 64-byte data line.
CELLS_PER_LINE = 256


def _binom_sf(k: int, n: int, p: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
    """``P(X > k)`` for ``X ~ Binomial(n, p)``, equal to scipy's ``binom.sf``.

    Inside the support this is the regularized incomplete beta
    ``I_p(k + 1, n - k)``, the function ``binom.sf`` evaluates (Boost's
    ``ibeta`` on current scipy); the support edges return 1 and 0, as
    ``rv_discrete`` does.
    """
    from scipy.special import betainc

    p = np.asarray(p, dtype=np.float64)
    if k < 0:
        return np.ones_like(p)[()]
    if k >= n:
        return np.zeros_like(p)[()]
    return betainc(k + 1, n - k, p)


def _binom_pmf(k: int, n: int, p: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
    """``P(X = k)`` for ``X ~ Binomial(n, p)``, evaluated in log space.

    Within ~1e-12 relative of scipy's ``binom.pmf``; ``xlogy`` and
    ``xlog1py`` make ``0 * log(0)`` vanish, so ``p`` in ``{0, 1}`` is exact.
    """
    from scipy.special import gammaln, xlog1py, xlogy

    p = np.asarray(p, dtype=np.float64)
    if k < 0 or k > n:
        return np.zeros_like(p)[()]
    log_choose = gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1)
    return np.exp(log_choose + xlogy(k, p) + xlog1py(n - k, -p))


def line_failure_probability(
    params: MetricParams,
    ecc_strength: int,
    age_s: Union[float, np.ndarray],
    cells: int = CELLS_PER_LINE,
    truncated: bool = True,
) -> Union[float, np.ndarray]:
    """P(a line of age ``age_s`` holds more than ``ecc_strength`` errors).

    Args:
        params: Readout metric (R or M).
        ecc_strength: Correctable errors ``E`` (0 = no protection).
        age_s: Seconds since the line's last full write.
        cells: Cells per line.
        truncated: Use the truncated programming distribution.
    """
    if ecc_strength < 0:
        raise ValueError("ecc_strength must be >= 0")
    scalar = np.ndim(age_s) == 0
    p_cell = np.atleast_1d(
        mean_cell_error_probability(params, age_s, truncated=truncated)
    )
    result = _binom_sf(ecc_strength, cells, p_cell)
    return float(result[0]) if scalar else result


def expected_line_errors(
    params: MetricParams,
    age_s: float,
    cells: int = CELLS_PER_LINE,
    truncated: bool = True,
) -> float:
    """Expected number of drifted cells in a line of age ``age_s``."""
    return cells * float(
        mean_cell_error_probability(params, age_s, truncated=truncated)
    )


@dataclass(frozen=True)
class LerTable:
    """A Table III/IV-shaped sweep of line error rate vs (E, S).

    Attributes:
        metric_name: ``"R"`` or ``"M"``.
        intervals_s: Scrub intervals (rows).
        ecc_strengths: ECC strengths (columns).
        ler: ``(rows, cols)`` failure probabilities per interval.
        targets: DRAM budget per row (the paper's "Target" column).
    """

    metric_name: str
    intervals_s: Sequence[float]
    ecc_strengths: Sequence[int]
    ler: np.ndarray
    targets: np.ndarray

    def meets_target(self) -> np.ndarray:
        """Boolean mask of which (S, E) combinations meet the DRAM budget."""
        return self.ler <= self.targets[:, None]

    def cell(self, interval_s: float, ecc_strength: int) -> float:
        """LER for one (S, E) pair present in the sweep."""
        row = list(self.intervals_s).index(interval_s)
        col = list(self.ecc_strengths).index(ecc_strength)
        return float(self.ler[row, col])

    def rows(self) -> List[dict]:
        """The table as dictionaries, convenient for printing/JSON."""
        out = []
        for i, interval in enumerate(self.intervals_s):
            row = {"S": interval, "target": float(self.targets[i])}
            for j, e in enumerate(self.ecc_strengths):
                row[f"E={e}"] = float(self.ler[i, j])
            out.append(row)
        return out


def ler_table(
    params: MetricParams,
    intervals_s: Sequence[float],
    ecc_strengths: Sequence[int],
    cells: int = CELLS_PER_LINE,
    target: ReliabilityTarget = DRAM_TARGET,
    truncated: bool = True,
) -> LerTable:
    """Regenerate a Table III/IV sweep for the given metric.

    Each row assumes every line was fully written at the start of the
    interval (condition (i) of the paper's efficient-scrubbing definition).
    """
    intervals = list(intervals_s)
    strengths = list(ecc_strengths)
    if not intervals or not strengths:
        raise ValueError("need at least one interval and one ECC strength")
    p_cells = np.atleast_1d(
        mean_cell_error_probability(
            params, np.asarray(intervals, dtype=np.float64), truncated=truncated
        )
    )
    ler = np.empty((len(intervals), len(strengths)))
    for j, e in enumerate(strengths):
        ler[:, j] = _binom_sf(e, cells, p_cells)
    targets = np.asarray([target.budget_for_interval(s) for s in intervals])
    return LerTable(
        metric_name=params.name,
        intervals_s=intervals,
        ecc_strengths=strengths,
        ler=ler,
        targets=targets,
    )


def max_safe_interval(
    params: MetricParams,
    ecc_strength: int,
    candidate_intervals_s: Sequence[float],
    cells: int = CELLS_PER_LINE,
    target: ReliabilityTarget = DRAM_TARGET,
    truncated: bool = True,
) -> Optional[float]:
    """Longest candidate interval whose per-interval LER meets the target.

    Returns ``None`` when no candidate is safe. This is how the paper
    arrives at S=8s for R-sensing and S=640s (relaxable to 2^14 s) for
    M-sensing with BCH-8.
    """
    safe = None
    for interval in sorted(candidate_intervals_s):
        failure = float(
            line_failure_probability(
                params, ecc_strength, interval, cells=cells, truncated=truncated
            )
        )
        if failure <= target.budget_for_interval(interval):
            safe = interval
    return safe
