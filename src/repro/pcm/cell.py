"""Cell-level stochastic drift model for MLC PCM.

Implements the physics of paper Section II-B as vectorized numpy sampling:

* programming draws ``log10(metric at t0)`` from a normal distribution
  truncated to the program-and-verify window,
* each cell gets a drift exponent ``alpha`` from a clipped normal, and
* the metric at time ``t`` is ``value(t) = value0 * (t/t0)**alpha``, i.e.
  ``log10 value(t) = log10 value0 + alpha * log10(t/t0)``.

All functions accept scalars or numpy arrays of levels and broadcast.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from .params import NUM_LEVELS, MetricParams

__all__ = [
    "sample_initial_log10",
    "sample_alpha",
    "drift_log10",
    "drifted_log10",
    "Cell",
    "sense_cells_at",
]

ArrayLike = Union[int, np.ndarray]


def _as_level_array(levels: ArrayLike) -> np.ndarray:
    arr = np.asarray(levels, dtype=np.int64)
    if arr.size and (arr.min() < 0 or arr.max() >= NUM_LEVELS):
        raise ValueError(f"levels must be in [0, {NUM_LEVELS - 1}]")
    return arr


@lru_cache(maxsize=None)
def _truncation_bounds(width: float) -> Tuple[float, float]:
    """``(Phi(-width), Phi(width))``: the uniform range whose inverse-CDF
    image is the program-and-verify window ``z in (-width, width)``."""
    from scipy.special import ndtr

    return ndtr(-width), ndtr(width)


def sample_initial_log10(
    params: MetricParams,
    levels: ArrayLike,
    rng: np.random.Generator,
) -> np.ndarray:
    """Sample the programmed ``log10(metric)`` for cells at ``levels``.

    Program-and-verify iterates until the cell lands inside
    ``mu +/- program_width_sigma * sigma``; we model that as rejection-free
    truncated-normal sampling (inverse-CDF on a clipped uniform).

    Args:
        params: Metric configuration (means, sigma, truncation width).
        levels: Target resistance level per cell.
        rng: Source of randomness.

    Returns:
        Array of ``log10`` values, same shape as ``levels``.
    """
    arr = _as_level_array(levels)
    mu = np.asarray(params.mu, dtype=np.float64)[arr]
    width = params.program_width_sigma
    # Inverse-CDF truncated normal: z in (-width, width).
    from scipy.special import ndtri

    lo, hi = _truncation_bounds(width)
    u = rng.uniform(lo, hi, size=arr.shape)
    z = ndtri(u)
    return mu + params.sigma * z


def sample_alpha(
    params: MetricParams,
    levels: ArrayLike,
    rng: np.random.Generator,
) -> np.ndarray:
    """Sample per-cell drift exponents for cells at ``levels``.

    ``alpha ~ N(mu_alpha[level], (sigma_alpha_frac * mu_alpha[level])**2)``,
    clipped at zero — the model has no downward drift.
    """
    arr = _as_level_array(levels)
    mu_a = np.asarray(params.mu_alpha, dtype=np.float64)[arr]
    sigma_a = params.sigma_alpha_frac * mu_a
    alpha = rng.normal(mu_a, sigma_a)
    return np.clip(alpha, 0.0, None)


def drift_log10(
    params: MetricParams,
    alpha: Union[float, np.ndarray],
    elapsed_s: Union[float, np.ndarray],
) -> np.ndarray:
    """The additive ``log10`` drift after ``elapsed_s`` seconds.

    Time below ``t0`` contributes no drift (the power law is normalized at
    ``t0``; extrapolating below it would *lower* resistance).
    """
    elapsed = np.asarray(elapsed_s, dtype=np.float64)
    lam = np.log10(np.maximum(elapsed, params.t0) / params.t0)
    return np.asarray(alpha, dtype=np.float64) * lam


def drifted_log10(
    params: MetricParams,
    initial_log10: Union[float, np.ndarray],
    alpha: Union[float, np.ndarray],
    elapsed_s: Union[float, np.ndarray],
) -> np.ndarray:
    """``log10(metric)`` of cells after ``elapsed_s`` seconds of drift."""
    return np.asarray(initial_log10, dtype=np.float64) + drift_log10(
        params, alpha, elapsed_s
    )


@dataclass
class Cell:
    """A single MLC PCM cell, for demonstrations and fine-grained tests.

    The bulk simulator uses vectorized arrays (:mod:`repro.pcm.array`); this
    class mirrors the same model one cell at a time.

    Attributes:
        level: Programmed resistance level, 0..3.
        log10_value: Programmed ``log10(metric)`` at the last write.
        alpha: Drift exponent drawn at the last write.
        write_time_s: Absolute time of the last write, seconds.
    """

    level: int
    log10_value: float
    alpha: float
    write_time_s: float = 0.0

    @classmethod
    def program(
        cls,
        params: MetricParams,
        level: int,
        rng: Optional[np.random.Generator] = None,
        now_s: float = 0.0,
    ) -> "Cell":
        """Program a fresh cell to ``level`` at time ``now_s``."""
        rng = rng if rng is not None else np.random.default_rng()
        log10_value = float(sample_initial_log10(params, level, rng))
        alpha = float(sample_alpha(params, level, rng))
        return cls(level=level, log10_value=log10_value, alpha=alpha, write_time_s=now_s)

    def value_log10_at(self, params: MetricParams, now_s: float) -> float:
        """``log10(metric)`` observed if the cell is sensed at ``now_s``."""
        elapsed = max(now_s - self.write_time_s, 0.0)
        return float(drifted_log10(params, self.log10_value, self.alpha, elapsed))

    def sense_at(self, params: MetricParams, now_s: float) -> int:
        """The level a sense amplifier reports at ``now_s``."""
        value = self.value_log10_at(params, now_s)
        return int(np.searchsorted(params.thresholds, value, side="left"))

    def has_drift_error_at(self, params: MetricParams, now_s: float) -> bool:
        """Whether sensing at ``now_s`` would return the wrong level."""
        return self.sense_at(params, now_s) != self.level


def sense_cells_at(
    params: MetricParams, cells: Sequence["Cell"], now_s: float
) -> np.ndarray:
    """Batch-sense many :class:`Cell` objects at one absolute time.

    The vectorized counterpart of :meth:`Cell.sense_at`: one drift
    evaluation and one quantization over the whole batch instead of a
    Python call per cell, for fine-grained Monte-Carlo demos.

    Returns:
        ``int64`` array of sensed levels, one per cell.
    """
    if not cells:
        return np.zeros(0, dtype=np.int64)
    initial = np.asarray([c.log10_value for c in cells], dtype=np.float64)
    alpha = np.asarray([c.alpha for c in cells], dtype=np.float64)
    elapsed = np.maximum(
        now_s - np.asarray([c.write_time_s for c in cells], dtype=np.float64),
        0.0,
    )
    values = drifted_log10(params, initial, alpha, elapsed)
    thresholds = np.asarray(params.thresholds, dtype=np.float64)
    return np.searchsorted(thresholds, values, side="left").astype(np.int64)
