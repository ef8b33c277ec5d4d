"""Per-cell drift-error probabilities (the analytic heart of Tables III-V).

A cell programmed to level ``i`` at time 0 mis-senses at time ``t`` when its
drifted ``log10`` metric crosses the read reference above it:

``x + alpha * lambda > B_i``,  with ``lambda = log10(t / t0)``,

where ``x`` is the programmed value (truncated normal from program-and-
verify) and ``alpha`` the drift exponent (normal, clipped at 0). The top
level has no upper reference and never errors; drift is strictly upward so
no level errors downward.

Two evaluation modes:

* ``truncated=True`` (default, matches P&V physics): numerical integration
  of ``P(alpha > (B - x)/lambda)`` over the truncated-normal density of
  ``x``. This is what reproduces the magnitude of the paper's Table III.
* ``truncated=False``: the closed-form untruncated approximation where
  ``x + alpha*lambda`` is normal with mean ``mu + mu_alpha*lambda`` and
  variance ``sigma^2 + (sigma_alpha*lambda)^2`` — a common simplification
  in the literature, kept for comparison and for speed.

The normal CDF and tail are ``scipy.special.ndtr``, the ufunc scipy's
``norm.cdf``/``norm.sf`` dispatch to, so the values match ``norm`` bit for
bit while the process imports only ``scipy.special``.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from ..pcm.params import MetricParams, NUM_LEVELS

__all__ = [
    "level_error_probability",
    "mean_cell_error_probability",
    "incremental_error_probability",
]

#: Gauss-Legendre order for the truncated-normal integration.
_QUAD_POINTS = 96
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(_QUAD_POINTS)


def _lambda(params: MetricParams, t_s: Union[float, np.ndarray]) -> np.ndarray:
    t = np.asarray(t_s, dtype=np.float64)
    # NaN would pass through np.maximum and fail every comparison
    # downstream, reading as "no error"; ages <= t0 clamp to lambda = 0.
    if np.isnan(t).any():
        raise ValueError("age must not be NaN")
    return np.log10(np.maximum(t, params.t0) / params.t0)


def _normal_pdf(z: np.ndarray) -> np.ndarray:
    """Standard normal density, the same expression as scipy's ``norm.pdf``."""
    return np.exp(-(z**2) / 2.0) / np.sqrt(2 * np.pi)


def _truncated_level_probability(
    params: MetricParams, level: int, lam: np.ndarray
) -> np.ndarray:
    """Integrate P(alpha > (B - x) / lambda) over the truncated x density."""
    from scipy.special import ndtr

    mu = params.mu[level]
    sigma = params.sigma
    width = params.program_width_sigma
    boundary = params.upper_boundary(level)
    mu_a = params.mu_alpha[level]
    sigma_a = params.sigma_alpha_frac * mu_a

    # Map Gauss-Legendre nodes from [-1, 1] to z in [-width, width].
    z = _GL_NODES * width
    x = mu + sigma * z  # programmed values, shape (Q,)
    # Truncated-normal density of z, normalized over the window.
    z_norm = ndtr(width) - ndtr(-width)
    density = _normal_pdf(z) / z_norm  # density in z-space
    weights = _GL_WEIGHTS * width * density  # quadrature weights, sum ~ 1

    lam = np.atleast_1d(np.asarray(lam, dtype=np.float64))
    out = np.zeros_like(lam)
    positive = lam > 0
    if np.any(positive):
        lam_pos = lam[positive]  # shape (T,)
        # Required drift exponent for each (t, x) pair.
        needed = (boundary - x)[None, :] / lam_pos[:, None]  # (T, Q)
        if sigma_a > 0:
            tail = ndtr(-((needed - mu_a) / sigma_a))
        else:
            tail = (needed < mu_a).astype(np.float64)
        # alpha is clipped at zero, which only removes probability mass from
        # alpha < 0; `needed` is always > 0 (x is inside the boundary), so
        # the clipped distribution has the same upper tail.
        out[positive] = tail @ weights
    return out


def _untruncated_level_probability(
    params: MetricParams, level: int, lam: np.ndarray
) -> np.ndarray:
    """Closed-form normal-sum approximation (no programming truncation)."""
    from scipy.special import ndtr

    mu = params.mu[level]
    sigma = params.sigma
    boundary = params.upper_boundary(level)
    mu_a = params.mu_alpha[level]
    sigma_a = params.sigma_alpha_frac * mu_a
    lam = np.atleast_1d(np.asarray(lam, dtype=np.float64))
    mean = mu + mu_a * lam
    std = np.sqrt(sigma**2 + (sigma_a * lam) ** 2)
    return ndtr(-((boundary - mean) / std))


def level_error_probability(
    params: MetricParams,
    level: int,
    t_s: Union[float, np.ndarray],
    truncated: bool = True,
) -> Union[float, np.ndarray]:
    """P(a level-``level`` cell mis-senses ``t_s`` seconds after its write).

    Args:
        params: Metric model (R or M).
        level: Programmed level, 0..3. The top level returns 0.
        t_s: Elapsed seconds since the write (scalar or array).
        truncated: Account for the program-and-verify truncation of the
            initial distribution (recommended; see module docstring).

    Returns:
        Error probability, scalar if ``t_s`` was scalar.
    """
    if not 0 <= level < NUM_LEVELS:
        raise ValueError(f"level must be in [0, {NUM_LEVELS - 1}]")
    scalar = np.ndim(t_s) == 0
    lam = _lambda(params, t_s)
    if level == NUM_LEVELS - 1:
        result = np.zeros_like(np.atleast_1d(lam))
    elif truncated:
        result = _truncated_level_probability(params, level, lam)
    else:
        result = _untruncated_level_probability(params, level, lam)
    return float(result[0]) if scalar else result


def mean_cell_error_probability(
    params: MetricParams,
    t_s: Union[float, np.ndarray],
    level_weights: Optional[Sequence[float]] = None,
    truncated: bool = True,
) -> Union[float, np.ndarray]:
    """Error probability of a random data cell at age ``t_s``.

    Args:
        params: Metric model.
        t_s: Elapsed seconds since the write.
        level_weights: Probability of a cell holding each level; defaults to
            uniform (random data), the paper's assumption.
        truncated: See :func:`level_error_probability`.
    """
    if level_weights is None:
        weights = np.full(NUM_LEVELS, 1.0 / NUM_LEVELS)
    else:
        weights = np.asarray(level_weights, dtype=np.float64)
        if weights.shape != (NUM_LEVELS,):
            raise ValueError(f"need {NUM_LEVELS} level weights")
        if abs(weights.sum() - 1.0) > 1e-9:
            raise ValueError("level weights must sum to 1")
    scalar = np.ndim(t_s) == 0
    total = np.zeros_like(np.atleast_1d(_lambda(params, t_s)))
    for level in range(NUM_LEVELS):
        if weights[level]:
            total = total + weights[level] * np.atleast_1d(
                level_error_probability(params, level, t_s, truncated=truncated)
            )
    return float(total[0]) if scalar else total


def incremental_error_probability(
    params: MetricParams,
    t_early_s: float,
    t_late_s: float,
    level_weights: Optional[Sequence[float]] = None,
    truncated: bool = True,
) -> float:
    """P(a cell is error-free at ``t_early_s`` but in error at ``t_late_s``).

    Because drift is monotone upward, the error event is monotone in time:
    a cell in error at ``t_early_s`` is still in error at ``t_late_s``
    (references never move). Hence the joint probability is simply
    ``p(t_late) - p(t_early)``.
    """
    if t_late_s < t_early_s:
        raise ValueError("t_late_s must be >= t_early_s")
    p_early = mean_cell_error_probability(
        params, t_early_s, level_weights=level_weights, truncated=truncated
    )
    p_late = mean_cell_error_probability(
        params, t_late_s, level_weights=level_weights, truncated=truncated
    )
    return max(float(p_late) - float(p_early), 0.0)
