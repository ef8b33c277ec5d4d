"""Fast per-read drift-error sampling for the simulator.

Simulating 134M lines cell-by-cell is infeasible, so the engine samples
each access's drift-error count from the *analytic* per-cell probability
(:mod:`repro.reliability.drift_prob`) — the same model that reproduces the
paper's Tables III/IV — evaluated at the line's age and fed through a
binomial draw. Probabilities are precomputed on a log-age grid once per
metric and interpolated; ages with negligible error probability skip the
RNG entirely.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from ..pcm.params import M_METRIC, MetricParams, R_METRIC
from ..reliability.drift_prob import mean_cell_error_probability

__all__ = ["DriftErrorSampler", "SamplerTables", "sampler_tables"]


class SamplerTables:
    """Shared, precomputed probability tables for one sampler configuration.

    Building the tables means evaluating the analytic drift-error model on
    a 160-point log-age grid per metric — milliseconds of ``scipy.special``
    ufunc work that used to be repeated for every policy instantiation.
    Tables are pure functions of ``(r_params, m_params, grid bounds,
    grid_points)``, so one module-level memo serves every sampler (and the
    compiled kernel, which reads the precomputed slope arrays for a
    bisect-based interpolation that is bit-identical to ``np.interp`` on the
    same grid).

    The first table build is where a simulating process imports
    ``scipy.special``: the drift model imports its ufuncs inside the
    functions that evaluate it, so processes that never simulate (listings,
    fully cached sweeps) never load scipy.
    """

    __slots__ = (
        "grid",
        "log_grid",
        "p_r",
        "p_m",
        "slope_r",
        "slope_m",
    )

    def __init__(
        self,
        r_params: MetricParams,
        m_params: MetricParams,
        log_lo: float,
        log_hi: float,
        grid_points: int,
    ) -> None:
        self.grid = np.logspace(log_lo, log_hi, grid_points)
        self.log_grid = np.log10(self.grid)
        self.p_r = np.asarray(mean_cell_error_probability(r_params, self.grid))
        self.p_m = np.asarray(mean_cell_error_probability(m_params, self.grid))
        # Per-segment slopes for the compiled kernel's bisect-lerp.
        # `(p[j+1]-p[j]) / (x[j+1]-x[j])` evaluated once per segment yields
        # the same double as np.interp computes per query, so
        # `slope*(q-x[j]) + p[j]` reproduces np.interp bit-for-bit (see
        # tests/test_batch_equivalence.py).
        self.slope_r = np.diff(self.p_r) / np.diff(self.log_grid)
        self.slope_m = np.diff(self.p_m) / np.diff(self.log_grid)
        for arr in (self.grid, self.log_grid, self.p_r, self.p_m, self.slope_r, self.slope_m):
            arr.setflags(write=False)


_TABLE_MEMO: Dict[
    Tuple[MetricParams, MetricParams, float, float, int], SamplerTables
] = {}


def sampler_tables(
    r_params: MetricParams = R_METRIC,
    m_params: MetricParams = M_METRIC,
    log_lo: float = 0.0,
    log_hi: float = 8.0,
    grid_points: int = 160,
) -> SamplerTables:
    """Memoized probability tables for the given sampler configuration."""
    key = (r_params, m_params, float(log_lo), float(log_hi), grid_points)
    found = _TABLE_MEMO.get(key)
    if found is None:
        found = _TABLE_MEMO[key] = SamplerTables(
            r_params, m_params, float(log_lo), float(log_hi), grid_points
        )
    return found


class DriftErrorSampler:
    """Samples line drift-error counts as a function of line age.

    Args:
        cells_per_line: Data cells whose errors the ECC must handle.
        rng: Randomness source (one per policy keeps runs reproducible).
        r_params / m_params: Metric models.
        age_grid_lo_s / age_grid_hi_s: Age range covered by the grid; ages
            outside are clamped.
        grid_points: Log-spaced grid resolution.
        negligible_expected_errors: Skip sampling when the expected error
            count is below this (the draw would be 0 with probability
            ``> 1 - negligible``).
    """

    def __init__(
        self,
        cells_per_line: int = 256,
        rng: Optional[np.random.Generator] = None,
        r_params: MetricParams = R_METRIC,
        m_params: MetricParams = M_METRIC,
        age_grid_lo_s: float = 1.0,
        age_grid_hi_s: float = 1.0e8,
        grid_points: int = 160,
        negligible_expected_errors: float = 1.0e-7,
    ) -> None:
        self.cells = cells_per_line
        self.rng = rng if rng is not None else np.random.default_rng()
        self._negligible_p = negligible_expected_errors / cells_per_line
        self._log_lo = np.log10(age_grid_lo_s)
        self._log_hi = np.log10(age_grid_hi_s)
        self.tables = sampler_tables(
            r_params, m_params, self._log_lo, self._log_hi, grid_points
        )
        self._grid = self.tables.grid
        self._log_grid = self.tables.log_grid
        self._p_r = self.tables.p_r
        self._p_m = self.tables.p_m

    def cell_error_probability(self, age_s: float, metric: str = "R") -> float:
        """Interpolated per-cell error probability at ``age_s``."""
        table = self._p_r if metric == "R" else self._p_m
        if age_s <= self._grid[0]:
            return float(table[0])
        if age_s >= self._grid[-1]:
            return float(table[-1])
        return float(np.interp(np.log10(age_s), self._log_grid, table))

    def sample_errors(self, age_s: float, metric: str = "R") -> int:
        """Draw the number of drifted cells in one line of age ``age_s``."""
        p = self.cell_error_probability(age_s, metric)
        if p <= self._negligible_p:
            return 0
        return int(self.rng.binomial(self.cells, p))

    def expected_errors(self, age_s: float, metric: str = "R") -> float:
        """Mean drifted-cell count at ``age_s`` (no sampling)."""
        return self.cells * self.cell_error_probability(age_s, metric)
