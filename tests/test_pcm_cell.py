"""Unit + property tests for the cell-level drift model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pcm.cell import (
    Cell,
    drift_log10,
    drifted_log10,
    sample_alpha,
    sample_initial_log10,
)
from repro.pcm.params import M_METRIC, R_METRIC


class TestSampleInitial:
    def test_within_program_window(self, rng):
        levels = np.full(20_000, 2)
        values = sample_initial_log10(R_METRIC, levels, rng)
        width = R_METRIC.program_width_sigma * R_METRIC.sigma
        assert values.min() >= 5.0 - width - 1e-12
        assert values.max() <= 5.0 + width + 1e-12

    def test_mean_matches_level(self, rng):
        for level in range(4):
            values = sample_initial_log10(R_METRIC, np.full(20_000, level), rng)
            assert values.mean() == pytest.approx(R_METRIC.mu[level], abs=0.01)

    def test_std_close_to_sigma(self, rng):
        values = sample_initial_log10(R_METRIC, np.full(50_000, 1), rng)
        # Truncation at 2.746 sigma trims ~0.4% of the variance.
        assert values.std() == pytest.approx(R_METRIC.sigma, rel=0.05)

    def test_rejects_bad_level(self, rng):
        with pytest.raises(ValueError):
            sample_initial_log10(R_METRIC, np.asarray([4]), rng)

    def test_shape_preserved(self, rng):
        values = sample_initial_log10(R_METRIC, np.zeros((3, 5), dtype=int), rng)
        assert values.shape == (3, 5)

    @pytest.mark.parametrize("width", [R_METRIC.program_width_sigma, 2.0])
    def test_memoized_bounds_draw_identically(self, width):
        from scipy.stats import norm

        params = R_METRIC.replace(program_width_sigma=width)
        levels = np.arange(64) % 4
        for _ in range(2):  # the second call reads the memoized bounds
            got = sample_initial_log10(params, levels, np.random.default_rng(7))
            rng = np.random.default_rng(7)
            u = rng.uniform(norm.cdf(-width), norm.cdf(width), size=levels.shape)
            expected = np.asarray(params.mu)[levels] + params.sigma * norm.ppf(u)
            assert np.array_equal(got, expected)


class TestSampleAlpha:
    def test_nonnegative(self, rng):
        alpha = sample_alpha(R_METRIC, np.full(50_000, 3), rng)
        assert alpha.min() >= 0.0

    def test_mean_matches_level(self, rng):
        for level in range(4):
            alpha = sample_alpha(R_METRIC, np.full(30_000, level), rng)
            assert alpha.mean() == pytest.approx(
                R_METRIC.mu_alpha[level], rel=0.05
            )

    def test_higher_levels_drift_faster(self, rng):
        means = [
            sample_alpha(R_METRIC, np.full(20_000, level), rng).mean()
            for level in range(4)
        ]
        assert means == sorted(means)


class TestDrift:
    def test_no_drift_before_t0(self):
        assert drift_log10(R_METRIC, 0.1, 0.5) == pytest.approx(0.0)

    def test_one_decade(self):
        assert drift_log10(R_METRIC, 0.06, 10.0) == pytest.approx(0.06)

    def test_monotone_in_time(self):
        times = np.asarray([1.0, 10.0, 100.0, 1e4, 1e6])
        drifts = drift_log10(R_METRIC, 0.05, times)
        assert np.all(np.diff(drifts) > 0)

    def test_drifted_adds_initial(self):
        assert drifted_log10(R_METRIC, 4.0, 0.1, 100.0) == pytest.approx(4.2)

    @given(
        alpha=st.floats(min_value=0.0, max_value=0.2),
        t=st.floats(min_value=1.0, max_value=1e9),
    )
    @settings(max_examples=50, deadline=None)
    def test_drift_nonnegative_property(self, alpha, t):
        assert float(drift_log10(R_METRIC, alpha, t)) >= 0.0


class TestCell:
    def test_program_and_sense_fresh(self, rng):
        for level in range(4):
            cell = Cell.program(R_METRIC, level, rng)
            assert cell.sense_at(R_METRIC, 0.0) == level
            assert not cell.has_drift_error_at(R_METRIC, 0.0)

    def test_forced_drift_error(self):
        # A hand-built cell right below its boundary with a huge alpha.
        cell = Cell(level=1, log10_value=4.45, alpha=0.5, write_time_s=0.0)
        assert cell.sense_at(R_METRIC, 1.0) == 1
        assert cell.sense_at(R_METRIC, 100.0) == 2
        assert cell.has_drift_error_at(R_METRIC, 100.0)

    def test_top_level_never_errors(self, rng):
        cell = Cell.program(R_METRIC, 3, rng)
        assert not cell.has_drift_error_at(R_METRIC, 1e9)

    def test_m_metric_cell_drifts_less(self, rng):
        errors_r = errors_m = 0
        for seed in range(300):
            local = np.random.default_rng(seed)
            cr = Cell.program(R_METRIC, 2, local)
            local = np.random.default_rng(seed)
            cm = Cell.program(M_METRIC, 2, local)
            errors_r += cr.has_drift_error_at(R_METRIC, 1e5)
            errors_m += cm.has_drift_error_at(M_METRIC, 1e5)
        assert errors_m <= errors_r

    def test_write_time_offsets_age(self):
        cell = Cell(level=1, log10_value=4.4, alpha=0.1, write_time_s=100.0)
        assert cell.value_log10_at(R_METRIC, 100.0) == pytest.approx(4.4)
        later = cell.value_log10_at(R_METRIC, 1100.0)
        assert later == pytest.approx(4.4 + 0.1 * 3, abs=1e-9)
