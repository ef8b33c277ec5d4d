"""Unit + property tests for per-cell drift-error probabilities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pcm.params import M_METRIC, R_METRIC
from repro.reliability.drift_prob import (
    _normal_pdf,
    incremental_error_probability,
    level_error_probability,
    mean_cell_error_probability,
)


class TestLevelErrorProbability:
    def test_zero_at_t0(self):
        for level in range(4):
            assert level_error_probability(R_METRIC, level, 1.0) == 0.0

    def test_top_level_never_errors(self):
        assert level_error_probability(R_METRIC, 3, 1e9) == 0.0

    def test_monotone_in_time(self):
        times = np.asarray([2.0, 8.0, 64.0, 640.0, 1e5])
        probs = level_error_probability(R_METRIC, 2, times)
        assert np.all(np.diff(probs) >= 0)

    def test_middle_states_worst(self):
        at = 640.0
        p1 = level_error_probability(R_METRIC, 1, at)
        p2 = level_error_probability(R_METRIC, 2, at)
        p0 = level_error_probability(R_METRIC, 0, at)
        assert p2 > p0
        assert p1 > p0

    def test_truncation_reduces_probability(self):
        at = 8.0
        truncated = level_error_probability(R_METRIC, 2, at, truncated=True)
        full = level_error_probability(R_METRIC, 2, at, truncated=False)
        assert truncated < full

    def test_rejects_bad_level(self):
        with pytest.raises(ValueError):
            level_error_probability(R_METRIC, 5, 8.0)

    def test_scalar_in_scalar_out(self):
        value = level_error_probability(R_METRIC, 1, 8.0)
        assert isinstance(value, float)

    @pytest.mark.parametrize("level", [1, 3])
    def test_zero_d_array_age_is_scalar(self, level):
        value = level_error_probability(R_METRIC, level, np.array(8.0))
        assert isinstance(value, float)
        assert value == level_error_probability(R_METRIC, level, 8.0)

    def test_list_ages_keep_shape(self):
        assert level_error_probability(R_METRIC, 1, [8.0, 64.0]).shape == (2,)
        assert level_error_probability(R_METRIC, 1, [[8.0], [64.0]]).shape == (2, 1)

    @given(t=st.floats(min_value=1.0, max_value=1e8))
    @settings(max_examples=40, deadline=None)
    def test_valid_probability_property(self, t):
        p = level_error_probability(R_METRIC, 2, t)
        assert 0.0 <= p <= 1.0


class TestMeanCellProbability:
    def test_uniform_average_of_levels(self):
        at = 64.0
        mean = mean_cell_error_probability(R_METRIC, at)
        per_level = [level_error_probability(R_METRIC, lv, at) for lv in range(4)]
        assert mean == pytest.approx(sum(per_level) / 4)

    def test_custom_weights(self):
        at = 64.0
        only2 = mean_cell_error_probability(R_METRIC, at, [0, 0, 1.0, 0])
        assert only2 == pytest.approx(level_error_probability(R_METRIC, 2, at))

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            mean_cell_error_probability(R_METRIC, 8.0, [0.5, 0.5, 0.5, 0.5])

    def test_rejects_nan_scalar_age(self):
        with pytest.raises(ValueError, match="NaN"):
            mean_cell_error_probability(R_METRIC, float("nan"))
        with pytest.raises(ValueError, match="NaN"):
            level_error_probability(R_METRIC, 1, float("nan"))

    def test_rejects_nan_in_age_array(self):
        ages = np.asarray([8.0, np.nan, 640.0])
        with pytest.raises(ValueError, match="NaN"):
            mean_cell_error_probability(R_METRIC, ages)
        with pytest.raises(ValueError, match="NaN"):
            level_error_probability(R_METRIC, 2, ages, truncated=False)

    def test_ages_at_or_below_t0_still_clamp_to_zero(self):
        ages = np.asarray([0.0, 0.5 * R_METRIC.t0, R_METRIC.t0])
        assert np.all(mean_cell_error_probability(R_METRIC, ages) == 0.0)

    def test_m_metric_far_more_reliable(self):
        at = 640.0
        assert mean_cell_error_probability(
            M_METRIC, at
        ) < 0.01 * mean_cell_error_probability(R_METRIC, at)

    def test_zero_d_array_age_is_scalar(self):
        value = mean_cell_error_probability(M_METRIC, np.array(640.0))
        assert isinstance(value, float)
        assert value == mean_cell_error_probability(M_METRIC, 640.0)

    def test_list_ages_keep_shape(self):
        probs = mean_cell_error_probability(R_METRIC, [8.0, 64.0, 640.0])
        assert probs.shape == (3,)
        assert probs[1] == mean_cell_error_probability(R_METRIC, 64.0)

    def test_paper_magnitude_at_8s(self):
        # Calibration anchor: Table III (S=8, E=0) = 7.09e-2 implies a
        # per-cell probability near 2.9e-4.
        p = mean_cell_error_probability(R_METRIC, 8.0)
        assert 2.0e-4 < p < 4.0e-4


class TestIncremental:
    def test_difference_of_monotone(self):
        inc = incremental_error_probability(R_METRIC, 8.0, 16.0)
        p8 = mean_cell_error_probability(R_METRIC, 8.0)
        p16 = mean_cell_error_probability(R_METRIC, 16.0)
        assert inc == pytest.approx(p16 - p8)

    def test_zero_when_same_time(self):
        assert incremental_error_probability(R_METRIC, 8.0, 8.0) == 0.0

    def test_rejects_reversed_times(self):
        with pytest.raises(ValueError):
            incremental_error_probability(R_METRIC, 16.0, 8.0)


class TestNormalOracle:
    """The ``scipy.special`` forms equal ``scipy.stats.norm`` bit for bit."""

    X = np.concatenate(
        [
            np.linspace(-40.0, 40.0, 8001),
            [0.0, -0.0, 1e-300, -1e-300, 8.3, -8.3, 37.5, -37.5, 38.5, -38.5],
            [40.0, -40.0, np.inf, -np.inf],
        ]
    )
    Q = np.concatenate(
        [
            np.linspace(0.0, 1.0, 10001),
            np.geomspace(5e-324, 0.5, 2000),
            1.0 - np.geomspace(2.0**-53, 0.5, 500),
            [np.nextafter(1.0, 0.0), 1e-300, 0.5],
        ]
    )

    def test_cdf_and_sf(self):
        from scipy.special import ndtr
        from scipy.stats import norm

        assert np.array_equal(ndtr(self.X), norm.cdf(self.X))
        assert np.array_equal(ndtr(-self.X), norm.sf(self.X))

    def test_pdf(self):
        from scipy.stats import norm

        assert np.array_equal(_normal_pdf(self.X), norm.pdf(self.X))

    def test_ppf(self):
        from scipy.special import ndtri
        from scipy.stats import norm

        assert np.array_equal(ndtri(self.Q), norm.ppf(self.Q))
