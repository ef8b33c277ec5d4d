"""Unit tests for line-error-rate tables (Tables III/IV design points)."""

import numpy as np
import pytest

from repro.pcm.params import M_METRIC, R_METRIC
from repro.reliability.ler import (
    _binom_pmf,
    _binom_sf,
    expected_line_errors,
    ler_table,
    line_failure_probability,
    max_safe_interval,
)
from repro.reliability.targets import DRAM_TARGET


class TestLineFailureProbability:
    def test_paper_table3_unprotected_at_8s(self):
        # Paper: 7.09e-2; our truncated model gives ~7.2e-2.
        p = line_failure_probability(R_METRIC, 0, 8.0)
        assert p == pytest.approx(7.1e-2, rel=0.1)

    def test_paper_table3_bch1_at_8s(self):
        # Paper: 2.56e-3.
        p = line_failure_probability(R_METRIC, 1, 8.0)
        assert p == pytest.approx(2.6e-3, rel=0.15)

    def test_bch8_safe_at_8s(self):
        p = line_failure_probability(R_METRIC, 8, 8.0)
        assert p < DRAM_TARGET.budget_for_interval(8.0)

    def test_bch8_unsafe_at_16s(self):
        p = line_failure_probability(R_METRIC, 8, 16.0)
        assert p > DRAM_TARGET.budget_for_interval(16.0)

    def test_m_metric_bch8_safe_at_640s(self):
        p = line_failure_probability(M_METRIC, 8, 640.0)
        assert p < DRAM_TARGET.budget_for_interval(640.0)

    def test_monotone_in_ecc_strength(self):
        probs = [line_failure_probability(R_METRIC, e, 64.0) for e in range(6)]
        assert probs == sorted(probs, reverse=True)

    def test_vectorized_ages(self):
        probs = line_failure_probability(R_METRIC, 0, np.asarray([8.0, 64.0]))
        assert probs.shape == (2,)
        assert probs[1] > probs[0]

    def test_zero_d_array_age_is_scalar(self):
        value = line_failure_probability(R_METRIC, 1, np.array(8.0))
        assert isinstance(value, float)
        assert value == line_failure_probability(R_METRIC, 1, 8.0)

    def test_list_ages_keep_shape(self):
        probs = line_failure_probability(R_METRIC, 1, [8.0, 64.0])
        assert probs.shape == (2,)
        assert probs[0] == line_failure_probability(R_METRIC, 1, 8.0)

    def test_rejects_negative_strength(self):
        with pytest.raises(ValueError):
            line_failure_probability(R_METRIC, -1, 8.0)


class TestExpectedErrors:
    def test_matches_mean_times_cells(self):
        expected = expected_line_errors(R_METRIC, 640.0)
        assert 1.0 < expected < 4.0  # ~2 drifted cells per line at 640 s

    def test_scales_with_cells(self):
        half = expected_line_errors(R_METRIC, 640.0, cells=128)
        full = expected_line_errors(R_METRIC, 640.0, cells=256)
        assert full == pytest.approx(2 * half)


class TestLerTable:
    def test_shape_and_targets(self):
        table = ler_table(R_METRIC, [4, 8, 16], [0, 1, 8])
        assert table.ler.shape == (3, 3)
        assert table.targets[1] == pytest.approx(
            DRAM_TARGET.budget_for_interval(8.0)
        )

    def test_meets_target_mask(self):
        table = ler_table(R_METRIC, [8, 640], [0, 8])
        mask = table.meets_target()
        assert bool(mask[0, 1])  # (S=8, E=8) safe
        assert not bool(mask[0, 0])  # unprotected unsafe
        assert not bool(mask[1, 1])  # (S=640, E=8) unsafe under R

    def test_cell_lookup(self):
        table = ler_table(R_METRIC, [8], [0])
        assert table.cell(8, 0) == pytest.approx(
            float(line_failure_probability(R_METRIC, 0, 8.0))
        )

    def test_rows_dictionaries(self):
        table = ler_table(R_METRIC, [8], [0, 8])
        rows = table.rows()
        assert rows[0]["S"] == 8
        assert "E=8" in rows[0]

    def test_rejects_empty_sweep(self):
        with pytest.raises(ValueError):
            ler_table(R_METRIC, [], [0])


class TestMaxSafeInterval:
    def test_r_metric_design_point_is_8s(self):
        # The paper's central observation: BCH-8 + R-sensing -> S = 8 s.
        safe = max_safe_interval(R_METRIC, 8, [2**i for i in range(2, 14)])
        assert safe == 8

    def test_m_metric_relaxes_beyond_640(self):
        safe = max_safe_interval(M_METRIC, 8, [640, 16384, 65536])
        assert safe >= 16384

    def test_none_when_nothing_safe(self):
        assert max_safe_interval(R_METRIC, 0, [8, 16]) is None


class TestBinomialOracle:
    """The ``scipy.special`` binomial helpers against ``scipy.stats.binom``."""

    P = np.concatenate(
        [
            np.geomspace(1e-12, 0.3, 80),
            np.random.default_rng(20).uniform(1e-12, 0.3, 40),
        ]
    )

    @pytest.mark.parametrize("n", [100, 163, 256, 319, 400])
    def test_match_binom(self, n):
        from scipy.stats import binom

        for k in range(19):
            np.testing.assert_allclose(
                _binom_sf(k, n, self.P), binom.sf(k, n, self.P), rtol=1e-12, atol=0
            )
            np.testing.assert_allclose(
                _binom_pmf(k, n, self.P), binom.pmf(k, n, self.P), rtol=1e-12, atol=0
            )

    @pytest.mark.parametrize("k", [-3, -1, 0, 5, 255, 256, 300])
    def test_edges_are_exact(self, k):
        from scipy.stats import binom

        n = 256
        p = np.asarray([0.0, 1e-6, 0.5, 1.0])
        if k < 0 or k >= n:
            assert np.array_equal(_binom_sf(k, n, p), binom.sf(k, n, p))
        if k < 0 or k > n:
            assert np.array_equal(_binom_pmf(k, n, p), binom.pmf(k, n, p))
        for edge in (0.0, 1.0):
            assert _binom_sf(k, n, edge) == binom.sf(k, n, edge)
            assert _binom_pmf(k, n, edge) == binom.pmf(k, n, edge)

    @pytest.mark.parametrize("k", [-1, 3, 256])
    def test_scalars_return_scalars(self, k):
        for fn in (_binom_sf, _binom_pmf):
            value = fn(k, 256, 0.01)
            assert np.ndim(value) == 0
            assert not isinstance(value, np.ndarray)
            assert fn(k, 256, [0.01, 0.02]).shape == (2,)
