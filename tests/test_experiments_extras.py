"""Tests for the extension experiments (BCH study, S sweep, precise writes)."""

from pathlib import Path

import pytest

from repro.baselines.precise import precise_write_policy
from repro.core.policies import PolicyContext, ScrubbingPolicy
from repro.core.registry import is_scheme_name, make_policy
from repro.experiments.extras import (
    bch_detection_study,
    precise_write_comparison,
    scrub_interval_sensitivity,
)


class TestBchDetectionStudy:
    @pytest.fixture(scope="class")
    def result(self):
        return bch_detection_study(max_errors=19, trials=6)

    def test_corrects_through_eight(self, result):
        for row in result.rows[:8]:
            assert row[1] == 1.0, row

    def test_detects_nine_through_seventeen(self, result):
        for row in result.rows[8:17]:
            assert row[2] == 1.0, row

    def test_no_miscorrection_within_detection_range(self, result):
        for row in result.rows[:17]:
            assert row[3] == 0.0, row

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            bch_detection_study(max_errors=0)


class TestScrubIntervalSensitivity:
    def test_longer_intervals_scrub_less(self):
        result = scrub_interval_sensitivity(
            intervals_s=(160.0, 640.0, 2560.0), target_requests=2_500
        )
        ops = result.column("scrub ops")
        assert ops == sorted(ops, reverse=True)

    def test_very_short_interval_hurts(self):
        result = scrub_interval_sensitivity(
            intervals_s=(160.0, 640.0), target_requests=2_500
        )
        exec_col = result.column("exec")
        assert exec_col[0] > exec_col[1]


class TestPreciseWrite:
    def test_policy_earns_longer_interval(self, small_profile, small_config):
        ctx = PolicyContext(profile=small_profile, config=small_config)
        policy = make_policy("Precise-2", ctx)
        # A plain Scrubbing policy (so it runs on the kernel) named by spec.
        assert type(policy) is ScrubbingPolicy
        assert policy.name == "Precise-2"
        assert policy.scrub_interval_s > 8.0

    def test_narrower_programming_longer_interval(
        self, small_profile, small_config
    ):
        ctx = PolicyContext(profile=small_profile, config=small_config)
        wide = make_policy("Precise-2.5", ctx)
        narrow = make_policy("Precise-1.8", ctx)
        assert narrow.scrub_interval_s > wide.scrub_interval_s

    def test_rejects_width_at_boundary(self, small_profile, small_config):
        ctx = PolicyContext(profile=small_profile, config=small_config)
        for width in ("0", "2.99", "3", "3.5"):
            assert not is_scheme_name(f"Precise-{width}")
            with pytest.raises(ValueError):
                make_policy(f"Precise-{width}", ctx)
            with pytest.raises(ValueError):
                precise_write_policy(ctx, program_width_sigma=float(width))

    def test_comparison_shape(self):
        result = precise_write_comparison(target_requests=2_500)
        rows = {row[0]: row for row in result.rows}
        # Precise-write beats Scrubbing (its reason to exist) but ReadDuo
        # still wins without touching the write path.
        assert rows["Precise-write"][1] < rows["Scrubbing"][1]
        assert rows["LWT-4"][1] < rows["Precise-write"][1]
        assert rows["Precise-write"][4] < rows["Scrubbing"][4]  # fewer scrubs


class TestMonteCarloValidation:
    def test_model_agreement(self):
        from repro.experiments.extras import montecarlo_validation

        result = montecarlo_validation(
            ages_s=(64.0, 640.0), num_lines=600, seed=3
        )
        r_rows = [row for row in result.rows if row[0] == "R"]
        for row in r_rows:
            assert row[4] < 0.3, row  # relative error

    def test_both_metrics_reported(self):
        from repro.experiments.extras import montecarlo_validation

        result = montecarlo_validation(ages_s=(64.0,), num_lines=100)
        assert {row[0] for row in result.rows} == {"R", "M"}

    def test_committed_result_is_the_default_render(self):
        # results/extra-mc-validation.txt is what `readduo run
        # extra-mc-validation` prints, i.e. the driver at its defaults.
        from repro.experiments.extras import montecarlo_validation

        committed = Path(__file__).resolve().parent.parent / "results"
        text = (committed / "extra-mc-validation.txt").read_text()
        assert text == montecarlo_validation().render() + "\n"
