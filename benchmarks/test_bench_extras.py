"""Benchmark targets for the extension experiments."""

from repro.experiments.extras import (
    bch_detection_study,
    precise_write_comparison,
    scrub_interval_sensitivity,
)

from conftest import save_result


def test_extra_bch_detection(benchmark, results_dir):
    result = benchmark.pedantic(
        lambda: bch_detection_study(max_errors=24, trials=30),
        rounds=1,
        iterations=1,
    )
    save_result(results_dir, result)
    assert result.rows


def test_extra_scrub_interval(benchmark, results_dir):
    result = benchmark.pedantic(
        scrub_interval_sensitivity, rounds=1, iterations=1
    )
    save_result(results_dir, result)
    assert result.rows


def test_extra_precise_write(benchmark, results_dir):
    result = benchmark.pedantic(
        precise_write_comparison, rounds=1, iterations=1
    )
    save_result(results_dir, result)
    assert result.rows


def test_extra_mc_validation(benchmark, results_dir):
    from repro.experiments.extras import montecarlo_validation

    # The driver's defaults, as ``readduo run extra-mc-validation`` uses them.
    result = benchmark.pedantic(montecarlo_validation, rounds=1, iterations=1)
    save_result(results_dir, result)
    assert result.rows
