"""Benchmark targets regenerating the paper's figures.

The Monte-Carlo figures (1, 6) and the flag walkthrough (5) run
standalone; the evaluation figures (3, 4, 9-15) consume the shared sweep
(see conftest) and are measured as single-shot targets — re-running the
full simulation grid per benchmark round would be pointless, so the
expensive sweep is warmed once and its cost is reported by
``test_figure9_sweep_cost``.
"""

import pytest

from repro.experiments import EXPERIMENTS

from conftest import BENCH_REQUESTS, save_result

FAST_FIGURES = ["figure1", "figure2", "figure5", "figure6"]
SWEEP_FIGURES = [
    "figure3",
    "figure4",
    "figure9",
    "figure10",
    "figure11",
    "figure12",
    "figure13",
    "figure14",
    "figure15",
]


@pytest.mark.parametrize("experiment", FAST_FIGURES)
def test_figure_fast(benchmark, experiment, results_dir):
    driver = EXPERIMENTS[experiment]
    result = benchmark(driver)
    save_result(results_dir, result)
    assert result.rows


def test_figure9_sweep_cost(benchmark, results_dir):
    """The headline run: every scheme on every workload (one shot)."""
    from repro.experiments.figures import figure9

    def full_sweep():
        # No service: the driver resolves on a fresh, cold one.
        return figure9.run(target_requests=BENCH_REQUESTS)

    result = benchmark.pedantic(full_sweep, rounds=1, iterations=1)
    save_result(results_dir, result)
    geomean = result.rows[-1]
    assert geomean[0] == "geomean"


@pytest.mark.parametrize("experiment", SWEEP_FIGURES)
def test_figure_sweep(benchmark, experiment, results_dir, warm_sweep):
    driver = EXPERIMENTS[experiment]

    def assemble():
        return driver(target_requests=BENCH_REQUESTS, service=warm_sweep)

    result = benchmark.pedantic(assemble, rounds=1, iterations=1)
    save_result(results_dir, result)
    assert result.rows
