"""Tests for the drivers' sweep entry point and the run memo behind it."""

from repro.experiments.runner import run_sweep
from repro.experiments.spec import ALL_SCHEMES, SimSpec
from repro.service import ExecutionService


def _cells(grid):
    return [stats for per_scheme in grid.values() for stats in per_scheme.values()]


SMALL = SimSpec(
    schemes=("Ideal", "Hybrid"),
    workloads=("gcc",),
    target_requests=1_500,
)


class TestRunSweep:
    def test_grid_shape(self):
        sweep = run_sweep(SMALL)
        assert set(sweep) == {"gcc"}
        assert set(sweep["gcc"]) == {"Ideal", "Hybrid"}

    def test_memoized(self):
        # A repeat sweep on one service is served from its run memo: the
        # same objects.
        service = ExecutionService(cache=False)
        first = run_sweep(SMALL, service)
        second = run_sweep(SMALL, service)
        assert first == second
        assert all(a is b for a, b in zip(_cells(first), _cells(second)))

    def test_cache_cleared(self):
        service = ExecutionService(cache=False)
        first = run_sweep(SMALL, service)
        service.clear_memo()
        second = run_sweep(SMALL, service)
        assert not any(a is b for a, b in zip(_cells(first), _cells(second)))

    def test_without_service_each_sweep_is_cold(self):
        first = run_sweep(SMALL)
        second = run_sweep(SMALL)
        assert first == second
        assert not any(a is b for a, b in zip(_cells(first), _cells(second)))

    def test_different_settings_different_entries(self):
        first = run_sweep(SMALL)
        other = run_sweep(
            SimSpec(
                schemes=("Ideal", "Hybrid"),
                workloads=("gcc",),
                target_requests=1_500,
                seed=7,
            )
        )
        assert not any(a is b for a, b in zip(_cells(first), _cells(other)))

    def test_all_workloads_when_unspecified(self):
        settings = SimSpec(schemes=("Ideal",), target_requests=1_500)
        assert len(settings.effective_workloads()) == 14

    def test_quick_copy(self):
        quick = SMALL.quick(500)
        assert quick.target_requests == 500
        assert quick.schemes == SMALL.schemes

    def test_all_schemes_constant_covers_figures(self):
        for scheme in ("Ideal", "Scrubbing", "M-metric", "TLC", "Hybrid",
                       "LWT-2", "LWT-4", "LWT-4-noconv", "Select-4:1",
                       "Select-4:2"):
            assert scheme in ALL_SCHEMES

    def test_stats_carry_labels(self):
        sweep = run_sweep(SMALL)
        stats = sweep["gcc"]["Hybrid"]
        assert stats.scheme == "Hybrid"
        assert stats.workload == "gcc"
