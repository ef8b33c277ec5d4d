"""Tests for the process-parallel run-unit executor.

Determinism is the contract: a parallel grid must be bit-for-bit
identical to the serial grid, because all randomness is derived from the
settings' seed and worker scheduling never feeds back into a run.
"""

import pytest

from repro.experiments.parallel import (
    TraceMemo,
    run_units,
    simulate_batch,
)
from repro.experiments.planner import plan_units
from repro.experiments.runner import run_sweep
from repro.experiments.spec import SimSpec
from repro.obs import Telemetry, Tracer
from repro.service import ExecutionService


SMALL = SimSpec(
    schemes=("Ideal", "Hybrid", "LWT-4"),
    workloads=("gcc", "sphinx3"),
    target_requests=1_200,
)

#: What :func:`repro.experiments.parallel.run_unit` reports per unit.
PROVENANCE_FIELDS = {"wall_s", "pid", "t_s", "engine", "fastpath", "fastpath_reason"}


def _flat(grid):
    """Every numeric field of every run, in canonical order."""
    return [
        (w, s, stats.to_dict())
        for w, per_scheme in grid.items()
        for s, stats in per_scheme.items()
    ]


class TestRunUnitsParallel:
    def test_every_unit_executed_exactly_once(self):
        units = plan_units(SMALL)
        assert len(units) == len(SMALL.workloads) * len(SMALL.schemes)
        results, provenance = run_units(units, jobs=4)
        assert sorted(results) == sorted(u.key for u in units)
        assert provenance.keys() == results.keys()

    def test_parallelism_exceeds_workload_count(self):
        # 2 workloads x 3 schemes = 6 independent units; jobs=4 must be
        # accepted and fully covered (the old per-workload batcher would
        # have capped useful parallelism at 2).
        units = plan_units(SMALL)
        results, _provenance = run_units(units, jobs=4)
        assert len(results) == 6

    def test_empty_unit_list_is_a_noop(self):
        assert run_units([], jobs=2) == ({}, {})

    def test_rejects_nonpositive_jobs(self):
        with pytest.raises(ValueError):
            run_units(plan_units(SMALL), jobs=0)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_both_paths_report_alike(self, jobs):
        """In-process and pool runs give the same provenance fields and one
        ``run_unit`` record per unit."""
        import os

        tele = Telemetry(tracer=Tracer())
        units = plan_units(SMALL)
        results, provenance = run_units(units, jobs, tele)
        for unit in units:
            prov = provenance[unit.key]
            assert set(prov) == PROVENANCE_FIELDS
            assert prov["engine"] == "batch" and prov["wall_s"] > 0
            assert (prov["pid"] == os.getpid()) == (jobs == 1)
        records = [r for r in tele.tracer.records if r["kind"] == "run_unit"]
        assert sorted((r["workload"], r["scheme"]) for r in records) == sorted(
            (u.workload, u.scheme) for u in units
        )


class TestTraceMemo:
    def test_trace_reused_for_same_identity(self):
        memo = TraceMemo(capacity=2)
        first = memo.trace_for(SMALL, "gcc")
        again = memo.trace_for(SMALL, "gcc")
        assert first is again

    def test_capacity_bound_evicts_oldest(self):
        memo = TraceMemo(capacity=1)
        first = memo.trace_for(SMALL, "gcc")
        memo.trace_for(SMALL, "sphinx3")
        assert memo.trace_for(SMALL, "gcc") is not first

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            TraceMemo(capacity=0)


class TestDeterminism:
    def test_parallel_matches_serial_bit_for_bit(self):
        serial = run_sweep(SMALL)
        parallel = run_sweep(SMALL, ExecutionService(jobs=3, cache=False))
        assert _flat(serial) == _flat(parallel)

    def test_parallel_grid_in_canonical_order(self):
        grid = ExecutionService(jobs=2, cache=False).sweep(SMALL)
        assert tuple(grid) == SMALL.workloads
        for per_scheme in grid.values():
            assert tuple(per_scheme) == SMALL.schemes

    def test_batch_matches_serial_inner_loop(self):
        # simulate_batch IS the serial inner loop; a direct call must
        # reproduce the run_sweep entries for its workload.
        grid = run_sweep(SMALL)
        batch = dict(simulate_batch(SMALL, "gcc", SMALL.schemes))
        for scheme in SMALL.schemes:
            assert batch[scheme].to_dict() == grid["gcc"][scheme].to_dict()


class TestRunSweepJobs:
    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError):
            ExecutionService(jobs=0, cache=False)

    def test_parallel_result_is_memoized(self):
        service = ExecutionService(jobs=2, cache=False)
        first = service.sweep(SMALL)
        second = service.sweep(SMALL)
        assert all(
            first[w][s] is second[w][s] for w in first for s in first[w]
        )


class TestWorkerPropagation:
    """Pool-initializer state: log level and span carrier reach workers."""

    @pytest.fixture(autouse=True)
    def reset_worker_globals(self):
        import repro.experiments.parallel as parallel_mod

        carrier = parallel_mod._WORKER_CARRIER
        yield
        parallel_mod._WORKER_CARRIER = carrier

    def test_configured_log_level_mirrors_cli_handler(self):
        import logging

        from repro.experiments.parallel import _configured_log_level
        from repro.obs import configure_logging

        logger = logging.getLogger("repro")
        previous = [h for h in logger.handlers if h.get_name() == "repro-cli"]
        try:
            configure_logging(level="DEBUG")
            assert _configured_log_level() == "DEBUG"
        finally:
            for handler in list(logger.handlers):
                if handler.get_name() == "repro-cli":
                    logger.removeHandler(handler)
            for handler in previous:
                logger.addHandler(handler)

    def test_worker_init_installs_carrier(self):
        import repro.experiments.parallel as parallel_mod
        from repro.obs.spans import SpanContext

        carrier = SpanContext(trace="t1", span="exec-1")
        parallel_mod._worker_init(None, carrier)
        assert parallel_mod._WORKER_CARRIER == carrier

    def test_timed_unit_capture_returns_worker_provenance(self):
        import os

        import repro.experiments.parallel as parallel_mod
        from repro.obs.spans import SpanContext

        parallel_mod._worker_init(None, SpanContext("t1", "exec-1"))
        unit = plan_units(SMALL)[0]
        stats, provenance, spans = parallel_mod._timed_unit(unit)
        assert provenance["wall_s"] > 0.0 and stats.scheme == "Ideal"
        assert provenance["pid"] == os.getpid()
        assert provenance["engine"] == "batch"
        unit_span = next(s for s in spans if s["name"] == "unit.simulate")
        assert unit_span["parent"] == "exec-1"
        assert unit_span["trace"] == "t1"

    def test_timed_unit_without_capture_skips_extras(self):
        """Without a carrier the worker captures no spans; it still
        reports the unit's provenance."""
        import repro.experiments.parallel as parallel_mod

        parallel_mod._worker_init(None, None)
        unit = plan_units(SMALL)[0]
        stats, provenance, spans = parallel_mod._timed_unit(unit)
        assert stats.scheme == "Ideal" and spans == []
        assert set(provenance) == PROVENANCE_FIELDS
        assert provenance["fastpath"] == "speculated"
