"""Shared fixtures for the benchmark harness.

Every paper table/figure has one benchmark target. Simulation-sweep
figures share a single sweep, warmed once per session into one
service's memo, so the whole harness completes in minutes while still
regenerating every artifact at a meaningful scale. Rendered results are written to
``results/<experiment>.txt`` for EXPERIMENTS.md.

Environment knobs:

* ``READDUO_BENCH_REQUESTS`` — requests per trace in the shared sweep
  (default 30000, the paper-scale run recorded in EXPERIMENTS.md; set a
  smaller value, e.g. 8000, for a quick pass).
* ``READDUO_BENCH_JOBS`` — worker processes for the shared sweep and the
  sweep-scaling benchmark (default: the machine's CPU count; set 1 to
  force the serial path).
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"

#: Requests per trace for sweep-driven benchmarks.
BENCH_REQUESTS = int(os.environ.get("READDUO_BENCH_REQUESTS", "30000"))

#: Worker processes for sweep-driven benchmarks.
BENCH_JOBS = int(os.environ.get("READDUO_BENCH_JOBS", str(os.cpu_count() or 1)))


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def bench_meta() -> dict:
    """Run metadata recorded alongside benchmark numbers.

    Delegates to :func:`repro.experiments.bench.bench_meta` so this
    harness and ``readduo bench`` record identical context blocks.
    """
    from repro.experiments.bench import bench_meta as shared_bench_meta

    return shared_bench_meta(BENCH_REQUESTS, BENCH_JOBS)


@pytest.fixture(scope="session")
def warm_sweep():
    """Run the shared scheme x workload sweep once for all figure benches.

    Yields the :class:`~repro.service.ExecutionService` that holds it in
    its memo; figure benches pass it to their drivers as ``service``.
    """
    from repro.experiments.figures._sweep import sweep_settings
    from repro.experiments.runner import run_sweep
    from repro.service import ExecutionService

    with ExecutionService(jobs=BENCH_JOBS, cache=False) as service:
        run_sweep(sweep_settings(BENCH_REQUESTS), service)
        yield service


def save_result(results_dir: Path, result) -> None:
    """Persist a rendered experiment table for EXPERIMENTS.md."""
    path = results_dir / f"{result.experiment_id}.txt"
    path.write_text(result.render() + "\n")
