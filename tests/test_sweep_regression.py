"""Bit-for-bit sweep regression pin.

The digest below was computed on the pre-registry/pre-SimSpec tree
(PR 2, commit 2f72329) over a small but fully representative grid: every
built-in scheme, two workloads, 1200 requests, seed 42, default config.
Any change to trace generation, policy behaviour, the engine, or
statistics accounting will change it; refactors must not.

If this test fails, either a refactor broke determinism (fix the code)
or simulation semantics were changed deliberately (recompute the digest
and say so in the changelog).
"""

import dataclasses
import hashlib
import json

from repro.experiments.cache import RunCache
from repro.experiments.planner import build_plan, execute_plan
from repro.experiments.runner import run_sweep
from repro.experiments.spec import SimSpec
from repro.service import ExecutionService

PINNED_DIGEST = "6136eb16136e76fa2d0ed0bbf855326ad42e71739646219d245320436fa191b4"

PINNED_SPEC = SimSpec(
    schemes=(
        "Ideal", "Scrubbing", "Scrubbing-W0", "M-metric", "Hybrid", "TLC",
        "LWT-2", "LWT-4", "LWT-4-noconv", "Select-4:1", "Select-4:2",
    ),
    workloads=("gcc", "mcf"),
    target_requests=1_200,
    seed=42,
)


def _digest(grid) -> str:
    payload = {
        workload: {scheme: stats.to_dict() for scheme, stats in per.items()}
        for workload, per in grid.items()
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def test_sweep_output_matches_pre_refactor_pin():
    # run_sweep resolves through the execution planner, so this pins the
    # whole planner path (plan -> serial execute -> fan-out) to the
    # pre-planner serial digest.
    grid = run_sweep(PINNED_SPEC)
    assert _digest(grid) == PINNED_DIGEST


def test_event_engine_matches_pin():
    # The event-stepped oracle gives the pinned digest on its own, so the
    # pin holds for both engines and not only for the compiled kernel.
    grid = run_sweep(dataclasses.replace(PINNED_SPEC, engine="event"))
    assert _digest(grid) == PINNED_DIGEST


def test_planner_granular_cache_round_trip_matches_pin(tmp_path):
    # Cold planned run stores per-run entries; a fresh process-equivalent
    # (a plan with its own cold memo) warm run must rebuild the identical
    # grid purely from the granular cache.
    cold = run_sweep(PINNED_SPEC, ExecutionService(cache=tmp_path))
    assert _digest(cold) == PINNED_DIGEST
    plan = build_plan([PINNED_SPEC])
    results = execute_plan(plan, jobs=1, store=RunCache(tmp_path))
    assert plan.stats.units_simulated == 0
    assert plan.stats.units_disk == len(plan.units)
    assert _digest(plan.grid_for(PINNED_SPEC, results)) == PINNED_DIGEST

