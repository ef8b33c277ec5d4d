"""Tests for the run-level execution planner.

Covers cross-artifact deduplication (asserted via the ``plan.*``
counters), the memo → run store → simulate resolution chain, and
work-stealing determinism across job counts.
"""

import pytest

from repro.experiments.cache import RunCache
from repro.experiments.planner import (
    DEFAULT_RUN_MEMO_CAPACITY,
    PlanStats,
    RunMemo,
    build_plan,
    execute_plan,
    lookup_cached,
    plan_units,
)
from repro.experiments.runner import run_sweep
from repro.experiments.spec import SimSpec
from repro.obs import MetricsRegistry, Telemetry, Tracer
from repro.service import ExecutionService


SMALL = SimSpec(
    schemes=("Ideal", "Hybrid"),
    workloads=("gcc", "mcf"),
    target_requests=1_000,
)

#: Overlaps SMALL in (gcc, Ideal) and (gcc, Hybrid); adds (gcc, LWT-4).
OVERLAPPING = SimSpec(
    schemes=("Ideal", "Hybrid", "LWT-4"),
    workloads=("gcc",),
    target_requests=1_000,
)


def _flat(grid):
    return [
        (w, s, stats.to_dict())
        for w, per_scheme in grid.items()
        for s, stats in per_scheme.items()
    ]


class TestPlanning:
    def test_units_cover_the_grid_in_canonical_order(self):
        units = plan_units(SMALL)
        assert [(u.workload, u.scheme) for u in units] == [
            ("gcc", "Ideal"), ("gcc", "Hybrid"),
            ("mcf", "Ideal"), ("mcf", "Hybrid"),
        ]

    def test_unit_keys_are_sub_spec_hashes(self):
        unit = plan_units(SMALL)[0]
        assert unit.key == SMALL.run_hash("gcc", "Ideal")
        assert unit.spec == SMALL.run_subspec("gcc", "Ideal")

    def test_shared_pairs_hash_equal_across_specs(self):
        assert SMALL.run_hash("gcc", "Ideal") == OVERLAPPING.run_hash(
            "gcc", "Ideal"
        )

    def test_build_plan_dedupes_across_specs(self):
        plan = build_plan([SMALL, OVERLAPPING])
        assert plan.stats.units_total == 7  # 4 + 3 requested
        assert plan.stats.units_deduped == 2  # two shared pairs folded
        assert len(plan.units) == 5

    def test_identical_specs_fold_completely(self):
        plan = build_plan([SMALL, SMALL])
        assert plan.stats.units_deduped == len(plan_units(SMALL))
        assert len(plan.units) == len(plan_units(SMALL))


class TestSpecHash:
    """``plan_units`` is memoized on specs, so a spec hashes once."""

    def test_equal_specs_hash_equal_once(self):
        twin = SimSpec(schemes=("Ideal", "Hybrid"), workloads=("gcc", "mcf"),
                       target_requests=1_000)
        assert twin == SMALL and hash(twin) == hash(SMALL)
        assert hash(twin) == hash(twin)
        assert repr(twin) == repr(SMALL)
        assert twin.content_hash() == SMALL.content_hash()

    def test_unpickled_spec_hits_plan_units_under_another_hash_seed(self):
        """The cached hash is never pickled: string hashes are salted per
        process, and pool and spawn workers unpickle specs."""
        import os
        import pickle
        import subprocess
        import sys
        from pathlib import Path

        import repro

        hash(SMALL)
        assert "_hash" in vars(SMALL)
        blob = pickle.dumps(SMALL)
        assert "_hash" not in vars(pickle.loads(blob))
        code = (
            "import pickle, sys\n"
            "from repro.experiments.planner import plan_units\n"
            "from repro.experiments.spec import SimSpec\n"
            "spec = pickle.loads(sys.stdin.buffer.read())\n"
            "plan_units(SimSpec(schemes=('Ideal', 'Hybrid'), workloads=('gcc', 'mcf'),"
            " target_requests=1_000))\n"
            "hits = plan_units.cache_info().hits\n"
            "plan_units(spec)\n"
            "print(plan_units.cache_info().hits - hits)\n"
        )
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = "2" if env.get("PYTHONHASHSEED") == "1" else "1"
        src = str(Path(repro.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        done = subprocess.run([sys.executable, "-c", code], input=blob, env=env,
                              capture_output=True, timeout=120)
        assert done.returncode == 0, done.stderr.decode()
        assert done.stdout.decode().strip() == "1"


class TestCrossArtifactDedup:
    def test_shared_units_simulate_once_via_plan_counters(self):
        tele = Telemetry(tracer=Tracer(), metrics=MetricsRegistry())
        plan = build_plan([SMALL, OVERLAPPING])
        execute_plan(plan, jobs=1, telemetry=tele)
        counters = tele.metrics.to_dict()["counters"]
        assert counters["plan.units_total"] == 7
        assert counters["plan.units_deduped"] == 2
        assert counters["plan.units_simulated"] == 5
        assert counters["plan.units_cached"] == 0

    def test_planned_prewarm_makes_second_artifact_free(self):
        memo = RunMemo()
        plan = build_plan([SMALL, OVERLAPPING])
        execute_plan(plan, jobs=1, memo=memo)
        # Both artifacts' sweeps now resolve from the shared run memo.
        for spec in (SMALL, OVERLAPPING):
            follow_up = build_plan([spec])
            execute_plan(follow_up, jobs=1, memo=memo)
            assert follow_up.stats.units_simulated == 0
            assert follow_up.stats.units_memo == len(follow_up.units)

    def test_fan_out_grids_match_independent_sweeps(self):
        plan = build_plan([SMALL, OVERLAPPING])
        results = execute_plan(plan, jobs=1)
        shared_grid = plan.grid_for(SMALL, results)
        direct = run_sweep(SMALL)
        assert _flat(shared_grid) == _flat(direct)


class TestRunCacheStore:
    def test_store_then_load_round_trips(self, tmp_path):
        grid = run_sweep(SMALL)
        store = RunCache(tmp_path)
        key = SMALL.run_hash("gcc", "Ideal")
        store.store(key, grid["gcc"]["Ideal"])
        reloaded = RunCache(tmp_path).load(key)
        assert reloaded is not None
        assert reloaded.to_dict() == grid["gcc"]["Ideal"].to_dict()

    def test_miss_and_clear(self, tmp_path):
        store = RunCache(tmp_path)
        assert store.load("deadbeef") is None
        assert store.counters.misses == 1
        grid = run_sweep(SMALL)
        store.store(SMALL.run_hash("gcc", "Ideal"), grid["gcc"]["Ideal"])
        assert store.clear() == 1

    def test_corrupt_entry_counts_stale(self, tmp_path):
        store = RunCache(tmp_path)
        grid = run_sweep(SMALL)
        key = SMALL.run_hash("gcc", "Ideal")
        store.store(key, grid["gcc"]["Ideal"])
        store.path_for(key).write_text("{not json")
        fresh = RunCache(tmp_path)
        assert fresh.load(key) is None
        assert fresh.counters.stale == 1


class TestWorkStealingDeterminism:
    @pytest.mark.parametrize("jobs", [2, 4])
    def test_results_identical_across_job_counts(self, jobs):
        serial = run_sweep(SMALL)
        parallel = run_sweep(SMALL, ExecutionService(jobs=jobs, cache=False))
        assert _flat(serial) == _flat(parallel)


SINGLE = SimSpec(schemes=("Ideal",), workloads=("gcc",), target_requests=1_000)


class TestPlanEdgeCases:
    def test_empty_plan_executes_to_empty_results(self):
        plan = build_plan([])
        assert plan.units == ()
        assert execute_plan(plan, jobs=1) == {}
        assert plan.stats.as_dict()["units_total"] == 0
        assert plan.stats.units_cached == 0

    def test_single_unit_plan_stats(self):
        plan = build_plan([SINGLE])
        results = execute_plan(plan, jobs=1)
        stats = plan.stats.as_dict()
        assert stats["units_total"] == 1
        assert stats["units_simulated"] == 1
        assert stats["units_deduped"] == 0
        grid = plan.grid_for(SINGLE, results)
        assert list(grid) == ["gcc"]
        assert list(grid["gcc"]) == ["Ideal"]

    def test_all_cached_plan_reports_zero_simulated(self):
        memo = RunMemo()
        execute_plan(build_plan([SMALL]), jobs=1, memo=memo)
        warm = build_plan([SMALL])
        execute_plan(warm, jobs=1, memo=memo)
        stats = warm.stats.as_dict()
        assert stats["units_simulated"] == 0
        assert stats["units_cached"] == stats["units_total"] == len(warm.units)
        assert stats["units_memo"] == len(warm.units)

    def test_grid_for_subset_spec_of_larger_plan(self):
        plan = build_plan([SMALL, OVERLAPPING])
        results = execute_plan(plan, jobs=1)
        grid = plan.grid_for(OVERLAPPING, results)
        assert [(w, s) for w in grid for s in grid[w]] == [
            ("gcc", "Ideal"), ("gcc", "Hybrid"), ("gcc", "LWT-4"),
        ]

    def test_as_dict_keys_are_stable(self):
        # readduo report and the CI smokes key off these names.
        assert set(PlanStats().as_dict()) == {
            "units_total", "units_cached", "units_simulated",
            "units_deduped", "units_memo", "units_disk",
            "stale", "quarantined", "schedule_wall_s",
        }


class TestRunMemoLRU:
    def test_default_capacity(self):
        assert RunMemo().capacity == DEFAULT_RUN_MEMO_CAPACITY

    def test_capacity_bounds_the_memo(self):
        memo = RunMemo(2)
        # 4 units through a cap of 2
        execute_plan(build_plan([SMALL]), jobs=1, memo=memo)
        assert len(memo) == 2

    def test_eviction_falls_back_to_disk_not_resimulation(self, tmp_path):
        memo = RunMemo(1)  # keeps only the last of the 4 runs
        execute_plan(
            build_plan([SMALL]), jobs=1, store=RunCache(tmp_path), memo=memo
        )
        warm = build_plan([SMALL])
        execute_plan(warm, jobs=1, store=RunCache(tmp_path), memo=memo)
        assert warm.stats.units_simulated == 0
        assert warm.stats.units_disk == 3
        assert warm.stats.units_memo == 1

    def test_hit_refreshes_recency(self):
        memo = RunMemo(4)
        execute_plan(build_plan([SMALL]), jobs=1, memo=memo)
        # Touch the oldest entry (gcc/Ideal), then push one new unit in:
        # the refreshed entry must survive and the true LRU go.
        execute_plan(build_plan([SINGLE]), jobs=1, memo=memo)
        lwt = SimSpec(
            schemes=("LWT-4",), workloads=("gcc",), target_requests=1_000
        )
        execute_plan(build_plan([lwt]), jobs=1, memo=memo)
        probe = build_plan([SINGLE])
        execute_plan(probe, jobs=1, memo=memo)
        assert probe.stats.units_memo == 1

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            RunMemo(0)

    def test_plan_without_memo_keeps_nothing(self):
        execute_plan(build_plan([SINGLE]), jobs=1)
        again = build_plan([SINGLE])
        execute_plan(again, jobs=1)
        assert again.stats.units_simulated == 1


class TestPlanCacheHitCounter:
    def test_warm_sweep_counts_cache_hits(self, tmp_path):
        ExecutionService(cache=tmp_path).sweep(SMALL)
        tele = Telemetry(tracer=Tracer(), metrics=MetricsRegistry())
        ExecutionService(cache=tmp_path, telemetry=tele).sweep(SMALL)
        counters = tele.metrics.to_dict()["counters"]
        n_runs = len(SMALL.schemes) * len(SMALL.workloads)
        assert counters["plan.units_cached"] == n_runs
        assert counters["plan.units_simulated"] == 0


class TestLeaseBatch:
    """Coordinator batch selection: workload affinity, bounded size."""

    def test_empty_pending_gives_empty_batch(self):
        from repro.experiments.planner import lease_batch

        assert lease_batch([], 4) == []

    def test_max_units_must_be_positive(self):
        from repro.experiments.planner import lease_batch

        with pytest.raises(ValueError):
            lease_batch(build_plan([SMALL]).units, 0)

    def test_prefers_anchor_workload_then_pads_oldest(self):
        from repro.experiments.planner import lease_batch

        units = build_plan([SMALL]).units  # gcc x2 then mcf x2
        batch = lease_batch(units, 3)
        assert len(batch) == 3
        anchor = units[0].workload
        # Both anchor-workload units come first (trace-memo locality),
        # then the oldest remaining unit pads the batch.
        assert [u.workload for u in batch[:2]] == [anchor, anchor]
        assert batch[2].workload != anchor

    def test_cap_respected(self):
        from repro.experiments.planner import lease_batch

        units = build_plan([SMALL]).units
        assert len(lease_batch(units, 1)) == 1
        assert len(lease_batch(units, 100)) == len(units)


class TestLookupCached:
    def test_memo_then_disk_tiers(self, tmp_path):
        service = ExecutionService(cache=tmp_path)
        service.sweep(SMALL)  # warm memo + disk
        units = build_plan([SMALL]).units
        store = RunCache(tmp_path)

        cached, tiers = lookup_cached(units, service.memo, store)
        assert set(cached) == {u.key for u in units}
        assert all(tier == "memo" for tier in tiers.values())

        memo = RunMemo()
        cached, tiers = lookup_cached(units, memo, store)
        assert set(cached) == {u.key for u in units}
        assert all(tier == "disk" for tier in tiers.values())
        # Disk hits are promoted: a second lookup is memo-tier.
        _cached, tiers = lookup_cached(units, memo, store)
        assert all(tier == "memo" for tier in tiers.values())

    def test_unresolved_units_are_absent(self):
        units = build_plan([SMALL]).units
        cached, tiers = lookup_cached(units, RunMemo(), None)
        assert cached == {} and tiers == {}
