"""Tests for the pluggable run-store backends (repro.service.store)."""

import pytest

from repro.experiments.cache import RunCache, RunStore
from repro.experiments.planner import build_plan, execute_plan
from repro.experiments.runner import run_sweep
from repro.experiments.spec import SimSpec
from repro.service import ExecutionService
from repro.service.store import MemoryRunStore



SPEC = SimSpec(schemes=("Ideal",), workloads=("gcc",), target_requests=1_000)


def _one_stats():
    return run_sweep(SPEC)["gcc"]["Ideal"]


class TestInterface:
    def test_filesystem_store_is_the_run_cache(self, tmp_path):
        # A ``cache=`` path (or True) names the on-disk RunCache.
        store = ExecutionService(cache=tmp_path).store
        assert type(store) is RunCache
        assert store.cache_dir == tmp_path / "runs"

    def test_backends_implement_the_abc(self, tmp_path):
        assert isinstance(RunCache(tmp_path), RunStore)
        assert isinstance(MemoryRunStore(), RunStore)

    def test_abc_is_not_instantiable(self):
        with pytest.raises(TypeError):
            RunStore()


class TestMemoryRunStore:
    def test_round_trip_is_bit_identical(self):
        stats = _one_stats()
        store = MemoryRunStore()
        key = SPEC.run_hash("gcc", "Ideal")
        store.store(key, stats)
        reloaded = store.load(key)
        assert reloaded is not None
        assert reloaded.to_dict() == stats.to_dict()
        assert store.counters.stores == 1
        assert store.counters.hits == 1

    def test_miss_counts(self):
        store = MemoryRunStore()
        assert store.load("deadbeef") is None
        assert store.counters.misses == 1

    def test_unparseable_entry_drops_and_counts_stale(self):
        store = MemoryRunStore()
        store._entries["bad"] = "{not json"
        assert store.load("bad") is None
        assert store.counters.stale == 1
        assert len(store) == 0

    def test_entry_bytes_and_clear(self):
        store = MemoryRunStore()
        key = SPEC.run_hash("gcc", "Ideal")
        assert store.entry_bytes(key) is None
        store.store(key, _one_stats())
        size = store.entry_bytes(key)
        assert size is not None and size > 0
        assert store.clear() == 1
        assert len(store) == 0

    def test_planner_accepts_memory_store(self):
        store = MemoryRunStore()
        plan = build_plan([SPEC])
        execute_plan(plan, jobs=1, store=store)
        assert plan.stats.units_simulated == 1
        assert len(store) == 1
        # Second pass (each plan has its own cold memo) resolves from the
        # store.
        warm = build_plan([SPEC])
        execute_plan(warm, jobs=1, store=store)
        assert warm.stats.units_simulated == 0
        assert warm.stats.units_disk == 1


class TestFilesystemEntryBytes:
    def test_entry_bytes_matches_file_size(self, tmp_path):
        store = RunCache(tmp_path)
        key = SPEC.run_hash("gcc", "Ideal")
        assert store.entry_bytes(key) is None
        store.store(key, _one_stats())
        assert store.entry_bytes(key) == store.path_for(key).stat().st_size
