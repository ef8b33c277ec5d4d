"""Tests for the run store: the on-disk RunCache and the /v1/store wire form."""

import json

from repro.core.registry import scheme_names
from repro.experiments.cache import RunCache
from repro.experiments.runner import run_sweep
from repro.experiments.spec import SimSpec
from repro.service import ExecutionService
from repro.service.store import store_entry_payload



SPEC = SimSpec(schemes=("Ideal",), workloads=("gcc",), target_requests=1_000)


def _one_stats():
    return run_sweep(SPEC)["gcc"]["Ideal"]


class TestInterface:
    def test_filesystem_store_is_the_run_cache(self, tmp_path):
        # A ``cache=`` path (or True) names the on-disk RunCache.
        store = ExecutionService(cache=tmp_path).store
        assert type(store) is RunCache
        assert store.cache_dir == tmp_path / "runs"


class TestFilesystemEntryBytes:
    def test_entry_bytes_matches_file_size(self, tmp_path):
        store = RunCache(tmp_path)
        key = SPEC.run_hash("gcc", "Ideal")
        assert store.entry_bytes(key) is None
        store.store(key, _one_stats())
        assert store.entry_bytes(key) == store.path_for(key).stat().st_size


class TestWireBytes:
    def test_memo_hit_and_disk_hit_encode_to_the_same_bytes(self, tmp_path):
        # A daemon answers GET /v1/store from its memo or from its run
        # cache; either way a key must get the same body, byte for byte.
        spec = SimSpec(
            schemes=scheme_names(), workloads=("gcc", "mcf"),
            target_requests=400,
        )
        outcome = ExecutionService(cache=tmp_path).submit([spec])
        cache = RunCache(tmp_path)
        assert len(outcome.results) == 2 * len(scheme_names())
        for key, simulated in outcome.results.items():
            loaded = cache.load(key)
            assert loaded is not None
            assert json.dumps(store_entry_payload(key, simulated)) == json.dumps(
                store_entry_payload(key, loaded)
            )
