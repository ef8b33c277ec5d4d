"""Tests for the persistent on-disk run cache (:class:`RunCache`)."""

import dataclasses
import json
import threading

import pytest

from repro.experiments.cache import RunCache
from repro.experiments.planner import build_plan, execute_plan
from repro.experiments.runner import run_sweep
from repro.experiments.spec import SimSpec
from repro.memsim.config import MemoryConfig
from repro.pcm.params import TimingParams
from repro.service import ExecutionService


SMALL = SimSpec(
    schemes=("Ideal", "Hybrid"),
    workloads=("gcc",),
    target_requests=1_200,
)

#: Stand-alone store keys; the cache serves only run-hash-shaped keys.
K1 = "1" * 64
PLAIN_KEY = "a" * 64
GZ_KEY = "b" * 64


def _flat(grid):
    return [
        (w, s, stats.to_dict())
        for w, per_scheme in grid.items()
        for s, stats in per_scheme.items()
    ]


def _sweep(cache, spec=SMALL, jobs=1):
    """Sweep ``spec`` through a service whose run store is ``cache``."""
    return ExecutionService(jobs=jobs, cache=cache).sweep(spec)


def _reload(root, spec=SMALL):
    """Read ``spec``'s grid back from a fresh :class:`RunCache`."""
    cache = RunCache(root)
    return {
        w: {s: cache.load(spec.run_hash(w, s)) for s in spec.schemes}
        for w in spec.effective_workloads()
    }


class TestSettingsKey:
    """Cache identity: the content hash covers everything a run depends on."""

    def test_stable_for_equal_settings(self):
        assert SMALL.content_hash() == SimSpec(
            schemes=("Ideal", "Hybrid"),
            workloads=("gcc",),
            target_requests=1_200,
        ).content_hash()

    def test_explicit_all_workloads_equals_default(self):
        # The default () expands to all workloads; listing them explicitly
        # must hit the same cache entries.
        default = SimSpec(schemes=("Ideal",))
        explicit = SimSpec(
            schemes=("Ideal",), workloads=default.effective_workloads()
        )
        assert default.content_hash() == explicit.content_hash()

    def test_each_sweep_parameter_changes_the_key(self):
        base = SMALL.content_hash()
        variants = [
            SimSpec(schemes=("Ideal",), workloads=("gcc",),
                    target_requests=1_200),
            SimSpec(schemes=SMALL.schemes, workloads=("mcf",),
                    target_requests=1_200),
            SimSpec(schemes=SMALL.schemes, workloads=("gcc",),
                    target_requests=2_400),
            SimSpec(schemes=SMALL.schemes, workloads=("gcc",),
                    target_requests=1_200, seed=7),
        ]
        keys = {v.content_hash() for v in variants}
        assert base not in keys and len(keys) == len(variants)

    @pytest.mark.parametrize(
        "change",
        [
            {"num_banks": 8},
            {"cancel_threshold": 0.25},
            {"write_queue_depth": 16, "write_drain_watermark": 12},
            {"timing": TimingParams(r_read_ns=120.0)},
        ],
    )
    def test_any_config_field_invalidates(self, change):
        changed = SimSpec(
            schemes=SMALL.schemes,
            workloads=SMALL.workloads,
            target_requests=SMALL.target_requests,
            config=dataclasses.replace(MemoryConfig(), **change),
        )
        assert changed.content_hash() != SMALL.content_hash()
        assert changed.run_hash("gcc", "Ideal") != SMALL.run_hash("gcc", "Ideal")

    def test_version_is_part_of_the_key(self, monkeypatch):
        # content_hash reads the package version through the spec
        # module's global.
        import repro.experiments.spec as spec_mod

        base = SMALL.run_hash("gcc", "Ideal")
        monkeypatch.setattr(spec_mod, "__version__", "0.0.0-test")
        assert SMALL.run_hash("gcc", "Ideal") != base


class TestRoundTrip:
    def test_store_then_fresh_instance_reload_bit_for_bit(self, tmp_path):
        grid = _sweep(tmp_path)
        assert _flat(grid) == _flat(_reload(tmp_path))

    def test_order_sensitive_float_sums_survive_reload(self, tmp_path):
        # dynamic_energy_pj sums by_category.values(); a store that
        # reorders the category dict changes the summation order and the
        # result by one ulp (regression: sort_keys in the cache writer).
        grid = _sweep(tmp_path)
        reloaded = _reload(tmp_path)
        for w, per_scheme in grid.items():
            for s, stats in per_scheme.items():
                assert reloaded[w][s].dynamic_energy_pj == stats.dynamic_energy_pj

    def test_run_sweep_warm_cache_skips_simulation(self, tmp_path, monkeypatch):
        _sweep(tmp_path)

        import repro.experiments.planner as planner_mod

        def explode(*_args, **_kwargs):
            raise AssertionError("warm cache must not simulate")

        monkeypatch.setattr(planner_mod, "run_units", explode)
        grid = run_sweep(SMALL, ExecutionService(cache=tmp_path))
        assert set(grid["gcc"]) == {"Ideal", "Hybrid"}

    def test_miss_on_empty_dir(self, tmp_path):
        assert RunCache(tmp_path).load(SMALL.run_hash("gcc", "Ideal")) is None

    def test_corrupt_file_is_a_miss(self, tmp_path):
        _sweep(tmp_path)
        cache = RunCache(tmp_path)
        key = SMALL.run_hash("gcc", "Hybrid")
        cache.path_for(key).write_text("{not json")
        assert cache.load(key) is None

    @pytest.mark.parametrize(
        "key",
        ["ab\0cd" + "0" * 58, "0" * 300, "..", "A" * 64],
        ids=["nul-byte", "300-chars", "dotdot", "uppercase-hex"],
    )
    def test_malformed_key_is_a_counted_miss_without_file_access(self, tmp_path, key):
        """A key that is not a run hash is a miss, never a quarantine or a
        raise, and nothing under the cache root is created or renamed."""
        _sweep(tmp_path)
        cache = RunCache(tmp_path)
        before = sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*"))
        assert cache.load(key) is None
        assert cache.counters.as_dict() == {
            "hits": 0, "misses": 1, "stale": 0, "stores": 0, "quarantined": 0,
        }
        assert sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*")) == before

    def test_clear_removes_entries(self, tmp_path):
        _sweep(tmp_path)
        cache = RunCache(tmp_path)
        n_runs = len(SMALL.schemes) * len(SMALL.workloads)
        assert cache.clear() == n_runs
        assert cache.load(SMALL.run_hash("gcc", "Ideal")) is None

    def test_stored_payload_is_json(self, tmp_path):
        cache = RunCache(tmp_path)
        cache.gzip_min_bytes = 0
        _sweep(cache)
        key = SMALL.run_hash("gcc", "Hybrid")
        payload = json.loads(RunCache(tmp_path).path_for(key).read_text())
        assert payload["key"] == key
        assert payload["stats"]["reads"] > 0


class TestCacheCounters:
    """Hit/miss/stale accounting, counted in runs (workload x scheme)."""

    N_RUNS = len(SMALL.schemes) * len(SMALL.workloads)

    def test_cold_sweep_reports_all_misses(self, tmp_path):
        cache = RunCache(tmp_path)
        _sweep(cache)
        assert cache.counters.as_dict() == {
            "hits": 0, "misses": self.N_RUNS, "stale": 0,
            "stores": self.N_RUNS, "quarantined": 0,
        }

    def test_warm_rerun_reports_all_hits(self, tmp_path):
        _sweep(tmp_path)
        fresh = RunCache(tmp_path)
        _sweep(fresh)
        assert fresh.counters.hits == self.N_RUNS
        assert fresh.counters.misses == 0
        assert fresh.counters.stores == 0

    def test_config_change_reports_misses_again(self, tmp_path):
        _sweep(tmp_path)
        changed = SimSpec(
            schemes=SMALL.schemes,
            workloads=SMALL.workloads,
            target_requests=SMALL.target_requests,
            config=dataclasses.replace(MemoryConfig(), num_banks=8),
        )
        fresh = RunCache(tmp_path)
        _sweep(fresh, changed)
        assert fresh.counters.hits == 0
        assert fresh.counters.misses == self.N_RUNS

    def test_granular_entries_survive_whole_sweep_corruption(self, tmp_path):
        # A whole-sweep file left in the root by older versions (named
        # by the sweep's content hash) is never read: the per-run
        # entries still serve every run.
        _sweep(tmp_path)
        leftover = tmp_path / f"{SMALL.content_hash()}.json"
        leftover.write_text("{not json")
        fresh = RunCache(tmp_path)
        _sweep(fresh)
        assert fresh.counters.hits == self.N_RUNS
        assert fresh.counters.misses == 0
        assert leftover.read_text() == "{not json"

    def test_corrupt_files_count_as_stale_and_missed(self, tmp_path):
        _sweep(tmp_path)
        for entry in (tmp_path / "runs").glob("*.json"):
            entry.write_text("{not json")
        fresh = RunCache(tmp_path)
        _sweep(fresh)
        assert fresh.counters.stale == self.N_RUNS
        assert fresh.counters.misses == self.N_RUNS
        assert fresh.counters.hits == 0

    def test_memo_hit_bypasses_persistent_counters(self, tmp_path):
        service = ExecutionService(cache=tmp_path)
        service.sweep(SMALL)
        before = service.store.counters.as_dict()
        service.sweep(SMALL)  # served from the in-process memo
        assert service.store.counters.as_dict() == before


class TestParallelSerialCacheEquivalence:
    def test_parallel_write_serial_read_identical(self, tmp_path):
        parallel = _sweep(tmp_path, jobs=2)
        # The serial uncached run must match what the parallel run cached.
        serial = run_sweep(SMALL)
        assert _flat(serial) == _flat(parallel) == _flat(_reload(tmp_path))


class TestConcurrentStores:
    def test_threads_storing_one_key_never_collide(self, tmp_path):
        # The serve daemon stores from its event loop and its executor
        # threads at once; every writer needs its own temp file.
        stats = run_sweep(
            SimSpec(schemes=("Ideal",), workloads=("gcc",), target_requests=400)
        )["gcc"]["Ideal"]
        cache = RunCache(tmp_path)
        cache.gzip_min_bytes = 0
        threads, stores = 4, 150
        start = threading.Barrier(threads)
        errors = []

        def writer():
            start.wait()
            for _ in range(stores):
                try:
                    cache.store(K1, stats)
                except Exception as exc:  # collected, asserted below
                    errors.append(exc)

        pool = [threading.Thread(target=writer) for _ in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        assert errors == []
        assert RunCache(tmp_path).load(K1).to_dict() == stats.to_dict()
        assert sorted(p.name for p in cache.cache_dir.iterdir()) == [K1 + ".json"]


class TestRunCacheGzip:
    """Transparent gzip compression of granular run-cache entries."""

    @pytest.fixture(scope="class")
    def one_stats(self):
        grid = run_sweep(
            SimSpec(
                schemes=("Ideal",), workloads=("gcc",), target_requests=400
            )
        )
        return grid["gcc"]["Ideal"]

    def _cache(self, tmp_path, min_bytes):
        cache = RunCache(tmp_path)
        cache.gzip_min_bytes = min_bytes
        return cache

    def test_below_threshold_stays_plain_json(self, tmp_path, one_stats):
        cache = self._cache(tmp_path, 10**9)
        path = cache.store(K1, one_stats)
        blob = path.read_bytes()
        assert blob[:1] == b"{"  # plain JSON, no gzip magic
        assert cache.load(K1).to_dict() == one_stats.to_dict()
        assert cache.entry_raw_bytes(K1) == len(blob)
        assert cache.entry_bytes(K1) == len(blob)

    def test_above_threshold_compresses_and_round_trips(
        self, tmp_path, one_stats
    ):
        cache = self._cache(tmp_path, 1)
        path = cache.store(K1, one_stats)
        blob = path.read_bytes()
        assert blob[:2] == b"\x1f\x8b"  # gzip magic
        loaded = cache.load(K1)
        assert loaded is not None
        assert loaded.to_dict() == one_stats.to_dict()
        # Raw size comes from the gzip ISIZE trailer, stored from st_size.
        raw = cache.entry_raw_bytes(K1)
        stored = cache.entry_bytes(K1)
        assert stored == len(blob)
        assert raw > stored  # run stats compress well

    def test_reload_preserves_order_sensitive_floats(
        self, tmp_path, one_stats
    ):
        # Bit-for-bit: the decompressed payload must preserve insertion
        # order so order-sensitive float sums reload to the last ulp.
        cache = self._cache(tmp_path, 1)
        cache.store(K1, one_stats)
        assert list(cache.load(K1).to_dict()) == list(one_stats.to_dict())

    def test_compressed_bytes_are_deterministic(self, tmp_path, one_stats):
        a = self._cache(tmp_path / "a", 1)
        b = self._cache(tmp_path / "b", 1)
        path_a = a.store(K1, one_stats)
        path_b = b.store(K1, one_stats)
        # mtime=0 in the gzip header: independent writers emit identical
        # bytes, so concurrent last-write-wins stores are a no-op.
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_both_formats_coexist_transparently(self, tmp_path, one_stats):
        plain = self._cache(tmp_path, 10**9)
        plain.store(PLAIN_KEY, one_stats)
        mixed = self._cache(tmp_path, 1)
        mixed.store(GZ_KEY, one_stats)
        for key in (PLAIN_KEY, GZ_KEY):
            loaded = mixed.load(key)
            assert loaded is not None
            assert loaded.to_dict() == one_stats.to_dict()

    def test_truncated_gzip_entry_is_a_miss(self, tmp_path, one_stats):
        cache = self._cache(tmp_path, 1)
        path = cache.store(K1, one_stats)
        path.write_bytes(path.read_bytes()[:20])  # truncate mid-stream
        assert cache.load(K1) is None

    def test_zero_disables_compression(self, tmp_path, one_stats):
        cache = self._cache(tmp_path, 0)
        path = cache.store(K1, one_stats)
        assert path.read_bytes()[:1] == b"{"


class TestDeterministicCacheBytes:
    def test_independent_executions_write_identical_entry_files(
        self, tmp_path
    ):
        spec = SimSpec(
            schemes=("Ideal", "Hybrid"), workloads=("gcc",),
            target_requests=300,
        )
        entries = {}
        for name in ("run-a", "run-b"):
            plan = build_plan([spec])
            execute_plan(plan, jobs=1, store=RunCache(tmp_path / name))
            runs_dir = tmp_path / name / "runs"
            entries[name] = {
                path.name: path.read_bytes()
                for path in sorted(runs_dir.glob("*.json"))
            }
        assert entries["run-a"].keys() == entries["run-b"].keys()
        assert len(entries["run-a"]) == 2
        # Byte-identical, so a concurrent last-write-wins store is a no-op.
        assert entries["run-a"] == entries["run-b"]
