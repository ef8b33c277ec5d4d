"""Tests for the ExecutionService facade (repro.service.execution)."""

import json

import pytest

from repro.experiments import EXPERIMENT_SPECS, EXPERIMENTS, SWEEP_EXPERIMENTS
from repro.experiments.cache import RunCache, artifact_key
from repro.experiments.planner import DEFAULT_RUN_MEMO_CAPACITY
from repro.experiments.runner import run_sweep
from repro.experiments.spec import SimSpec
from repro.service import ExecutionService, MemoryRunStore, sweep_payload


SPEC = SimSpec(
    schemes=("Ideal", "Hybrid"), workloads=("gcc",), target_requests=1_000
)
OTHER = SimSpec(
    schemes=("Ideal", "LWT-4"), workloads=("gcc",), target_requests=1_000
)


def _flat(grid):
    return [
        (w, s, stats.to_dict())
        for w, per_scheme in grid.items()
        for s, stats in per_scheme.items()
    ]


class TestSubmit:
    def test_submit_dedupes_across_specs(self):
        service = ExecutionService(cache=False)
        outcome = service.submit([SPEC, OTHER])
        assert outcome.stats.units_total == 4
        assert outcome.stats.units_deduped == 1  # shared (gcc, Ideal)
        assert outcome.stats.units_simulated == 3
        assert set(outcome.results) == {unit.key for unit in outcome.plan.units}

    def test_grid_for_matches_direct_sweep(self):
        service = ExecutionService(cache=False)
        outcome = service.submit([SPEC])
        grid = outcome.grid_for(SPEC)
        assert _flat(grid) == _flat(run_sweep(SPEC))

    def test_resubmit_is_served_from_memo(self):
        service = ExecutionService(cache=False)
        service.submit([SPEC])
        warm = service.submit([SPEC])
        assert warm.stats.units_simulated == 0
        assert warm.stats.units_memo == 2

    def test_explicit_store_backend(self):
        store = MemoryRunStore()
        service = ExecutionService(cache=store)
        service.submit([SPEC])
        assert len(store) == 2
        service.clear_memo()
        warm = service.submit([SPEC])
        assert warm.stats.units_simulated == 0
        assert warm.stats.units_disk == 2

    def test_fresh_service_simulates_a_unit_another_service_ran(self):
        ExecutionService(cache=False).submit([SPEC])
        fresh = ExecutionService(cache=False).submit([SPEC])
        assert fresh.stats.units_memo == 0
        assert fresh.stats.units_simulated == 2

    def test_rejects_nonpositive_jobs(self):
        with pytest.raises(ValueError):
            ExecutionService(jobs=0)


class TestSweep:
    def test_sweep_equals_run_sweep_byte_for_byte(self, tmp_path):
        service = ExecutionService(cache=tmp_path)
        via_service = sweep_payload(SPEC, service.sweep(SPEC))
        direct = sweep_payload(SPEC, run_sweep(SPEC))
        assert (
            json.dumps(via_service, indent=2, sort_keys=True)
            == json.dumps(direct, indent=2, sort_keys=True)
        )

    def test_sweep_with_custom_store_matches_filesystem_path(self, tmp_path):
        with_store = ExecutionService(cache=MemoryRunStore())
        grid_store = with_store.sweep(SPEC)
        plain = ExecutionService(cache=False)
        grid_plain = plain.sweep(SPEC)
        assert _flat(grid_store) == _flat(grid_plain)

    def test_cache_property_reflects_configuration(self, tmp_path):
        # ``cache=`` names the run store: none, a store, or a root path.
        assert ExecutionService(cache=False).store is None
        assert ExecutionService(cache=None).store is None
        explicit = RunCache(tmp_path)
        assert ExecutionService(cache=explicit).store is explicit
        assert ExecutionService(
            cache=str(tmp_path)
        ).store.cache_dir == explicit.cache_dir


class TestSession:
    def test_run_experiment_passes_itself_to_sweep_drivers(self, monkeypatch):
        calls = {}

        def fake_driver(**kwargs):
            calls.update(kwargs)
            return "result"

        monkeypatch.setitem(EXPERIMENTS, "fake-sweep", fake_driver)
        monkeypatch.setitem(EXPERIMENT_SPECS, "fake-sweep", lambda **kw: [SPEC])
        service = ExecutionService(cache=False)
        assert service.run_experiment("fake-sweep", seed=3) == "result"
        assert calls == {"seed": 3, "service": service}

    def test_run_experiment_dispatches_known_driver(self, monkeypatch):
        calls = {}

        def fake_driver(**kwargs):
            calls.update(kwargs or {"ran": True})
            return "result"

        monkeypatch.setitem(EXPERIMENTS, "fake-exp", fake_driver)
        service = ExecutionService(cache=False)
        assert service.run_experiment("fake-exp") == "result"
        with pytest.raises(KeyError):
            service.run_experiment("no-such-experiment")


class TestPrewarm:
    def test_prewarm_unions_and_executes_collectors(self, monkeypatch):
        monkeypatch.setitem(EXPERIMENT_SPECS, "fake-a", lambda **kw: [SPEC])
        monkeypatch.setitem(EXPERIMENT_SPECS, "fake-b", lambda **kw: [OTHER])
        service = ExecutionService(cache=False)
        plan = service.prewarm(["fake-a", "fake-b"])
        assert plan is not None
        assert plan.stats.units_deduped == 1
        assert plan.stats.units_simulated == 3
        # The figure drivers' own sweeps now resolve from the memo.
        warm = service.submit([SPEC])
        assert warm.stats.units_simulated == 0

    def test_prewarm_quick_requests_reaches_sweep_collectors(self, monkeypatch):
        seen = {}

        def collector(**kwargs):
            seen.update(kwargs)
            return [SPEC.quick(kwargs.get("target_requests", 1_000))]

        import repro.experiments as experiments_mod

        monkeypatch.setitem(EXPERIMENT_SPECS, "fake-sweep", collector)
        monkeypatch.setattr(
            experiments_mod,
            "SWEEP_EXPERIMENTS",
            SWEEP_EXPERIMENTS + ("fake-sweep",),
        )
        service = ExecutionService(cache=False)
        assert service.prewarm(["fake-sweep"], quick_requests=1_000) is not None
        assert seen == {"target_requests": 1_000}

    def test_prewarm_ignores_unknown_names(self):
        service = ExecutionService(cache=False)
        assert service.prewarm(["not-a-collector"]) is None


class TestMemoPolicy:
    def test_memo_capacity_applies_and_restores_on_close(self):
        with ExecutionService(cache=False, memo_capacity=3) as service:
            assert service.memo.capacity == 3
            service.submit([SPEC, OTHER])  # 3 distinct units
            assert service.memo_size() == 3
        assert service.memo_size() == 0
        assert ExecutionService(cache=False).memo.capacity == (
            DEFAULT_RUN_MEMO_CAPACITY
        )

    @pytest.mark.parametrize("first_closed", ["small", "large"])
    def test_overlapping_capacities_stay_per_service(self, first_closed):
        small = ExecutionService(cache=False, memo_capacity=1)
        large = ExecutionService(cache=False, memo_capacity=2)
        small.submit([SPEC])
        large.submit([SPEC])
        assert (small.memo_size(), large.memo_size()) == (1, 2)
        order = [small, large] if first_closed == "small" else [large, small]
        for service in order:
            service.close()
        assert (small.memo_size(), large.memo_size()) == (0, 0)
        after = ExecutionService(cache=False)
        assert after.memo.capacity == DEFAULT_RUN_MEMO_CAPACITY
        assert after.memo_size() == 0

    def test_close_is_idempotent(self):
        service = ExecutionService(cache=False, memo_capacity=5)
        service.submit([SPEC])
        service.close()
        service.close()
        assert service.memo_size() == 0

    def test_clear_memo_drops_entries(self):
        service = ExecutionService(cache=False)
        service.submit([SPEC])
        assert service.memo_size() >= 2
        service.clear_memo()
        assert service.memo_size() == 0

    def test_describe_snapshot(self, tmp_path):
        snapshot = ExecutionService(jobs=2, cache=tmp_path).describe()
        assert snapshot["jobs"] == 2
        assert snapshot["cache_dir"] == str(tmp_path)
        assert snapshot["store"] == "RunCache"
        assert isinstance(snapshot["memo_runs"], int)
        in_memory = ExecutionService(cache=MemoryRunStore()).describe()
        assert in_memory["cache_dir"] is None
        assert in_memory["store"] == "MemoryRunStore"


class _Rendered:
    def __init__(self, text):
        self.text = text

    def render(self):
        return self.text


class TestRenderExperiment:
    """Closed-form artifacts come back from a RunCache as rendered text."""

    def test_miss_computes_and_stores_then_the_store_serves(self, tmp_path):
        expected = ExecutionService(cache=False).run_experiment("table1").render()
        first = ExecutionService(cache=tmp_path)
        assert first.render_experiment("table1") == expected
        assert first.store.artifact_counters.stores == 1
        warm = ExecutionService(cache=tmp_path)
        assert warm.render_experiment("table1") == expected
        assert warm.store.artifact_counters.as_dict() == {
            "hits": 1, "misses": 0, "stale": 0, "stores": 0, "quarantined": 0,
        }
        assert warm.store.counters.as_dict()["misses"] == 0

    @pytest.mark.parametrize("damage", ["truncated", "wrong-key"])
    def test_unusable_entry_is_recomputed_and_rewritten(self, tmp_path, damage):
        expected = ExecutionService(cache=False).run_experiment("table1").render()
        store = RunCache(tmp_path)
        path = store.artifact_path(artifact_key("table1"))
        if damage == "truncated":
            store.store_artifact(artifact_key("table1"), "table1", expected)
            path.write_bytes(path.read_bytes()[:-7])
        else:
            other = store.store_artifact(artifact_key("table2"), "table2", "t2")
            path.write_bytes(other.read_bytes())
        service = ExecutionService(cache=RunCache(tmp_path))
        assert service.render_experiment("table1") == expected
        assert service.store.artifact_counters.quarantined == 1
        assert service.store.artifact_counters.stores == 1
        assert path.with_name(path.name + ".bad").exists()
        assert RunCache(tmp_path).load_artifact(artifact_key("table1")) == expected

    def test_no_cache_writes_nothing(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main

        root = tmp_path / "cache"
        monkeypatch.setenv("READDUO_SWEEP_CACHE", str(root))
        assert main(["run", "table1", "table8", "--no-cache"]) == 0
        assert capsys.readouterr().out.startswith("== table1:")
        assert not root.exists()

    def test_hand_set_driver_is_called_not_served(self, tmp_path, monkeypatch):
        store = RunCache(tmp_path)
        store.store_artifact(artifact_key("table3"), "table3", "stored")
        calls = []

        def stand_in(**kwargs):
            calls.append(kwargs)
            return _Rendered("stand-in")

        with monkeypatch.context() as patch:
            patch.setitem(EXPERIMENTS, "table3", stand_in)
            service = ExecutionService(cache=store)
            assert service.render_experiment("table3") == "stand-in"
            assert calls == [{}]
            assert store.artifact_counters.hits == 0
        # Setting the located driver back serves the store again.
        assert EXPERIMENTS.located("table3")
        assert ExecutionService(cache=store).render_experiment("table3") == "stored"

    def test_other_stores_and_arguments_always_compute(self, tmp_path, monkeypatch):
        calls = []

        def driver(**kwargs):
            calls.append(kwargs)
            return _Rendered("computed")

        monkeypatch.setitem(EXPERIMENTS, "fake-closed-form", driver)
        assert not EXPERIMENTS.located("fake-closed-form")
        assert ExecutionService(cache=MemoryRunStore()).render_experiment(
            "fake-closed-form"
        ) == "computed"
        store = RunCache(tmp_path)
        store.store_artifact(artifact_key("table8"), "table8", "stored")
        assert ExecutionService(cache=store).render_experiment("table8") == "stored"
        assert calls == [{}]
