"""Tests for the run-provenance ledger (repro.obs.ledger).

Covers the ISSUE-mandated behaviours: one record per planned run unit
with resolution tier and provenance, schema-valid JSONL, determinism
modulo timing, and the observes-never-perturbs contract (identical
RunStats and unchanged sweep content with a ledger attached).
"""

import json

import pytest

from repro.core.registry import make_policy
from repro.core.policies import PolicyContext
from repro.experiments.cache import RunCache
from repro.experiments.planner import RunMemo, build_plan, execute_plan
from repro.experiments.spec import SimSpec
from repro.memsim.config import MemoryConfig
from repro.memsim.engine import simulate
from repro.obs import MetricsRegistry, Telemetry, Tracer
from repro.obs.ledger import LEDGER_RECORD_KIND, RunLedger
from repro.obs.schema import load_schema, validate_jsonl
from repro.traces.generator import generate_trace
from repro.traces.spec import instructions_for_requests, workload

SMALL = SimSpec(
    schemes=("Ideal", "Hybrid"),
    workloads=("gcc", "mcf"),
    target_requests=1_000,
)

#: Record fields that legitimately vary between byte-identical runs.
TIMING_FIELDS = ("t_s", "wall_s", "pid")



def _ledger_records(path):
    return [
        json.loads(line)
        for line in path.read_text().splitlines()
        if line.strip()
    ]


def _run_with_ledger(path, jobs=1, store=None, memo=None):
    tele = Telemetry(ledger=RunLedger(path))
    plan = build_plan([SMALL])
    results = execute_plan(
        plan, jobs=jobs, telemetry=tele, store=store, memo=memo
    )
    tele.ledger.close()
    return _ledger_records(path), results


class TestRunLedger:
    def test_open_is_lazy_and_records_accumulate(self, tmp_path):
        path = tmp_path / "sub" / "ledger.jsonl"
        ledger = RunLedger(path)
        assert not path.exists()  # constructing never touches the fs
        plan = ledger.begin_plan()
        ledger.record(plan=plan, run_hash="h1", workload="mcf",
                      scheme="Hybrid", tier="simulated", engine="batch")
        ledger.close()
        # A second ledger instance appends to the same file.
        with RunLedger(path) as again:
            again.record(plan=again.begin_plan(), run_hash="h2",
                         workload="gcc", scheme="Ideal", tier="memo",
                         engine="batch")
        records = _ledger_records(path)
        assert [r["run_hash"] for r in records] == ["h1", "h2"]
        assert all(r["kind"] == LEDGER_RECORD_KIND for r in records)
        assert ledger.records_written == 1

    def test_begin_plan_indexes_from_one(self, tmp_path):
        ledger = RunLedger(tmp_path / "l.jsonl")
        assert ledger.begin_plan() == 1
        assert ledger.begin_plan() == 2


class TestExecutePlanLedger:
    def test_cold_run_records_simulated_with_provenance(self, tmp_path):
        records, _ = _run_with_ledger(tmp_path / "cold.jsonl", jobs=1)
        plan = build_plan([SMALL])
        assert len(records) == len(plan.units)
        assert [r["run_hash"] for r in records] == [u.key for u in plan.units]
        for record in records:
            assert record["tier"] == "simulated"
            assert record["engine"] == "batch"
            assert record["fastpath"] in ("speculated", "fallback", "no_native")
            assert record["wall_s"] > 0.0
            assert record["pid"] > 0

    def test_warm_run_records_memo_tier(self, tmp_path):
        memo = RunMemo()
        _run_with_ledger(tmp_path / "cold.jsonl", jobs=1, memo=memo)
        records, _ = _run_with_ledger(tmp_path / "warm.jsonl", jobs=1, memo=memo)
        assert records and all(r["tier"] == "memo" for r in records)
        assert all(r["wall_s"] is None for r in records)

    def test_disk_tier_records_cached_bytes(self, tmp_path):
        cache_root = tmp_path / "cache"
        records, _ = _run_with_ledger(
            tmp_path / "cold.jsonl", jobs=1, store=RunCache(cache_root)
        )
        # The cold run stored granular entries; their sizes are recorded.
        assert all(r["cached_bytes"] > 0 for r in records)
        warm, _ = _run_with_ledger(
            tmp_path / "warm.jsonl", jobs=1, store=RunCache(cache_root)
        )
        assert all(r["tier"] == "disk" for r in warm)
        assert all(r["cached_bytes"] > 0 for r in warm)

    @pytest.mark.parametrize(
        "scheme, faults, reason",
        [
            ("Hybrid", None, "ok"),
            ("Select-4:2+trunc", None, "ineligible"),
            ("Hybrid", {"stuck_line_rate": 0.01}, "faults"),
        ],
        ids=["kernel", "ineligible", "faults"],
    )
    def test_record_says_why_a_unit_left_the_kernel(
        self, tmp_path, scheme, faults, reason
    ):
        path = tmp_path / "ledger.jsonl"
        spec = SimSpec(
            schemes=(scheme,), workloads=("mcf",), target_requests=1_000,
            faults=faults,
        )
        tele = Telemetry(ledger=RunLedger(path))
        execute_plan(build_plan([spec]), telemetry=tele)
        tele.ledger.close()
        (record,) = _ledger_records(path)
        assert record["fastpath_reason"] == reason
        assert record["fastpath"] == ("speculated" if reason == "ok" else "fallback")
        schema = load_schema("ledger")
        assert validate_jsonl(path.read_text().splitlines(), schema) == []

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_schema_valid_jsonl(self, tmp_path, jobs):
        path = tmp_path / "ledger.jsonl"
        _run_with_ledger(path, jobs=jobs)
        schema = load_schema("ledger")
        assert validate_jsonl(path.read_text().splitlines(), schema) == []

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_deterministic_modulo_timing(self, tmp_path, jobs):
        first, _ = _run_with_ledger(tmp_path / "a.jsonl", jobs=jobs)
        second, _ = _run_with_ledger(tmp_path / "b.jsonl", jobs=jobs)

        def strip(records):
            return [
                {k: v for k, v in r.items() if k not in TIMING_FIELDS}
                for r in records
            ]

        assert strip(first) == strip(second)


class TestObservesNeverPerturbs:
    def test_instrumented_results_equal_uninstrumented(self, tmp_path):
        plan = build_plan([SMALL])
        plain = execute_plan(plan, jobs=1)
        tele = Telemetry(
            tracer=Tracer(),
            metrics=MetricsRegistry(),
            ledger=RunLedger(tmp_path / "l.jsonl"),
        )
        instrumented = execute_plan(build_plan([SMALL]), jobs=1, telemetry=tele)
        tele.ledger.close()
        assert plain.keys() == instrumented.keys()
        for key in plain:
            assert plain[key].to_dict() == instrumented[key].to_dict()

    def test_ledger_state_never_enters_content_hash(self, tmp_path):
        # Attaching a ledger must not move any run hash: the plan keys
        # (content identity of cached artifacts) are telemetry-blind.
        plan = build_plan([SMALL])
        tele = Telemetry(ledger=RunLedger(tmp_path / "l.jsonl"))
        execute_plan(plan, jobs=1, telemetry=tele)
        tele.ledger.close()
        assert [u.key for u in plan.units] == [
            u.key for u in build_plan([SMALL]).units
        ]


class TestExploreScope:
    """Explore provenance fields (candidate / rung / budget) on records."""

    def test_scope_stamps_explore_fields(self, tmp_path):
        path = tmp_path / "l.jsonl"
        with RunLedger(path) as ledger:
            plan = ledger.begin_plan()
            with ledger.explore_scope(
                rung=1, budget=600, candidates={"h1": "LWT-2|E8|S640|base"}
            ):
                ledger.record(plan=plan, run_hash="h1", workload="mcf",
                              scheme="LWT-2", tier="simulated", engine="batch")
                # Baseline units carry no candidate but keep rung/budget.
                ledger.record(plan=plan, run_hash="h9", workload="mcf",
                              scheme="TLC", tier="simulated", engine="batch")
            ledger.record(plan=plan, run_hash="h2", workload="mcf",
                          scheme="TLC", tier="memo", engine="batch")
        inside, baseline, outside = _ledger_records(path)
        assert inside["candidate"] == "LWT-2|E8|S640|base"
        assert inside["rung"] == 1 and inside["budget"] == 600
        assert baseline["candidate"] is None
        assert baseline["rung"] == 1 and baseline["budget"] == 600
        # Outside a scope the fields are absent (not null), so ledgers
        # written before the explorer existed stay shape-identical.
        assert "candidate" not in outside and "rung" not in outside
        schema = load_schema("ledger")
        assert validate_jsonl(path.read_text().splitlines(), schema) == []

    def test_scope_does_not_nest(self, tmp_path):
        ledger = RunLedger(tmp_path / "l.jsonl")
        with ledger.explore_scope(rung=0, budget=100, candidates={}):
            with pytest.raises(RuntimeError):
                with ledger.explore_scope(rung=1, budget=200, candidates={}):
                    pass  # pragma: no cover

    def test_real_exploration_writes_schema_valid_provenance(self, tmp_path):
        from repro.explore import ExploreSpace, LocalExploreBackend, explore
        from repro.service import ExecutionService

        path = tmp_path / "explore.jsonl"
        tele = Telemetry(ledger=RunLedger(path))
        space = ExploreSpace(
            schemes=("LWT-2", "Select-4:2"), workload="gcc", seed=5
        )
        with ExecutionService(
            jobs=1, cache=str(tmp_path / "cache"), telemetry=tele
        ) as service:
            result = explore(
                space,
                400,
                base_budget=200,
                backend=LocalExploreBackend(service),
                telemetry=tele,
            )
        tele.ledger.close()
        records = _ledger_records(path)
        schema = load_schema("ledger")
        assert validate_jsonl(path.read_text().splitlines(), schema) == []
        assert all("rung" in r and "budget" in r for r in records)
        assert {r["budget"] for r in records} == set(result.budgets)
        candidate_ids = {r["candidate"] for r in records} - {None}
        assert candidate_ids <= {c.cid for c in space.candidates()}
        baseline = [r for r in records if r["candidate"] is None]
        assert {r["scheme"] for r in baseline} == {"TLC", "Ideal"}


class TestFastpathCounters:
    """fastpath.* counters are execution-layer, one per simulated unit.

    They deliberately do NOT live in the engine: engine-level telemetry
    must stay bit-identical between the batch kernel and the event
    oracle (tests/test_batch_equivalence.py), and only the batch kernel
    speculates.
    """

    def _run(self, scheme, jobs=1, faults=None):
        metrics = MetricsRegistry()
        spec = SimSpec(
            schemes=(scheme,), workloads=("mcf",), target_requests=1_000,
            faults=faults,
        )
        execute_plan(
            build_plan([spec]), jobs=jobs, telemetry=Telemetry(metrics=metrics)
        )
        return metrics.to_dict()["counters"]

    def test_speculated_counter_increments(self):
        counters = self._run("Hybrid")  # known-eligible scenario
        assert counters["fastpath.speculated"] == 1
        assert not any(key.startswith("fastpath.fallback") for key in counters)

    def test_fallback_counter_increments(self):
        # Every registered family runs on the kernel; fault injection
        # always takes the event engine.
        counters = self._run("LWT-4", faults={"stuck_line_rate": 0.01})
        assert counters["fastpath.fallback"] == 1
        assert counters["fastpath.fallback.faults"] == 1
        assert "fastpath.speculated" not in counters

    def test_fallback_reason_counter_for_ineligible_scheme(self):
        # The kernel does not model write truncation.
        counters = self._run("Select-4:2+trunc")
        assert counters["fastpath.fallback"] == 1
        assert counters["fastpath.fallback.ineligible"] == 1
        assert not any(
            key.startswith("fastpath.fallback.") and key != "fastpath.fallback.ineligible"
            for key in counters
        )

    def test_counters_flow_back_from_worker_processes(self):
        counters = self._run("Hybrid", jobs=2)
        assert counters["fastpath.speculated"] == 1

    def test_engine_metrics_stay_fastpath_free(self):
        # Direct engine runs never emit fastpath counters, whatever the
        # engine — that is the equivalence contract.
        config = MemoryConfig()
        profile = workload("mcf")
        instructions = instructions_for_requests(profile, 1_000, config.num_cores)
        trace = generate_trace(
            profile,
            instructions_per_core=instructions,
            num_cores=config.num_cores,
            seed=42,
        )
        for engine in ("batch", "event"):
            metrics = MetricsRegistry()
            policy = make_policy(
                "Hybrid", PolicyContext(profile=profile, config=config, seed=42)
            )
            simulate(
                trace, policy, config,
                telemetry=Telemetry(metrics=metrics), engine=engine,
            )
            counters = metrics.to_dict()["counters"]
            assert not any(k.startswith("fastpath.") for k in counters)
