"""Engine telemetry: tracing, histograms, and statistics invariants.

The contract under test: telemetry observes, never perturbs. A run with
tracing + metrics enabled must produce statistics equal (dataclass
equality, which excludes the histograms) to an uninstrumented run, while
filling the histograms and emitting a coherent event stream.
"""

import json

import pytest

from repro.core.policies import PolicyContext
from repro.core.registry import make_policy
from repro.experiments.runner import run_sweep
from repro.experiments.spec import SimSpec
from repro.memsim.config import MemoryConfig
from repro.memsim.engine import simulate
from repro.obs import MetricsRegistry, Telemetry, Tracer, chrome_trace_events
from repro.traces.generator import generate_trace
from repro.traces.spec import instructions_for_requests, workload


def _run(scheme="Hybrid", workload_name="mcf", requests=3_000, telemetry=None):
    config = MemoryConfig()
    profile = workload(workload_name)
    instructions = instructions_for_requests(profile, requests, config.num_cores)
    trace = generate_trace(
        profile,
        instructions_per_core=instructions,
        num_cores=config.num_cores,
        seed=42,
    )
    policy = make_policy(
        scheme, PolicyContext(profile=profile, config=config, seed=42)
    )
    return simulate(trace, policy, config, telemetry=telemetry)


@pytest.fixture(scope="module")
def traced_run():
    tele = Telemetry(tracer=Tracer(), metrics=MetricsRegistry())
    stats = _run(telemetry=tele)
    return stats, tele


class TestTelemetryNeutrality:
    def test_stats_identical_with_and_without_telemetry(self, traced_run):
        traced_stats, _ = traced_run
        assert _run(telemetry=None) == traced_stats

    def test_disabled_run_leaves_histograms_empty(self):
        stats = _run(requests=800, telemetry=None)
        assert stats.read_latency_hist.count == 0
        assert stats.queue_depth_hist.count == 0

    def test_null_telemetry_behaves_like_none(self):
        stats = _run(requests=800, telemetry=Telemetry())
        assert stats.read_latency_hist.count == 0

    def test_histograms_stay_out_of_serialized_form(self, traced_run):
        stats, _ = traced_run
        payload = stats.to_dict()
        assert "read_latency_hist" not in payload
        assert "queue_depth_hist" not in payload
        json.dumps(payload)  # still JSON-clean


class TestHistograms:
    def test_latency_histogram_matches_read_totals(self, traced_run):
        stats, _ = traced_run
        hist = stats.read_latency_hist
        assert hist.count == stats.reads > 0
        assert hist.sum == pytest.approx(stats.total_read_latency_ns)
        assert stats.queue_depth_hist.count == stats.reads

    def test_percentiles_bracket_sensing_latencies(self, traced_run):
        stats, _ = traced_run
        # Every read takes at least one R-sense (150 ns) plus the bus.
        assert stats.read_latency_hist.percentile(50) >= 150.0


class TestTraceStream:
    def test_read_events_cover_every_demand_read(self, traced_run):
        stats, tele = traced_run
        reads = [r for r in tele.tracer.records if r["kind"] == "read"]
        assert len(reads) == stats.reads
        sample = reads[0]
        assert sample["issue_ns"] <= sample["start_ns"] <= sample["complete_ns"]
        assert 0 <= sample["bank"] < MemoryConfig().num_banks
        assert sample["mode"] in ("R", "M", "RM")
        assert sample["queue_depth"] >= 0

    def test_cancel_and_scrub_events_match_stats(self, traced_run):
        stats, tele = traced_run
        records = tele.tracer.records
        cancels = [r for r in records if r["kind"] == "write_cancel"]
        scrubs = [r for r in records if r["kind"] == "scrub"]
        assert stats.cancelled_writes > 0  # mcf/Hybrid exercises cancellation
        assert len(cancels) == stats.cancelled_writes
        assert scrubs and all(s["lines"] > 0 for s in scrubs)

    def test_write_events_present_for_demand_writes(self, traced_run):
        stats, tele = traced_run
        writes = [r for r in tele.tracer.records if r["kind"] == "write"]
        assert writes
        assert all(w["start_ns"] <= w["complete_ns"] for w in writes)
        assert {w["cause"] for w in writes} <= {"demand", "conversion"}

    def test_chrome_export_is_loadable(self, traced_run, tmp_path):
        _, tele = traced_run
        path = tmp_path / "trace.json"
        tele.tracer.write_chrome(path)
        payload = json.loads(path.read_text())
        events = payload["traceEvents"]
        assert {e.get("cat") for e in events} >= {"read", "scrub"}
        assert all("ts" in e for e in events if e["ph"] != "M")

    def test_metrics_snapshot_mirrors_stats(self, traced_run):
        stats, tele = traced_run
        dump = tele.metrics.to_dict()
        assert dump["counters"]["sim.reads"] == stats.reads
        assert dump["counters"]["sim.cancelled_writes"] == stats.cancelled_writes
        assert dump["counters"]["sim.scrub.ops"] == stats.scrub_ops
        hist = dump["histograms"]["sim.read_latency_ns"]
        assert sum(hist["counts"]) == stats.reads


class TestRunStatsInvariants:
    """Accounting identities that must hold for every scheme."""

    @pytest.fixture(scope="class")
    def small_grid(self):
        settings = SimSpec(
            schemes=(
                "Ideal", "Scrubbing", "M-metric", "Hybrid",
                "LWT-4", "LWT-4-noconv", "Select-4:2", "TLC",
            ),
            workloads=("gcc", "mcf"),
            target_requests=1_500,
        )
        return run_sweep(settings)

    def test_reads_by_mode_sums_to_reads(self, small_grid):
        for per_scheme in small_grid.values():
            for scheme, stats in per_scheme.items():
                assert sum(stats.reads_by_mode.values()) == stats.reads, scheme

    def test_scrub_rewrites_bounded_by_scrub_ops(self, small_grid):
        for per_scheme in small_grid.values():
            for scheme, stats in per_scheme.items():
                assert stats.scrub_rewrites <= stats.scrub_ops, scheme

    def test_latency_and_counts_nonnegative(self, small_grid):
        for per_scheme in small_grid.values():
            for stats in per_scheme.values():
                assert stats.total_read_latency_ns >= 0
                assert stats.conversions >= 0
                assert stats.cancelled_writes >= 0
