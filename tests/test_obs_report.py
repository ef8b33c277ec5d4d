"""Tests for ``readduo report`` aggregation (repro.obs.report).

Pure-function coverage of the ledger/metrics/bench aggregations plus
CLI-level exit-code behaviour (0 success, 2 usage/unreadable input, 3
regression gate).
"""

import json

import pytest

from repro.cli import main
from repro.obs.report import (
    compare_bench_entries,
    last_invocation,
    parse_ledger_lines,
    render_bench_report,
    render_ledger_report,
    summarize_ledger,
    summarize_metrics,
)
from repro.obs.schema import load_schema, validate_jsonl


def _record(run_hash, tier, plan=1, trace="t1", fastpath=None, wall_s=None,
            pid=None, t_s=None, workload="mcf", scheme="Hybrid"):
    return {
        "kind": "run", "plan": plan, "run_hash": run_hash,
        "workload": workload, "scheme": scheme, "tier": tier,
        "engine": "batch", "fastpath": fastpath, "wall_s": wall_s,
        "t_s": t_s, "pid": pid, "cached_bytes": None, "faults": None,
        "trace": trace,
    }


class TestParseLedgerLines:
    def test_skips_blank_junk_and_foreign_kinds(self):
        lines = [
            "", "   ", "{not json", json.dumps({"kind": "span"}),
            json.dumps(_record("h1", "simulated")), json.dumps([1, 2]),
        ]
        records = parse_ledger_lines(lines)
        assert [r["run_hash"] for r in records] == ["h1"]


class TestLastInvocation:
    def test_filters_to_final_trace_id(self):
        records = [
            _record("h1", "simulated", trace="t1"),
            _record("h1", "disk", trace="t2"),
            _record("h2", "disk", trace="t2"),
        ]
        assert [r["trace"] for r in last_invocation(records)] == ["t2", "t2"]

    def test_traceless_records_fall_back_to_final_plan(self):
        records = [
            _record("h1", "simulated", trace=None, plan=1),
            _record("h1", "memo", trace=None, plan=2),
        ]
        assert [r["plan"] for r in last_invocation(records)] == [2]

    def test_empty_input(self):
        assert last_invocation([]) == []


class TestSummarizeLedger:
    def test_first_record_per_hash_wins(self):
        # One invocation resolves the same unit twice (prewarm simulates,
        # the figure sweep then memo-hits); the unit's tier is how it was
        # first obtained.
        records = [
            _record("h1", "simulated", plan=1, fastpath="speculated",
                    wall_s=0.5),
            _record("h1", "memo", plan=2),
        ]
        summary = summarize_ledger(records)
        assert summary["units"] == 1
        assert summary["tiers"]["simulated"] == 1
        assert summary["tiers"]["memo"] == 0
        assert summary["record_tiers"] == {
            "memo": 1, "disk": 0, "simulated": 1,
        }
        assert summary["plans"] == 2
        assert summary["units_simulated"] == 1
        assert summary["cache_hit_ratio"] == 0.0

    def test_warm_invocation_shows_zero_simulated(self):
        records = [
            _record("h1", "disk"), _record("h2", "memo"),
        ]
        summary = summarize_ledger(records)
        assert summary["units_simulated"] == 0
        assert summary["cache_hit_ratio"] == 1.0
        assert summary["cached_units"] == 2

    def test_speculation_success_rate(self):
        records = [
            _record("h1", "simulated", fastpath="speculated", wall_s=0.1),
            _record("h2", "simulated", fastpath="speculated", wall_s=0.2),
            _record("h3", "simulated", fastpath="fallback", wall_s=0.3),
            _record("h4", "simulated", fastpath="no_native", wall_s=0.4),
        ]
        summary = summarize_ledger(records)
        assert summary["fastpath"] == {
            "speculated": 2, "fallback": 1, "no_native": 1,
        }
        # no_native units never attempted speculation; they stay out of
        # the success-rate denominator.
        assert summary["speculation_success_rate"] == pytest.approx(2 / 3)

    def test_slowest_units_ranked_and_truncated(self):
        records = [
            _record(f"h{i}", "simulated", wall_s=float(i)) for i in range(6)
        ]
        summary = summarize_ledger(records, top=3)
        assert [r["wall_s"] for r in summary["slowest"]] == [5.0, 4.0, 3.0]

    def test_worker_utilization(self):
        records = [
            _record("h1", "simulated", pid=11, wall_s=1.0, t_s=100.0),
            _record("h2", "simulated", pid=11, wall_s=1.0, t_s=103.0),
            _record("h3", "simulated", pid=22, wall_s=2.0, t_s=100.0),
        ]
        workers = summarize_ledger(records)["workers"]
        assert [w["pid"] for w in workers] == [11, 22]
        first = workers[0]
        assert first["units"] == 2
        assert first["busy_s"] == pytest.approx(2.0)
        assert first["span_s"] == pytest.approx(4.0)  # 100.0 -> 104.0
        assert first["utilization"] == pytest.approx(0.5)

    def test_empty_records(self):
        summary = summarize_ledger([])
        assert summary["units"] == 0
        assert summary["cache_hit_ratio"] is None
        assert summary["speculation_success_rate"] is None

    def test_render_mentions_key_sections(self):
        records = [_record("h1", "simulated", fastpath="speculated",
                           wall_s=0.5, pid=9, t_s=1.0)]
        metrics = {"plan": {"units_total": 1}, "fastpath": {"speculated": 1}}
        text = render_ledger_report(summarize_ledger(records), metrics)
        for needle in ("cache tiers", "cache hit ratio", "slowest",
                       "workers", "plan counters", "fastpath counters"):
            assert needle in text


class TestCacheBytes:
    """``cache_bytes`` from a real run's ledger, entries gzip-compressed."""

    def test_gzipped_entries_summarize_stored_below_raw(self, tmp_path, capsys):
        from repro.experiments.cache import RunCache
        from repro.experiments.planner import build_plan, execute_plan
        from repro.experiments.spec import SimSpec
        from repro.obs import Telemetry
        from repro.obs.ledger import RunLedger

        store = RunCache(tmp_path / "cache")
        store.gzip_min_bytes = 1  # compress every entry
        path = tmp_path / "ledger.jsonl"
        spec = SimSpec(
            schemes=("Ideal", "Hybrid"), workloads=("gcc",),
            target_requests=600,
        )
        telemetry = Telemetry(ledger=RunLedger(path))
        execute_plan(build_plan([spec]), store=store, telemetry=telemetry)
        telemetry.ledger.close()
        entries = sorted((tmp_path / "cache" / "runs").glob("*.json"))
        assert entries and all(
            entry.read_bytes()[:2] == b"\x1f\x8b" for entry in entries
        )

        summary = summarize_ledger(
            parse_ledger_lines(path.read_text().splitlines())
        )
        cache_bytes = summary["cache_bytes"]
        assert cache_bytes["entries"] == len(entries) == 2
        assert cache_bytes["stored"] == sum(e.stat().st_size for e in entries)
        assert 0 < cache_bytes["stored"] <= cache_bytes["raw"]
        ratio = cache_bytes["stored"] / cache_bytes["raw"]
        assert cache_bytes["ratio"] == ratio

        assert main(["report", "--ledger", str(path)]) == 0
        assert (
            f"granular cache entries: 2 sized, {cache_bytes['stored']} B "
            f"stored / {cache_bytes['raw']} B raw ({100.0 * ratio:.1f}% of raw)"
        ) in capsys.readouterr().out


class TestExploreSection:
    def _explore_record(self, run_hash, candidate, tier):
        record = _record(run_hash, tier)
        record.update(candidate=candidate)
        return record

    def test_summary_counts_candidates(self):
        records = [
            self._explore_record("h1", "LWT-2|E8|S640|base", "simulated"),
            self._explore_record("h2", "Select-4:2|E8|S640|base", "disk"),
            self._explore_record("h3", None, "simulated"),
        ]
        assert summarize_ledger(records)["explore"] == {
            "records": 3, "simulated": 2, "candidates": 2,
        }

    def test_older_schema3_record_with_rung_is_summarized(self):
        # Explore ledgers written before the single full-budget pass
        # stamped rung/budget too; they still validate and count.
        record = self._explore_record("h1", "LWT-2|E8|S640|base", "simulated")
        record.update(schema=3, pid=4242, rung=0, budget=300)
        assert validate_jsonl([json.dumps(record)], load_schema("ledger")) == []
        assert summarize_ledger([record])["explore"] == {
            "records": 1, "simulated": 1, "candidates": 1,
        }

    def test_section_absent_without_explore_records(self):
        summary = summarize_ledger([_record("h1", "simulated")])
        assert "explore" not in summary

    def test_render_mentions_explore(self):
        records = [
            self._explore_record("h1", "LWT-2|E8|S640|base", "memo"),
        ]
        text = render_ledger_report(summarize_ledger(records))
        assert "explore: 1 candidate(s), 0/1 record(s) simulated" in text


class TestSummarizeMetrics:
    def test_splits_plan_and_fastpath_prefixes(self):
        snapshot = {"counters": {
            "plan.units_total": 4, "fastpath.speculated": 2, "other.x": 1,
        }}
        metrics = summarize_metrics(snapshot)
        assert metrics["plan"] == {"units_total": 4}
        assert metrics["fastpath"] == {"speculated": 2}

    def test_tolerates_non_dict(self):
        assert summarize_metrics(None) == {"plan": {}, "fastpath": {}}


def _bench_entry(rps, speedup, overhead):
    return {
        "single_run": {"requests_per_s": rps},
        "batch_kernel": {"speedup": speedup},
        "telemetry_overhead": {"enabled_overhead_pct": overhead},
    }


class TestBenchComparison:
    def test_within_threshold_not_regressed(self):
        rows = compare_bench_entries(
            _bench_entry(100.0, 10.0, 5.0),
            _bench_entry(97.0, 9.8, 5.1),
            threshold_pct=5.0,
        )
        assert not any(row["regressed"] for row in rows)

    def test_higher_is_better_drop_regresses(self):
        rows = compare_bench_entries(
            _bench_entry(100.0, 10.0, 5.0),
            _bench_entry(80.0, 10.0, 5.0),
            threshold_pct=5.0,
        )
        by_metric = {row["metric"]: row for row in rows}
        assert by_metric["single_run.requests_per_s"]["regressed"]
        assert by_metric["single_run.requests_per_s"]["delta_pct"] == (
            pytest.approx(-20.0)
        )
        assert not by_metric["batch_kernel.speedup"]["regressed"]

    def test_lower_is_better_rise_regresses(self):
        rows = compare_bench_entries(
            _bench_entry(100.0, 10.0, 5.0),
            _bench_entry(100.0, 10.0, 8.0),
            threshold_pct=5.0,
        )
        row = next(r for r in rows
                   if r["metric"] == "telemetry_overhead.enabled_overhead_pct")
        assert row["regressed"] and row["better"] == "lower"

    def test_warm_run_all_time_rising_regresses(self):
        rows = compare_bench_entries(
            {"cli": {"run_all_warm_s": 0.40}},
            {"cli": {"run_all_warm_s": 0.60}},
            threshold_pct=5.0,
        )
        row = next(r for r in rows if r["metric"] == "cli.run_all_warm_s")
        assert row["regressed"] and row["better"] == "lower"

    def test_missing_metric_never_flags(self):
        rows = compare_bench_entries({}, _bench_entry(1.0, 1.0, 1.0))
        assert all(row["delta_pct"] is None for row in rows)
        assert not any(row["regressed"] for row in rows)

    def test_render_flags_regressions(self):
        rows = compare_bench_entries(
            _bench_entry(100.0, 10.0, 5.0), _bench_entry(50.0, 10.0, 5.0)
        )
        text = render_bench_report(rows, 5.0)
        assert "REGRESSED" in text
        assert "1 regression(s)" in text


class TestReportCli:
    def _write_ledger(self, path, records):
        path.write_text(
            "".join(json.dumps(r) + "\n" for r in records), encoding="utf-8"
        )

    def test_no_inputs_is_usage_error(self, capsys):
        assert main(["report"]) == 2
        assert "--ledger" in capsys.readouterr().err

    def test_missing_ledger_file(self, tmp_path, capsys):
        assert main(["report", "--ledger", str(tmp_path / "nope.jsonl")]) == 2

    def test_ledger_report_renders(self, tmp_path, capsys):
        path = tmp_path / "l.jsonl"
        self._write_ledger(path, [
            _record("h1", "simulated", fastpath="speculated", wall_s=0.5),
            _record("h2", "memo"),
        ])
        assert main(["report", "--ledger", str(path)]) == 0
        out = capsys.readouterr().out
        assert "2 distinct unit(s)" in out

    def test_schema_2_ledger_still_summarizes(self, tmp_path, capsys):
        # Version 2 records also carry ``worker`` and ``lease`` (always
        # null); the report reads them as it reads version 3 records.
        records = [
            _record("h1", "simulated", fastpath="speculated", wall_s=0.5),
            _record("h2", "memo"),
        ]
        path = tmp_path / "l.jsonl"
        self._write_ledger(path, [
            dict(r, schema=2, worker=None, lease=None) for r in records
        ])
        assert main(["report", "--ledger", str(path), "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == json.loads(
            json.dumps(summarize_ledger(records))
        )

    def test_last_flag_limits_to_final_invocation(self, tmp_path, capsys):
        path = tmp_path / "l.jsonl"
        self._write_ledger(path, [
            _record("h1", "simulated", trace="cold"),
            _record("h1", "disk", trace="warm"),
        ])
        assert main(["report", "--ledger", str(path), "--last",
                     "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["units_simulated"] == 0
        assert summary["tiers"]["disk"] == 1

    def test_metrics_snapshot_included(self, tmp_path, capsys):
        ledger = tmp_path / "l.jsonl"
        self._write_ledger(ledger, [_record("h1", "memo")])
        metrics = tmp_path / "m.json"
        metrics.write_text(json.dumps(
            {"counters": {"plan.units_total": 1}, "gauges": {},
             "histograms": {}}
        ))
        assert main(["report", "--ledger", str(ledger),
                     "--metrics", str(metrics), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["metrics"]["plan"]["units_total"] == 1

    def test_bench_needs_history(self, tmp_path, capsys):
        missing = tmp_path / "none.jsonl"
        assert main(["report", "--bench", "--history", str(missing)]) == 2
        history = tmp_path / "h.jsonl"
        history.write_text(json.dumps(_bench_entry(1.0, 1.0, 1.0)) + "\n")
        assert main(["report", "--bench", "--history", str(history)]) == 2

    def test_bench_compare_and_regression_gate(self, tmp_path, capsys):
        history = tmp_path / "h.jsonl"
        history.write_text(
            json.dumps(_bench_entry(100.0, 10.0, 5.0)) + "\n"
            + json.dumps(_bench_entry(50.0, 10.0, 5.0)) + "\n"
        )
        assert main(["report", "--bench", "--history", str(history)]) == 0
        assert "REGRESSED" in capsys.readouterr().out
        assert main(["report", "--bench", "--history", str(history),
                     "--fail-on-regression"]) == 3
        # Raising the threshold clears the gate.
        assert main(["report", "--bench", "--history", str(history),
                     "--threshold", "60", "--fail-on-regression"]) == 0
