"""Tests for hierarchical span tracing (repro.obs.spans).

Covers the ISSUE-mandated behaviours: span trees stay well-formed when
run units execute in worker processes, unit results are identical across
job counts with tracing attached, and every emitted span record
validates against the checked-in schema.
"""

import pickle

import pytest

from repro.experiments.planner import RunMemo, build_plan, execute_plan
from repro.experiments.spec import SimSpec
from repro.obs import Telemetry, Tracer, chrome_trace_events
from repro.obs.schema import load_schema, validate_record
from repro.obs.spans import (
    SpanContext,
    SpanTracker,
    current_tracker,
    maybe_span,
    span_tree_errors,
    tracker_scope,
)

SMALL = SimSpec(
    schemes=("Ideal", "Hybrid"),
    workloads=("gcc", "mcf"),
    target_requests=1_000,
)



class TestSpanTracker:
    def test_nested_spans_link_to_parents(self):
        records = []
        tracker = SpanTracker(records.append)
        with tracker.span("outer") as outer:
            with tracker.span("inner", depth=2):
                pass
        inner, outer_rec = records  # children close (emit) first
        assert inner["name"] == "inner"
        assert inner["parent"] == outer.context.span
        assert outer_rec["parent"] is None
        assert inner["trace"] == outer_rec["trace"] == tracker.trace_id
        assert inner["attrs"] == {"depth": 2}
        assert inner["dur_s"] >= 0.0

    def test_root_carrier_parents_worker_spans(self):
        # A worker tracker built from a carrier nests its otherwise
        # parentless spans under the executor's span across the pickle
        # boundary.
        carrier = SpanContext(trace="t1", span="exec-1")
        carrier = pickle.loads(pickle.dumps(carrier))
        records = []
        tracker = SpanTracker(records.append, trace_id=carrier.trace, root=carrier)
        with tracker.span("unit.simulate"):
            pass
        assert records[0]["parent"] == "exec-1"
        assert records[0]["trace"] == "t1"

    def test_set_attr_lands_in_record(self):
        records = []
        tracker = SpanTracker(records.append)
        with tracker.span("s") as span:
            span.set_attr("hit", True)
        assert records[0]["attrs"]["hit"] is True

    def test_span_ids_unique_across_trackers_in_one_process(self):
        # Workers build one tracker per run unit; a per-tracker counter
        # would restart and collide. The module-global counter must not.
        ids = []
        for _ in range(3):
            records = []
            tracker = SpanTracker(records.append)
            with tracker.span("unit"):
                pass
            ids.append(records[0]["span"])
        assert len(set(ids)) == 3

    def test_maybe_span_is_noop_without_tracker(self):
        assert current_tracker() is None
        with maybe_span("anything", key=1) as span:
            span.set_attr("ignored", True)  # absorbed, no error

    def test_tracker_scope_activates_and_restores(self):
        records = []
        tracker = SpanTracker(records.append)
        with tracker_scope(tracker):
            assert current_tracker() is tracker
            with maybe_span("inside", n=1):
                pass
        assert current_tracker() is None
        assert records[0]["name"] == "inside"


class TestSpanTreeErrors:
    def _span(self, span, parent=None, trace="t"):
        return {"kind": "span", "span": span, "parent": parent,
                "trace": trace, "name": span}

    def test_clean_tree_passes(self):
        records = [self._span("a"), self._span("b", parent="a")]
        assert span_tree_errors(records) == []

    def test_orphan_parent_flagged(self):
        errors = span_tree_errors([self._span("b", parent="missing")])
        assert any("orphan" in e for e in errors)

    def test_duplicate_ids_flagged(self):
        errors = span_tree_errors([self._span("a"), self._span("a")])
        assert any("duplicate" in e for e in errors)

    def test_cross_trace_parent_flagged(self):
        records = [
            self._span("a", trace="t1"),
            self._span("b", parent="a", trace="t2"),
        ]
        assert any("crosses traces" in e for e in span_tree_errors(records))

    def test_non_span_records_ignored(self):
        assert span_tree_errors([{"kind": "read", "core": 0}]) == []


class TestPipelineSpans:
    """execute_plan span integration, serial and parallel."""

    def _run(self, jobs):
        tele = Telemetry(tracer=Tracer())
        plan = build_plan([SMALL])
        results = execute_plan(plan, jobs=jobs, telemetry=tele)
        spans = [r for r in tele.tracer.records if r.get("kind") == "span"]
        return spans, results

    @pytest.mark.parametrize("jobs", [1, 2, 4])
    def test_tree_well_formed_and_units_stable_across_jobs(self, jobs):
        spans, results = self._run(jobs)
        assert span_tree_errors(spans) == []
        assert len({s["trace"] for s in spans}) == 1
        names = {s["name"] for s in spans}
        assert {"plan.execute", "unit.simulate"} <= names
        # Stable unit content: the spans observe, never perturb.
        _, serial = self._run(1)
        assert results.keys() == serial.keys()
        for key in results:
            assert results[key].to_dict() == serial[key].to_dict()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_records_validate_against_schema(self, jobs):
        schema = load_schema("span")
        spans, _ = self._run(jobs)
        assert spans
        for record in spans:
            assert validate_record(record, schema) == []

    def test_unit_spans_carry_provenance_attrs(self):
        spans, _ = self._run(1)
        units = [s for s in spans if s["name"] == "unit.simulate"]
        assert len(units) == len(SMALL.schemes) * len(SMALL.workloads)
        for span in units:
            assert span["attrs"]["engine"] in ("batch", "event")
            assert span["attrs"]["fastpath"] in (
                "speculated", "fallback", "no_native", None
            )

    def test_worker_spans_nest_under_executor(self):
        spans, _ = self._run(2)
        executor = next(s for s in spans if s["name"] == "executor.run")
        units = [s for s in spans if s["name"] == "unit.simulate"]
        assert units
        by_id = {s["span"]: s for s in spans}
        for unit in units:
            # Walk up: every worker unit span reaches the executor span.
            node = unit
            while node["parent"] is not None and node["span"] != executor["span"]:
                node = by_id[node["parent"]]
            assert node["span"] == executor["span"]

    def test_warm_plan_emits_cache_spans_not_unit_spans(self):
        memo = RunMemo()
        execute_plan(build_plan([SMALL]), jobs=1, memo=memo)  # prime it
        tele = Telemetry(tracer=Tracer())
        plan = build_plan([SMALL])
        execute_plan(plan, jobs=1, telemetry=tele, memo=memo)
        names = [r["name"] for r in tele.tracer.records
                 if r.get("kind") == "span"]
        assert "cache.memo" in names
        assert "unit.simulate" not in names

    def test_chrome_export_gives_spans_their_own_pid_lanes(self):
        spans, _ = self._run(2)
        events = chrome_trace_events(spans)
        lanes = {e["args"]["name"] for e in events if e["ph"] == "M"}
        span_lanes = {n for n in lanes if n.startswith("pipeline spans")}
        pids = {s["pid"] for s in spans}
        assert len(span_lanes) == len(pids)
        xs = [e for e in events if e["ph"] == "X" and e.get("cat") == "span"]
        assert len(xs) == len(spans)
        assert min(e["ts"] for e in xs) == 0.0  # rebased to earliest span
