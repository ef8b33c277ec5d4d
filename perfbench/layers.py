"""Which program functions the traced runs wrap, and the per-layer metrics.

Every entry wraps a function at the name its caller binds. A name the
program no longer has is skipped, and its metrics read zero. Metrics of
layers a workload does not reach (the serve daemon on ``sim-cold``, the
kernel on a warm CLI) also read zero: every traced run reports the whole
catalogue in :mod:`metrics`.
"""

from __future__ import annotations

import subprocess
from collections import defaultdict
from typing import Any, Callable, Dict, List

from . import metrics, procs, stats, tracer
from .tracer import Recorder, Span


class Counts:
    """Counters the wrappers' hooks fill in while spans are recorded."""

    def __init__(self) -> None:
        self.scheme_s: Dict[str, float] = defaultdict(float)
        self.scheme_requests: Dict[str, int] = defaultdict(int)
        self.speculated = 0
        self.verify_abort = 0
        self.fallback: Dict[str, int] = defaultdict(int)
        self.units: Dict[str, int] = defaultdict(int)
        self.load_hits = 0
        self.bytes_read = 0
        self.bytes_written = 0


def _experiment_span(args: tuple, kwargs: dict) -> str:
    name = str(args[1] if len(args) > 1 else kwargs.get("name", ""))
    if name.startswith("table"):
        return "drivers.table"
    if name.startswith("figure"):
        return "drivers.figure"
    return "drivers.other"


def install(recorder: Recorder, counts: Counts) -> None:
    """Wrap the program's layer entry points (imports ``repro``)."""
    from repro.memsim import fastpath

    def after_simulate(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
        trace, policy = args[0], args[1]
        counts.scheme_s[policy.name] += span.duration
        counts.scheme_requests[policy.name] += len(trace)
        outcome, reason = fastpath.last_attempt()
        if outcome == "speculated":
            counts.speculated += 1
        elif reason == "verify_abort":
            counts.verify_abort += 1
        else:
            key = reason if reason in metrics.FALLBACK_REASONS else "other"
            counts.fallback[key] += 1

    def after_execute(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
        plan_stats = args[0].stats
        for field in ("units_total", "units_memo", "units_disk", "units_simulated"):
            counts.units[field] += int(getattr(plan_stats, field, 0))

    def after_load(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
        if result is not None:
            counts.load_hits += 1
            counts.bytes_read += args[0].entry_bytes(args[1]) or 0

    def after_store(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
        counts.bytes_written += args[0].entry_bytes(args[1]) or 0

    wrap = recorder.wrap
    wrap("repro.experiments.spec", "generate_trace", "traces.generate")
    wrap("repro.experiments.parallel", "simulate", "memsim.simulate", after_simulate)
    for module in ("repro.service.execution", "repro.experiments.runner"):
        wrap(module, "build_plan", "planner.build_plan")
        wrap(module, "execute_plan", "planner.execute_plan", after_execute)
    wrap("repro.experiments.cache", "RunCache.load", "cache.run_load", after_load)
    wrap("repro.experiments.cache", "RunCache.store", "cache.run_store", after_store)
    wrap("repro.experiments.cache", "SweepCache.store", "cache.sweep_store")
    wrap("repro.experiments.cache", "SweepCache.peek", "cache.sweep_peek")
    wrap("repro.memsim.stats", "RunStats.to_dict", "stats.to_dict")
    wrap("repro.memsim.stats", "RunStats.from_dict", "stats.from_dict")
    wrap("repro.service.execution", "ExecutionService.submit", "execution.submit")
    wrap("repro.service.execution", "ExecutionService.sweep", "execution.sweep")
    wrap("repro.service", "sweep_payload", "execution.sweep_payload")
    wrap("repro.service.execution", "ExecutionService.prewarm", "drivers.prewarm")
    wrap("repro.service.execution", "ExecutionService.run_experiment", _experiment_span)


def memo_clears() -> List[Callable[[], None]]:
    """The program's public memo-clearing functions that exist (imports
    ``repro``); calling them all makes the next op start cold."""
    from repro.experiments import planner, runner

    found = (
        getattr(runner, "clear_sweep_cache", None),
        getattr(planner, "clear_run_memo", None),
    )
    return [fn for fn in found if fn is not None]


def finish_trace(
    recorder: Recorder,
    layer: Dict[str, float],
    name: str,
    traced_s: float,
    untraced_s: float,
) -> Dict[str, Any]:
    """Write the spans out, fold them, and add the tracing metrics.

    ``traced_s`` and ``untraced_s`` time the same work with and without
    tracing; their ratio is ``trace.overhead_frac``.
    """
    spans_path = procs.WORK / "records" / f"spans-{name}.jsonl"
    recorder.dump(spans_path)
    folded = tracer.fold(recorder.spans)
    layer["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    layer["trace.unattributed_frac"] = (
        folded["layers"][tracer.UNATTRIBUTED]["self_s"] / folded["wall_s"]
    )
    return {
        "layer": layer,
        "table": tracer.render_table(name, folded),
        "spans": str(spans_path),
    }


def zero_metrics() -> Dict[str, float]:
    return {name: 0.0 for name, _unit, _better in metrics.PER_LAYER}


def program_metrics(spans: List[Span], counts: Counts) -> Dict[str, float]:
    """Per-layer metrics of the in-process program layers."""
    out = zero_metrics()
    inc, own, n = tracer.inclusive, tracer.own, tracer.count
    out["traces.generate_calls"] = n(spans, "traces.generate")
    out["traces.generate_s"] = inc(spans, "traces.generate")
    simulate_calls = n(spans, "memsim.simulate")
    out["memsim.simulate_calls"] = simulate_calls
    out["memsim.simulate_s"] = inc(spans, "memsim.simulate")
    for scheme in metrics.SCHEMES:
        requests = counts.scheme_requests.get(scheme, 0)
        if requests:
            out[metrics.scheme_metric(scheme)] = counts.scheme_s[scheme] / requests * 1e6
    out["memsim.fastpath.speculated"] = counts.speculated
    out["memsim.fastpath.verify_abort"] = counts.verify_abort
    for reason in metrics.FALLBACK_REASONS:
        out[f"memsim.fastpath.fallback.{reason}"] = counts.fallback.get(reason, 0)
    out["memsim.fastpath_hit_ratio"] = (
        counts.speculated / simulate_calls if simulate_calls else 0.0
    )
    out["planner.build_plan_s"] = inc(spans, "planner.build_plan")
    out["planner.execute_plan_self_s"] = own(spans, "planner.execute_plan")
    for field in ("units_total", "units_memo", "units_disk", "units_simulated"):
        out[f"planner.{field}"] = counts.units.get(field, 0)
    loads = n(spans, "cache.run_load")
    out["cache.run_load_calls"] = loads
    out["cache.run_load_s"] = inc(spans, "cache.run_load")
    out["cache.run_bytes_read"] = counts.bytes_read
    out["cache.hit_ratio"] = counts.load_hits / loads if loads else 0.0
    out["cache.run_store_calls"] = n(spans, "cache.run_store")
    out["cache.run_store_s"] = inc(spans, "cache.run_store")
    out["cache.run_bytes_written"] = counts.bytes_written
    out["cache.sweep_store_s"] = inc(spans, "cache.sweep_store")
    out["cache.sweep_peek_s"] = inc(spans, "cache.sweep_peek")
    out["stats.to_dict_calls"] = n(spans, "stats.to_dict")
    out["stats.to_dict_s"] = inc(spans, "stats.to_dict")
    out["stats.from_dict_s"] = inc(spans, "stats.from_dict")
    out["drivers.prewarm_s"] = inc(spans, "drivers.prewarm")
    out["drivers.tables_s"] = inc(spans, "drivers.table")
    out["drivers.figures_s"] = inc(spans, "drivers.figure")
    out["execution.submit_s"] = inc(spans, "execution.submit")
    out["execution.sweep_s"] = inc(spans, "execution.sweep")
    return out


def startup_metrics(repeats: int = 3) -> Dict[str, float]:
    """Import and native-load cost of a fresh program process (medians).

    ``import repro.cli`` and the first ``load_timeline()`` are timed by
    the probe itself; the scipy and numpy shares come from the
    interpreter's ``-X importtime`` log of the same process.
    """
    samples: Dict[str, List[float]] = defaultdict(list)
    for _ in range(repeats):
        done = subprocess.run(
            [procs.PYTHON, "-X", "importtime", "-c", tracer.STARTUP_PROBE],
            env=procs.program_env(), cwd=str(procs.ROOT),
            capture_output=True, text=True, timeout=procs.CHILD_TIMEOUT_S,
        )
        if done.returncode != 0:
            raise procs.BenchError(f"start-up probe failed:\n{done.stderr[-2000:]}")
        import_s, native_s = (float(x) for x in done.stdout.split())
        samples["startup.import_s"].append(import_s)
        samples["startup.native_load_s"].append(native_s)
        samples["startup.scipy_import_s"].append(
            tracer.importtime_cumulative(done.stderr, "scipy"))
        samples["startup.numpy_import_s"].append(
            tracer.importtime_cumulative(done.stderr, "numpy"))
    return {name: stats.median(values) for name, values in samples.items()}
