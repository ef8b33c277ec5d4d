"""``sim-cold``: cold sweeps through the in-process ``ExecutionService``.

Each op runs all 11 registered schemes on mcf and gcc at 10k requests,
serially, into a fresh cache directory, with the memo tiers cleared
first, so every unit simulates and is stored. The kernel does nearly all
the work here, and fastpath schemes sit beside fallback schemes, so an
engine change that speeds one family but slows the other shows.

The ops run in a worker process (``python -m perfbench.sim_cold``) that
prints ``READY`` once set up and its results as one JSON line at the end;
the orchestrator side (:func:`run`) times set-up from spawn to ``READY``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import shutil
import statistics
import sys
import time
from typing import Any, Dict, List, Optional

from . import layers, metrics, procs, stats, tracer

WORKLOADS = ("gcc", "mcf")
REQUESTS = 10_000
WARMUP_REQUESTS = 1_000
SETUP_SAMPLES = 3

#: The seed whose grid digest is pinned in ``pinned.json``. Runs at other
#: seeds check it with one extra op after the timed ones.
PINNED_SEED = 42
PINNED = json.loads((procs.HERE / "pinned.json").read_text())


def grid_digest(grid: Any) -> str:
    """sha256 of the grid's ``RunStats.to_dict()`` documents, computed as
    ``tests/test_sweep_regression.py`` computes its pinned digest."""
    payload = {
        workload: {scheme: s.to_dict() for scheme, s in per.items()}
        for workload, per in grid.items()
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# ------------------------------------------------------------------ worker


class Sweeper:
    """One cold op: clear the memo tiers, sweep into a fresh cache dir."""

    def __init__(self) -> None:
        from repro.experiments.spec import SimSpec
        from repro.obs import Telemetry
        from repro.obs.metrics import MetricsRegistry
        from repro.service import ExecutionService

        self._spec_type = SimSpec
        self._service_type = ExecutionService
        self._telemetry_type = Telemetry
        self._registry_type = MetricsRegistry
        self._clears = layers.memo_clears()

    def spec(self, seed: int, requests: int = REQUESTS) -> Any:
        return self._spec_type(
            schemes=metrics.SCHEMES, workloads=WORKLOADS,
            target_requests=requests, seed=seed,
        )

    def op(self, spec: Any, recorder: Optional[tracer.Recorder] = None) -> Dict[str, Any]:
        """Time one cold sweep; with a recorder, inside a root op span."""
        for clear in self._clears:
            clear()
        cache_dir = procs.fresh_dir("sim-cold-")
        registry = self._registry_type()
        service = self._service_type(
            jobs=1, cache=str(cache_dir), telemetry=self._telemetry_type(metrics=registry)
        )
        try:
            with recorder.span(tracer.OP) if recorder else contextlib.nullcontext():
                start = time.perf_counter()
                grid = service.sweep(spec)
                wall = time.perf_counter() - start
        finally:
            service.close()
            shutil.rmtree(cache_dir, ignore_errors=True)
        total = registry.counter("plan.units_total").value
        simulated = registry.counter("plan.units_simulated").value
        expected = len(metrics.SCHEMES) * len(WORKLOADS)
        return {
            "seed": spec.seed,
            "wall_s": wall,
            "requests": sum(s.reads + s.writes for per in grid.values() for s in per.values()),
            "digest": grid_digest(grid),
            "units_total": total,
            "units_simulated": simulated,
            "units_ok": total == simulated == expected,
        }


def _timed_ops(sweeper: Sweeper, spec: Any, seconds: float, at_least: int) -> List[Dict[str, Any]]:
    ops: List[Dict[str, Any]] = []
    deadline = time.perf_counter() + seconds
    while len(ops) < at_least or time.perf_counter() < deadline:
        ops.append(sweeper.op(spec))
    return ops


def worker(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.sim_cold")
    parser.add_argument("--phase", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    args = parser.parse_args(argv)

    from repro.memsim.native import load_timeline

    load_timeline()
    sweeper = Sweeper()
    sweeper.op(sweeper.spec(args.seed, WARMUP_REQUESTS))
    print("READY", flush=True)
    if args.phase == "setup":
        return 0

    spec = sweeper.spec(args.seed)
    result: Dict[str, Any] = {}
    if args.phase == "run":
        result["ops"] = _timed_ops(sweeper, spec, args.seconds, at_least=3)
    else:
        # Traced ops first, so the first one pays trace generation (the
        # trace memo keeps traces across ops) and the traces layer shows.
        recorder, counts = tracer.Recorder(), layers.Counts()
        layers.install(recorder, counts)
        traced: List[Dict[str, Any]] = []
        deadline = time.perf_counter() + args.seconds / 2
        try:
            while len(traced) < 2 or time.perf_counter() < deadline:
                recorder.op = len(traced)
                traced.append(sweeper.op(spec, recorder))
        finally:
            recorder.uninstall()
        untraced = [sweeper.op(spec) for _ in traced]
        result = layers.finish_trace(
            recorder, layers.program_metrics(recorder.spans, counts),
            f"sim-cold-seed{args.seed}",
            sum(op["wall_s"] for op in traced), sum(op["wall_s"] for op in untraced),
        )
        result["ops"] = untraced + traced
    if args.seed != PINNED_SEED:
        result["ops"].append(sweeper.op(sweeper.spec(PINNED_SEED)))
    print(json.dumps(result), flush=True)
    return 0


# ------------------------------------------------------------ orchestrator


def _spawn(phase: str, seed: int, seconds: float) -> procs.Child:
    return procs.Child(
        [procs.PYTHON, "-m", "perfbench.sim_cold", "--phase", phase,
         "--seed", str(seed), "--seconds", repr(seconds)],
        procs.program_env(),
    )


def _await_ready(child: procs.Child) -> float:
    line = child.readline()
    if line.strip() != b"READY":
        finished = child.finish()
        finished.check("sim-cold worker")
        raise procs.BenchError(f"sim-cold worker said {line!r} instead of READY")
    return time.perf_counter() - child.started


def _check(ops: List[Dict[str, Any]], seed: int) -> int:
    """Correctness gates; returns the number of failed ops."""
    reference = next((op["digest"] for op in ops if op["seed"] == seed), None)
    failed = 0
    for op in ops:
        ok = op["units_ok"]
        if op["seed"] == PINNED_SEED:
            ok = ok and op["digest"] == PINNED["sim_cold_digest"]
        if op["seed"] == seed:
            ok = ok and op["digest"] == reference
        failed += not ok
    return failed


def run(seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    setups: List[float] = []
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            child = _spawn("setup", seed, 0.0)
            try:
                setups.append(_await_ready(child))
            finally:
                child.finish().check("sim-cold set-up")
    child = _spawn("trace" if trace else "run", seed, seconds)
    try:
        setups.append(_await_ready(child))
    finally:
        finished = child.finish()
    finished.check("sim-cold worker")
    result = json.loads(finished.stdout.decode().strip().splitlines()[-1])
    ops = result["ops"]
    timed = [op for op in ops if op["seed"] == seed]
    walls = [op["wall_s"] for op in timed]
    out: Dict[str, Any] = {
        "attempted": len(ops),
        "failed": _check(ops, seed),
        "record": {"ops": ops, "setup_s": setups},
    }
    if trace:
        out.update(layer=result["layer"], table=result["table"], spans=result["spans"])
        return out
    rate = sum(op["requests"] for op in timed) / sum(walls)
    # The mean, not the median: the host's speed flips between two states
    # that last longer than an op, so a median of a dozen ops snaps to one
    # state. Every op simulates the same requests, so this is the same
    # signal as the rate, seen as one user's wait.
    op_ms = statistics.fmean(walls) * 1e3
    out["metrics"] = {
        "setup_s": stats.median(setups),
        "peak_rss_mb": finished.maxrss_mb,
        "throughput_per_s": rate,
        "latency_ms": op_ms,
    }
    out["summary"] = [
        ("sim_req_per_s", rate, "1/s", f"{len(walls)} ops of {timed[0]['requests']} requests"),
        ("op_wall_ms", op_ms, "ms", f"mean, n={len(walls)}"),
        ("op_wall_ms p50", stats.median(walls) * 1e3, "ms", f"n={len(walls)}"),
        ("setup_s", stats.median(setups), "s", f"n={len(setups)}"),
        ("peak_rss_mb", finished.maxrss_mb, "MB", "worker process"),
    ]
    return out


if __name__ == "__main__":
    sys.exit(worker(sys.argv[1:]))
