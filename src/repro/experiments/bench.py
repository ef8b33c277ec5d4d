"""Shared benchmark scenarios for the CLI and the benchmark harness.

``readduo bench`` and ``benchmarks/test_bench_sweep_scaling.py`` both
call the functions here, so the numbers recorded in
``results/BENCH_sweep.json`` come from one code path no matter which
entry point produced them. Each scenario returns a plain dict (one JSON
section); :func:`merge_into_bench_json` folds sections into the results
file without clobbering sections written by other scenarios.

The canonical single-run scenario is mcf/Hybrid at ``requests``
demand reads with trace and policy seed 42 — the same configuration the
pre-optimization engine (PR 1 baseline) measured ~34k requests/s on, so
``requests_per_s`` stays comparable across commits.
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple

__all__ = [
    "DEFAULT_BENCH_REQUESTS",
    "BENCH_HISTORY_NAME",
    "bench_meta",
    "bench_single_run",
    "bench_telemetry_overhead",
    "bench_batch_kernel",
    "bench_cli_run_all_warm",
    "bench_serve",
    "merge_into_bench_json",
    "append_bench_history",
    "load_bench_history",
    "run_bench_suite",
    "run_serve_bench",
]

#: Append-only per-invocation history beside BENCH_sweep.json; the input
#: of ``readduo report --bench`` (latest vs previous regression check).
BENCH_HISTORY_NAME = "BENCH_history.jsonl"

#: Requests per trace for the paper-scale scenarios (overridable by the
#: CLI's ``--requests`` and the harness's ``READDUO_BENCH_REQUESTS``).
DEFAULT_BENCH_REQUESTS = 30_000


def bench_meta(requests: int, jobs: int) -> Dict:
    """Run metadata recorded alongside benchmark numbers.

    Throughput figures are only comparable across commits when the
    machine and configuration match; this block makes the context of a
    recorded number auditable.
    """
    from .. import __version__

    return {
        "package_version": __version__,
        "python_version": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "bench_requests": requests,
        "bench_jobs": jobs,
        "bench_jobs_env": os.environ.get("READDUO_BENCH_JOBS"),
    }


def _time(fn: Callable) -> Tuple[object, float]:
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def _best_of(fn: Callable, repeats: int = 3) -> float:
    return min(_time(fn)[1] for _ in range(repeats))


def _scenario(requests: int):
    """Build the canonical mcf/Hybrid benchmark scenario.

    Returns ``(trace, make_policy_fn, config)`` where the policy factory
    yields a fresh seed-42 Hybrid policy per run (policies carry mutable
    per-run state, traces do not).
    """
    from ..traces.spec import workload
    from .spec import SimSpec

    spec = SimSpec(
        schemes=("Hybrid",), workloads=("mcf",), target_requests=requests, seed=42
    )
    profile = workload("mcf")
    return (
        spec.trace_for("mcf"),
        lambda: spec.make_policy("Hybrid", profile),
        spec.config,
    )


def bench_single_run(requests: int) -> Dict:
    """One paper-scale run; records engine requests/s for cross-commit diffs."""
    from ..memsim.engine import simulate

    trace, fresh_policy, config = _scenario(requests)

    def one_run():
        return simulate(trace, fresh_policy(), config)

    one_run()  # warm-up
    best = _best_of(one_run)
    return {
        "workload": "mcf",
        "scheme": "Hybrid",
        "requests": len(trace),
        "seconds": best,
        "requests_per_s": len(trace) / best,
    }


def bench_telemetry_overhead(requests: int) -> Dict:
    """Compare telemetry-off vs full tracing+metrics runs of one trace.

    Raises ``AssertionError`` if the instrumented run's statistics differ
    from the plain run's — telemetry observes, never perturbs.
    """
    from ..memsim.engine import simulate
    from ..obs import MetricsRegistry, Telemetry, Tracer

    trace, fresh_policy, config = _scenario(max(4_000, requests // 3))

    def run(telemetry):
        return simulate(trace, fresh_policy(), config, telemetry=telemetry)

    run(None)  # warm-up
    plain_stats = run(None)
    disabled_s = _best_of(lambda: run(None))

    def traced():
        return run(Telemetry(tracer=Tracer(), metrics=MetricsRegistry()))

    traced_stats, _ = _time(traced)
    enabled_s = _best_of(traced)

    assert traced_stats == plain_stats  # telemetry observes, never perturbs

    return {
        "workload": "mcf",
        "scheme": "Hybrid",
        "requests": len(trace),
        "disabled_s": disabled_s,
        "disabled_requests_per_s": len(trace) / disabled_s,
        "enabled_s": enabled_s,
        "enabled_requests_per_s": len(trace) / enabled_s,
        "enabled_overhead_pct": 100.0 * (enabled_s - disabled_s) / disabled_s,
    }


def bench_batch_kernel(requests: int) -> Dict:
    """Time the batch kernel against the event-level scalar oracle.

    Runs the canonical scenario once per engine, asserts the results are
    bit-for-bit identical (``to_dict`` equality — the property the
    equivalence suite checks exhaustively), then times both engines and
    records the speedup. The scalar leg runs at a reduced request count
    when ``requests`` is large so the oracle timing stays affordable;
    both engines' requests/s are normalized per-request so the speedup
    is still comparable.
    """
    from ..memsim.engine import simulate

    trace, fresh_policy, config = _scenario(requests)

    def run(engine: str):
        return simulate(trace, fresh_policy(), config, engine=engine)

    batch_stats = run("batch")  # warm-up doubles as the equivalence input
    scalar_stats = run("event")
    assert batch_stats.to_dict() == scalar_stats.to_dict(), (
        "batch engine diverged from the event-level oracle"
    )

    batch_s = _best_of(lambda: run("batch"))
    scalar_s = _best_of(lambda: run("event"))
    batch_rps = len(trace) / batch_s
    scalar_rps = len(trace) / scalar_s
    return {
        "workload": "mcf",
        "scheme": "Hybrid",
        "requests": len(trace),
        "scalar_s": scalar_s,
        "scalar_requests_per_s": scalar_rps,
        "batch_s": batch_s,
        "batch_requests_per_s": batch_rps,
        "speedup": scalar_s / batch_s,
        "equivalence_check": "bit-for-bit",
    }


def bench_cli_run_all_warm(repeats: int = 3) -> Dict:
    """Time a warm ``readduo run all --quick`` process.

    One cold fill in a fresh temporary cache, then ``repeats`` warm
    processes against it; records their median wall time
    (``cli.run_all_warm_s`` in the history) and raises
    ``AssertionError`` if a warm process printed other bytes than the
    cold fill.
    """
    import statistics
    import subprocess
    import sys
    import tempfile

    source_root = str(Path(__file__).resolve().parents[2])
    argv = [sys.executable, "-m", "repro", "run", "all", "--quick"]
    with tempfile.TemporaryDirectory(prefix="readduo-bench-run-") as tmp:
        env = dict(os.environ, READDUO_SWEEP_CACHE=str(Path(tmp) / "cache"))
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (source_root, os.environ.get("PYTHONPATH")) if p
        )

        def run() -> Tuple[bytes, float]:
            start = time.perf_counter()
            done = subprocess.run(
                argv, cwd=tmp, env=env, capture_output=True, check=True
            )
            return done.stdout, time.perf_counter() - start

        cold, cold_s = run()
        warm = [run() for _ in range(repeats)]
    assert all(out == cold for out, _ in warm), (
        "a warm `run all --quick` printed other bytes than the cold fill"
    )
    return {
        "command": "run all --quick",
        "run_all_cold_s": cold_s,
        "run_all_warm_s": statistics.median(seconds for _, seconds in warm),
        "warm_runs": repeats,
    }


def _percentile_ms(sorted_latencies_s: list, q: float) -> float:
    """The q-th percentile of pre-sorted per-request latencies, in ms."""
    if not sorted_latencies_s:
        return 0.0
    index = min(len(sorted_latencies_s) - 1, int(q / 100.0 * len(sorted_latencies_s)))
    return sorted_latencies_s[index] * 1000.0


def bench_serve(
    requests_total: int = 2_000,
    distinct_units: int = 10,
    concurrency: int = 256,
    sim_requests: int = 400,
    executor_workers: int = 4,
    log: Optional[Callable[[str], None]] = None,
) -> Dict:
    """Load-test the serve daemon in-process: latency and coalescing.

    Stands up a :class:`~repro.service.server.SimServer` on a free
    loopback port (persistent cache off, so every distinct unit really
    simulates once), then fires ``requests_total`` HTTP submits spread
    round-robin over ``distinct_units`` single-unit specs (one workload,
    one scheme, distinct seeds). All requests race concurrently (bounded
    by ``concurrency`` open connections); the duplication factor of
    ``requests_total / distinct_units`` is the coalescing opportunity.

    Records per-request wall latency (p50/p99), end-to-end throughput,
    and the server's own coalescing accounting — the headline claim is
    ``units_simulated == distinct_units``: thousands of requests,
    exactly one *simulation* per distinct unit (concurrent duplicates
    coalesce onto the in-flight execution; later duplicates hit the
    in-process memo).

    ``executor_workers`` sizes the daemon's submit executor pool; the
    tail latency (p99) is dominated by head-of-line blocking when the
    pool is 1 — memo-warm submits queue behind multi-hundred-ms
    simulations — so the recorded pool size is part of the number's
    context.
    """
    import asyncio

    from ..service.client import ServeClient, ServeError
    from ..service.server import ServeConfig, SimServer

    def say(msg: str) -> None:
        if log is not None:
            log(msg)

    documents = [
        {
            "schemes": ["Ideal"],
            "workloads": ["gcc"],
            "target_requests": sim_requests,
            "seed": 1000 + index,
        }
        for index in range(distinct_units)
    ]

    async def drive() -> Dict:
        server = SimServer(ServeConfig(
            port=0,
            cache=False,
            max_pending=requests_total + 1,
            max_inflight_per_client=requests_total + 1,
            executor_workers=executor_workers,
        ))
        await server.start()
        try:
            client = ServeClient(port=server.port, client_id="bench-serve")
            gate = asyncio.Semaphore(concurrency)
            latencies: list = []
            rejected = 0
            errors = 0

            async def one(index: int) -> None:
                nonlocal rejected, errors
                async with gate:
                    start = time.perf_counter()
                    try:
                        await client.submit(documents[index % distinct_units])
                    except ServeError as exc:
                        if exc.status == 429:
                            rejected += 1
                        else:
                            errors += 1
                        return
                    latencies.append(time.perf_counter() - start)

            started = time.perf_counter()
            await asyncio.gather(*(one(i) for i in range(requests_total)))
            elapsed = time.perf_counter() - started

            # Head-of-line probe: start one long *cold* simulation, then
            # serially submit known-warm duplicates while it runs. With a
            # single executor thread each warm submit queues behind the
            # simulation (p99 ~ the sim's full duration); with a pool it
            # resolves from the memo in milliseconds. This isolates the
            # tail-latency failure mode the executor pool exists to fix,
            # independent of how many cores the host has.
            # Fixed size, deliberately much larger than the storm units:
            # the vectorized engine clears ~1M requests/s, so a small
            # "long" sim would finish inside the warm-up sleep.
            long_doc = {
                "schemes": ["Hybrid"],
                "workloads": ["mcf"],
                "target_requests": 400_000,
                "seed": 7777,
            }
            long_task = asyncio.ensure_future(client.submit(long_doc))
            await asyncio.sleep(0.1)  # let the long sim occupy a thread
            probe: list = []
            for _ in range(20):
                probe_start = time.perf_counter()
                await client.submit(documents[0])
                probe.append(time.perf_counter() - probe_start)
            await long_task
            probe.sort()

            stats = server.stats()
            latencies.sort()
            return {
                "requests_total": requests_total,
                "distinct_units": distinct_units,
                "concurrency": concurrency,
                "sim_requests": sim_requests,
                "executor_workers": executor_workers,
                "completed": len(latencies),
                "rejected": rejected,
                "errors": errors,
                "seconds": elapsed,
                "requests_per_s": len(latencies) / elapsed if elapsed else 0.0,
                "latency_p50_ms": _percentile_ms(latencies, 50),
                "latency_p99_ms": _percentile_ms(latencies, 99),
                "hol_probe_p50_ms": _percentile_ms(probe, 50),
                "hol_probe_p99_ms": _percentile_ms(probe, 99),
                "coalescing_ratio": stats["coalescing_ratio"],
                "units_requested": stats["counters"]["units_requested"],
                "units_owned": stats["counters"]["units_owned"],
                "units_coalesced": stats["counters"]["units_coalesced"],
                "units_simulated": stats["counters"].get("tier_simulated", 0),
                "units_memo": stats["counters"].get("tier_memo", 0),
            }
        finally:
            await server.stop()

    say(
        f"serve: {requests_total} concurrent submits over "
        f"{distinct_units} distinct unit(s) ..."
    )
    result = asyncio.run(drive())
    say(
        f"  p50 {result['latency_p50_ms']:.1f}ms, "
        f"p99 {result['latency_p99_ms']:.1f}ms, "
        f"warm-behind-cold p99 {result['hol_probe_p99_ms']:.1f}ms "
        f"(pool={executor_workers}), "
        f"coalescing ratio {result['coalescing_ratio']:.3f} "
        f"({result['units_simulated']} of {result['units_requested']} "
        f"requested units simulated)"
    )
    return result


def run_serve_bench(
    results_dir: Path,
    requests_total: int = 2_000,
    distinct_units: int = 10,
    concurrency: int = 256,
    sim_requests: int = 400,
    executor_workers: int = 4,
    log: Optional[Callable[[str], None]] = None,
) -> Dict:
    """Run the serve load test and write ``results/BENCH_serve.json``.

    Before overwriting, the previous file's headline numbers (p50/p99
    and its executor pool size) are carried into ``meta["previous"]`` so
    a single results file still shows the change a pool-size bump made.
    """
    results_dir = Path(results_dir)
    results_dir.mkdir(exist_ok=True)
    path = results_dir / "BENCH_serve.json"
    previous = None
    if path.exists():
        try:
            old = json.loads(path.read_text()).get("serve", {})
            previous = {
                "latency_p50_ms": old.get("latency_p50_ms"),
                "latency_p99_ms": old.get("latency_p99_ms"),
                # Pre-pool builds ran a single owner-execution thread.
                "executor_workers": old.get("executor_workers", 1),
            }
        except ValueError:
            previous = None
    meta = bench_meta(sim_requests, 1)
    if previous is not None:
        meta["previous"] = previous
    payload = {
        "meta": meta,
        "serve": bench_serve(
            requests_total=requests_total,
            distinct_units=distinct_units,
            concurrency=concurrency,
            sim_requests=sim_requests,
            executor_workers=executor_workers,
            log=log,
        ),
    }
    if executor_workers > 1:
        # A same-run single-thread baseline makes the pool's effect
        # auditable from this one file: compare serve.hol_probe_p99_ms
        # against serve_pool1.hol_probe_p99_ms.
        payload["serve_pool1"] = bench_serve(
            requests_total=requests_total,
            distinct_units=distinct_units,
            concurrency=concurrency,
            sim_requests=sim_requests,
            executor_workers=1,
            log=log,
        )
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return payload


def merge_into_bench_json(results_dir: Path, fragment: Dict) -> Path:
    """Accumulate sections into results/BENCH_sweep.json across scenarios."""
    path = Path(results_dir) / "BENCH_sweep.json"
    payload: Dict = {}
    if path.exists():
        try:
            payload = json.loads(path.read_text())
        except ValueError:
            payload = {}
    payload.update(fragment)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def append_bench_history(results_dir: Path, payload: Dict) -> Path:
    """Append one suite run to ``results/BENCH_history.jsonl``.

    Where ``BENCH_sweep.json`` keeps only the latest numbers (merged in
    place), the history file keeps every invocation — one JSON line per
    suite run, stamped with the wall-clock time — so regressions are
    detectable by comparing the last two lines.
    """
    path = Path(results_dir) / BENCH_HISTORY_NAME
    entry = dict(payload)
    entry["t_s"] = time.time()
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(entry, sort_keys=True))
        handle.write("\n")
    return path


def load_bench_history(path: Path) -> list:
    """Parse a history file into entry dicts, skipping unreadable lines."""
    entries = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            entry = json.loads(line)
        except ValueError:
            continue
        if isinstance(entry, dict):
            entries.append(entry)
    return entries


def run_bench_suite(
    results_dir: Path,
    requests: int = DEFAULT_BENCH_REQUESTS,
    jobs: Optional[int] = None,
    log: Optional[Callable[[str], None]] = None,
) -> Dict:
    """Run the single-run, telemetry, batch-kernel and warm-CLI scenarios.

    Writes each section into ``results/BENCH_sweep.json`` as it
    completes (so a crash mid-suite still records finished sections) and
    returns the merged payload. This is the ``readduo bench`` entry
    point; the benchmark harness calls the same scenario functions
    individually (plus the sweep-scaling scenario, which needs pytest's
    tmp-path cache isolation).
    """
    def say(msg: str) -> None:
        if log is not None:
            log(msg)

    results_dir = Path(results_dir)
    results_dir.mkdir(exist_ok=True)
    jobs = jobs if jobs is not None else (os.cpu_count() or 1)

    say(f"single_run: mcf/Hybrid at {requests} requests ...")
    single = bench_single_run(requests)
    merge_into_bench_json(
        results_dir,
        {"single_run": single, "meta": bench_meta(requests, jobs)},
    )
    say(f"  {single['requests_per_s']:.0f} requests/s")

    say("telemetry_overhead: disabled vs tracing+metrics ...")
    overhead = bench_telemetry_overhead(requests)
    merge_into_bench_json(results_dir, {"telemetry_overhead": overhead})
    say(f"  {overhead['enabled_overhead_pct']:.1f}% enabled overhead")

    say("batch_kernel: batch engine vs event-level oracle ...")
    kernel = bench_batch_kernel(requests)
    merge_into_bench_json(results_dir, {"batch_kernel": kernel})
    say(
        f"  {kernel['speedup']:.1f}x over scalar "
        f"({kernel['batch_requests_per_s']:.0f} vs "
        f"{kernel['scalar_requests_per_s']:.0f} requests/s)"
    )

    say("cli: warm `readduo run all --quick` after a cold fill ...")
    cli = bench_cli_run_all_warm()
    merge_into_bench_json(results_dir, {"cli": cli})
    say(
        f"  {cli['run_all_warm_s']:.2f}s warm "
        f"({cli['run_all_cold_s']:.2f}s cold fill)"
    )

    payload = json.loads(
        (results_dir / "BENCH_sweep.json").read_text()
    )
    append_bench_history(results_dir, payload)
    return payload
