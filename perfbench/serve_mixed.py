"""``serve-mixed``: a ``readduo serve`` daemon under a mixed open loop.

Mostly hot multi-unit submits answered from the memo, a few
``GET /v1/store/<hash>`` reads, and 3% cold single-unit LWT-4 submits
with fresh seeds, at a fixed offered rate of a fifth to a quarter of the hot
closed-loop capacity. The cold units are the writes beside the reads: a
change that speeds up memo hits moves the median and the hot closed-loop
rate, one that makes cold units block hot ones moves the tail. A
closed-loop phase of hot submits only then measures the highest rate.

Set-up runs from the daemon's spawn through its health check and the
hot-set fill (one submit of each hot spec).
"""

from __future__ import annotations

import asyncio
import dataclasses
import http.client
import json
import os
import random
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from . import layers, procs, stats, tracer
from .loadgen import Request, Response, closed_loop, open_loop

HOST = "127.0.0.1"
SETUP_SAMPLES = 3
HOT_REQUESTS = 2_000
COLD_REQUESTS = 1_000
#: Offered rate of the open loop and its share of the run.
RATE_PER_S = 80.0
OPEN_SHARE = 0.6
COLD_SHARE = 0.03
STORE_SHARE = 0.05
#: Open- and closed-loop slices alternate this many times in a run (even,
#: so a traced run has as many closed slices with spans as without).
SEGMENTS = 6

#: Fixed shapes; only their seeds come from the run's seed, so every seed
#: asks the daemon for the same amount of work.
HOT_SHAPES: Tuple[Dict[str, List[str]], ...] = (
    {"schemes": ["Hybrid", "TLC", "LWT-4", "Select-4:2"], "workloads": ["gcc", "mcf"]},
    {"schemes": ["Ideal", "Scrubbing-W0", "M-metric"], "workloads": ["mcf"]},
    {"schemes": ["LWT-2", "Select-4:1"], "workloads": ["gcc", "lbm"]},
    {"schemes": ["Hybrid", "Select-4:2"], "workloads": ["milc"]},
)
COLD_SHAPE = {"schemes": ["LWT-4"], "workloads": ["mcf"]}


@dataclass
class Inputs:
    hot: List[Dict[str, Any]]
    cold_seeds: List[int]
    rng: random.Random


def inputs(seed: int, n_cold: int) -> Inputs:
    rng = random.Random(seed)
    seeds = rng.sample(range(1, 2**31), len(HOT_SHAPES) + n_cold)
    hot = [
        {**shape, "target_requests": HOT_REQUESTS, "seed": s}
        for shape, s in zip(HOT_SHAPES, seeds)
    ]
    return Inputs(hot=hot, cold_seeds=seeds[len(HOT_SHAPES):], rng=rng)


def _hot_request(index: int, doc: Dict[str, Any]) -> Request:
    return Request("hot", f"hot{index}", "POST", "/v1/submit", json.dumps(doc).encode())


def schedule(seed: int, seconds: float, store_keys: List[str]) -> Tuple[Inputs, List[Request]]:
    """The open loop's requests: a seeded shuffle of fixed class counts,
    evenly spaced at :data:`RATE_PER_S`."""
    n = max(1, int(RATE_PER_S * seconds))
    n_cold = round(n * COLD_SHARE)
    n_store = round(n * STORE_SHARE) if store_keys else 0
    plan = inputs(seed, n_cold)
    classes = ["cold"] * n_cold + ["store"] * n_store + ["hot"] * (n - n_cold - n_store)
    plan.rng.shuffle(classes)
    cold_seeds = iter(plan.cold_seeds)
    requests: List[Request] = []
    for i, cls in enumerate(classes):
        if cls == "hot":
            k = plan.rng.randrange(len(plan.hot))
            request = _hot_request(k, plan.hot[k])
        elif cls == "store":
            key = plan.rng.choice(store_keys)
            request = Request("store", f"store:{key}", "GET", f"/v1/store/{key}")
        else:
            doc = {**COLD_SHAPE, "target_requests": COLD_REQUESTS, "seed": next(cold_seeds)}
            request = Request("cold", f"cold{i}", "POST", "/v1/submit", json.dumps(doc).encode())
        request.due = i / RATE_PER_S
        requests.append(request)
    return plan, requests


# ------------------------------------------------------------------ daemon


def _http(port: int, method: str, path: str, body: bytes = b"") -> Tuple[int, bytes]:
    conn = http.client.HTTPConnection(HOST, port, timeout=60)
    try:
        conn.request(method, path, body=body, headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


@dataclass
class Daemon:
    child: procs.Child
    port: int
    setup_s: float = 0.0
    store_keys: List[str] = field(default_factory=list)

    def stats(self) -> Dict[str, Any]:
        status, body = _http(self.port, "GET", "/v1/stats")
        if status != 200:
            raise procs.BenchError(f"/v1/stats answered {status}")
        return json.loads(body)


def start_daemon(hot: List[Dict[str, Any]]) -> Daemon:
    cache = procs.fresh_dir("serve-")
    port = procs.free_port()
    child = procs.Child(procs.program("serve", "--port", str(port)), procs.program_env(cache))
    daemon = Daemon(child, port)
    try:
        if len(procs.CPUS) > 1:
            # Before the daemon starts any thread, so all of them inherit it.
            os.sched_setaffinity(child.pid, procs.CPUS[:1])
        while True:
            if child.proc.poll() is not None:
                child.finish().check("readduo serve")
                raise procs.BenchError("readduo serve exited at start")
            try:
                if _http(port, "GET", "/v1/health")[0] == 200:
                    break
            except OSError:
                pass
            time.sleep(0.02)
        for doc in hot:
            status, body = _http(port, "POST", "/v1/submit?stream=1", json.dumps(doc).encode())
            if status != 200:
                raise procs.BenchError(f"hot-set fill answered {status}")
            for line in body.splitlines():
                event = json.loads(line)
                if event.get("kind") == "error":
                    raise procs.BenchError(f"hot-set fill failed: {event}")
                if event.get("run_hash") and event["run_hash"] not in daemon.store_keys:
                    daemon.store_keys.append(event["run_hash"])
        daemon.setup_s = time.perf_counter() - child.started
    except BaseException:
        child.stop()
        raise
    return daemon


def stop_daemon(daemon: Daemon) -> None:
    daemon.child.stop()


# ------------------------------------------------------------- correctness


def reference_runs(docs: List[Dict[str, Any]]) -> List[Any]:
    """The ``runs`` of the in-process ``sweep_payload`` for each spec."""
    procs.use_program_in_process()
    from repro.experiments.spec import SimSpec
    from repro.service import ExecutionService, sweep_payload

    out = []
    with ExecutionService(jobs=1, cache=False) as service:
        for doc in docs:
            spec = SimSpec.from_dict(doc)
            payload = sweep_payload(spec, service.sweep(spec))
            out.append(json.loads(json.dumps(payload, sort_keys=True))["runs"])
    return out


def check(responses: List[Response], hot: List[Dict[str, Any]]) -> int:
    """Correctness gates; returns the number of failed requests.

    Any non-200 fails. Every hot response must carry the in-process
    ``runs`` of its spec (the rest of the body reports how the daemon
    resolved it, which differs between requests). Every store read of a
    key must repeat the first byte for byte. A cold submit must answer
    for exactly the unit it asked for.
    """
    reference = reference_runs(hot)
    first: Dict[str, bytes] = {}
    failed = 0
    for r in responses:
        ok = r.status == 200
        if ok and r.request.cls == "store":
            ok = r.body == first.setdefault(r.request.key, r.body)
        elif ok:
            doc = json.loads(r.body)
            want = json.loads(r.request.body)
            if r.request.cls == "hot":
                ok = doc["runs"] == reference[int(r.request.key[3:])]
            else:
                ok = list(doc["runs"]) == ["mcf"] and list(doc["runs"]["mcf"]) == ["LWT-4"]
            ok = ok and doc["seed"] == want["seed"]
        failed += not ok
    return failed


# ------------------------------------------------------------------- phases


def _segments(requests: List[Request], count: int) -> List[List[Request]]:
    """Split the open-loop schedule into ``count`` consecutive slices, each
    with due times counted from its own first request."""
    size = -(-len(requests) // count)
    out = []
    for start in range(0, len(requests), size):
        part = requests[start:start + size]
        base = part[0].due
        out.append([dataclasses.replace(r, due=r.due - base) for r in part])
    return out


def _ms_p50(values: List[float]) -> float:
    return stats.median(values) * 1e3 if values else 0.0


def run(seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    open_s = seconds * OPEN_SHARE
    closed_s = seconds - open_s
    n_conn = procs.connections()
    hot = inputs(seed, 0).hot
    setups: List[float] = []
    if len(procs.CPUS) > 1:
        # The daemon gets the first CPU, this load generator the others: a
        # fixed placement, so runs do not differ by where the scheduler
        # happened to put the two processes.
        os.sched_setaffinity(0, procs.CPUS[1:])
    try:
        if not trace:
            for _ in range(SETUP_SAMPLES - 1):
                daemon = start_daemon(hot)
                setups.append(daemon.setup_s)
                stop_daemon(daemon)
        daemon = start_daemon(hot)
    except BaseException:
        os.sched_setaffinity(0, procs.CPUS)
        raise
    setups.append(daemon.setup_s)
    recorder = tracer.Recorder() if trace else None
    try:
        _plan, requests = schedule(seed, open_s, daemon.store_keys)
        hot_requests = [_hot_request(k, doc) for k, doc in enumerate(hot)]

        def make(client: int, sequence: int) -> Request:
            return hot_requests[(client + sequence * n_conn) % len(hot_requests)]

        pid = daemon.child.pid
        before = daemon.stats()["counters"]
        opened: List[Response] = []
        plain: List[Response] = []  # closed loop, no client spans
        traced: List[Response] = []  # closed loop, client spans (traced runs)
        plain_s = traced_s = cpu_open = cpu_plain = 0.0
        # The two loops alternate in SEGMENTS slices across the whole run,
        # so each samples every state the host passes through during it.
        for index, segment in enumerate(_segments(requests, SEGMENTS)):
            cpu0 = procs.cpu_seconds(pid)
            opened += asyncio.run(open_loop(HOST, daemon.port, segment, n_conn, recorder))
            cpu1 = procs.cpu_seconds(pid)
            spans_on = trace and index % 2 == 1
            done, wall = asyncio.run(closed_loop(
                HOST, daemon.port, make, n_conn, closed_s / SEGMENTS,
                recorder if spans_on else None))
            cpu_open += cpu1 - cpu0
            if spans_on:
                traced += done
                traced_s += wall
            else:
                plain += done
                plain_s += wall
                cpu_plain += procs.cpu_seconds(pid) - cpu1
        after = daemon.stats()["counters"]
        rss_mb = procs.vm_hwm_mb(pid)
    finally:
        stop_daemon(daemon)
        os.sched_setaffinity(0, procs.CPUS)

    closed, closed_wall = plain + traced, plain_s + traced_s
    responses = opened + closed
    failed = check(responses, hot)
    latencies = [r.latency for r in opened]
    by_class = {
        cls: [r.latency for r in opened if r.request.cls == cls]
        for cls in ("hot", "cold", "store")
    }
    p50_ms = stats.median(latencies) * 1e3
    p99 = stats.percentile(latencies, 99)
    p99_ms = p99 * 1e3 if p99 is not None else 0.0
    max_rate = len(closed) / closed_wall
    record: Dict[str, Any] = {
        "setup_s": setups,
        "open_loop": {
            "offered_per_s": RATE_PER_S,
            "connections": n_conn,
            "latency_s": stats.summary(latencies),
            "late_s": stats.summary([r.late for r in opened]),
            "by_class_n": {cls: len(v) for cls, v in by_class.items()},
        },
        "closed_loop": {"completed": len(closed), "wall_s": closed_wall},
        "daemon_cpu_s": {"open": cpu_open, "closed_plain": cpu_plain},
        "counters_before": before,
        "counters_after": after,
    }
    out: Dict[str, Any] = {
        "attempted": len(responses),
        "failed": failed,
        "record": record,
    }
    if trace:
        delta = {k: after.get(k, 0) - before.get(k, 0) for k in after}
        requested = delta.get("units_requested", 0)
        layer = layers.zero_metrics()
        late = stats.percentile([r.late for r in opened], 99)
        layer.update({
            "server.cpu_ms_per_req.hot": cpu_plain * 1e3 / len(plain),
            "server.cpu_ms_per_req.mixed": cpu_open * 1e3 / len(opened),
            "server.hot_ms_p50": _ms_p50(by_class["hot"]),
            "server.cold_ms_p50": _ms_p50(by_class["cold"]),
            "server.store_ms_p50": _ms_p50(by_class["store"]),
            "server.connect_ms_p50": _ms_p50([r.connected - r.start for r in responses]),
            "server.coalescing_ratio": (
                delta.get("units_coalesced", 0) / requested if requested else 0.0),
            "server.tier_memo": delta.get("tier_memo", 0),
            "server.tier_simulated": delta.get("tier_simulated", 0),
            "server.rejected": delta.get("rejected_queue_full", 0)
            + delta.get("rejected_client_limit", 0),
            "loadgen.p99_ms": p99_ms,
            "loadgen.late_ms_p99": late * 1e3 if late is not None else 0.0,
        })
        # Seconds per closed-loop request with and without client spans.
        out.update(layers.finish_trace(
            recorder, layer, f"serve-mixed-seed{seed}",
            traced_s / len(traced), plain_s / len(plain),
        ))
        return out
    out["metrics"] = {
        "setup_s": stats.median(setups),
        "peak_rss_mb": rss_mb,
        "throughput_per_s": max_rate,
        "latency_ms": p50_ms,
    }
    out["summary"] = [
        ("serve_p50_ms", p50_ms, "ms", f"n={len(latencies)} at {RATE_PER_S:g}/s offered"),
        ("serve_p99_ms", p99_ms, "ms",
         f"n={len(latencies)}" + ("" if p99 is not None else " (too few samples: 0)")),
        ("serve_max_req_per_s", max_rate, "1/s", f"{len(closed)} hot in {closed_wall:.2f} s, {n_conn} conn"),
        ("hot_ms_p50", _ms_p50(by_class["hot"]), "ms", f"n={len(by_class['hot'])}"),
        ("cold_ms_p50", _ms_p50(by_class["cold"]), "ms", f"n={len(by_class['cold'])}"),
        ("setup_s", stats.median(setups), "s", f"n={len(setups)}"),
        ("peak_rss_mb", rss_mb, "MB", "daemon VmHWM"),
    ]
    return out

