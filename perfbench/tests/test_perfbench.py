"""Tests of the benchmark itself: ``python3 -m pytest -q perfbench/tests``.

None of them runs the program; they check the statistics, the load
generator's timing, the tracing fold, the metric catalogue and the
seeded inputs.
"""

import asyncio
import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench import cli_warm, loadgen, metrics, serve_mixed, sim_cold, stats, tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


# ------------------------------------------------------------ percentiles


def test_p99_needs_ten_samples_beyond_it():
    values = list(range(1, 1001))
    assert stats.percentile(values, 99) == 990  # 10 samples lie above it
    assert stats.percentile(values[:999], 99) is None  # only 9 would


def test_percentile_is_nearest_rank_on_unsorted_input():
    values = [float(v) for v in reversed(range(100))]
    assert stats.percentile(values, 50) == 49.0
    assert stats.percentile(values, 90) == 89.0
    assert stats.percentile(values, 91) is None


def test_summary_keeps_raw_samples_and_count():
    summary = stats.summary([3.0, 1.0, 2.0])
    assert summary == {"n": 3, "p50": 2.0, "p99": None, "samples": [3.0, 1.0, 2.0]}


# ---------------------------------------------------------- load generator


async def _stalling_server(stall_index: int, stall_s: float):
    seen = []

    async def handle(reader, writer):
        await reader.readuntil(b"\r\n\r\n")
        seen.append(len(seen))
        if seen[-1] == stall_index:
            await asyncio.sleep(stall_s)
        writer.write(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: close\r\n\r\nok")
        await writer.drain()
        writer.close()

    server = await asyncio.start_server(handle, "127.0.0.1", 0)
    return server, server.sockets[0].getsockname()[1]


def test_open_loop_times_from_due_time_so_a_stall_delays_later_requests():
    async def scenario():
        server, port = await _stalling_server(stall_index=2, stall_s=0.4)
        requests = [
            loadgen.Request("hot", "k", "GET", "/", due=i * 0.02) for i in range(8)
        ]
        async with server:
            return await loadgen.open_loop("127.0.0.1", port, requests, connections=1)

    responses = asyncio.run(scenario())
    assert [r.status for r in responses] == [200] * 8
    assert [r.body for r in responses] == [b"ok"] * 8
    assert responses[0].latency < 0.2
    # Requests due during the stall could not be sent until it ended:
    # their latency counts the wait, and the generator reports them late.
    for r in responses[3:6]:
        assert r.late > 0.25
        assert r.latency > 0.25
        assert r.latency >= r.done - r.start + r.late - 1e-9


def test_closed_loop_keeps_one_request_per_client_in_flight():
    async def scenario():
        server, port = await _stalling_server(stall_index=-1, stall_s=0.0)
        request = loadgen.Request("hot", "k", "GET", "/")
        async with server:
            return await loadgen.closed_loop(
                "127.0.0.1", port, lambda c, s: request, connections=2, seconds=0.3)

    responses, wall = asyncio.run(scenario())
    assert responses and wall > 0
    assert all(r.status == 200 for r in responses)
    assert all(r.late == 0 for r in responses)


# ------------------------------------------------------------------ tracing


def test_fold_layers_and_unattributed_sum_to_traced_wall():
    rec = tracer.Recorder()
    op = rec.add(tracer.OP, 0.0, 10.0, None)
    sim = rec.add("memsim.simulate", 1.0, 7.0, op)
    rec.add("stats.to_dict", 2.0, 3.0, sim)
    rec.add("cache.run_store", 7.5, 9.0, op)
    rec.add(tracer.OP, 20.0, 22.0, None)
    folded = tracer.fold(rec.spans)
    rows = folded["layers"]
    assert folded["wall_s"] == 12.0
    assert rows["memsim"]["self_s"] == 5.0
    assert rows["stats"]["self_s"] == 1.0
    assert rows["cache"]["self_s"] == 1.5
    assert rows[tracer.UNATTRIBUTED]["self_s"] == 4.5
    assert sum(r["self_s"] for r in rows.values()) == folded["wall_s"]
    assert "unattributed" in tracer.render_table("t", folded)


def test_wrap_records_nested_spans_and_uninstall_restores():
    import types

    module = types.ModuleType("perfbench_wrap_probe")

    class Store:
        def load(self, key):
            return key * 2

        @classmethod
        def make(cls):
            return cls()

    def outer(store):
        return store.load(3)

    module.Store, module.outer = Store, outer
    sys.modules[module.__name__] = module
    try:
        rec = tracer.Recorder()
        assert rec.wrap(module.__name__, "outer", "a.outer")
        assert rec.wrap(module.__name__, "Store.load", "b.load")
        assert rec.wrap(module.__name__, "Store.make", "b.make")
        assert not rec.wrap(module.__name__, "Store.missing", "b.missing")
        with rec.span(tracer.OP):
            assert module.outer(module.Store.make()) == 6
        names = [(s.name, s.parent) for s in rec.spans]
        assert names == [(tracer.OP, None), ("b.make", 0), ("a.outer", 0), ("b.load", 2)]
        assert module.outer(module.Store()) == 6  # outside an op: not recorded
        assert len(rec.spans) == 4
        rec.uninstall()
        assert module.outer is outer and "load" in vars(Store)
        assert Store.load is vars(Store)["load"]
    finally:
        del sys.modules[module.__name__]


def test_importtime_counts_outermost_package_entries_once():
    log = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy.core",
        "import time:        50 |        150 |   numpy",
        "import time:        10 |         10 |       scipy.special",
        "import time:        20 |         30 |     scipy",
        "import time:        40 |        200 |   scipy.stats",
        "import time:         5 |        400 | repro.reliability",
    ])
    assert tracer.importtime_cumulative(log, "numpy") == 150e-6
    assert tracer.importtime_cumulative(log, "scipy") == 200e-6
    assert tracer.importtime_cumulative(log, "repro") == 400e-6
    assert tracer.importtime_cumulative(log, "pandas") == 0.0


# --------------------------------------------------------- metric catalogue


def test_metric_names_and_units_are_legal_and_unique():
    names = [m[0] for m in metrics.END_TO_END] + [m[0] for m in metrics.PER_LAYER]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for unit in metrics.UNITS.values():
        assert UNIT.match(unit), unit
    assert all(m[2] in ("lower", "higher") for m in metrics.END_TO_END + metrics.PER_LAYER)
    assert all(0 < m[3] <= 0.25 for m in metrics.END_TO_END)
    setup = [m for m in metrics.END_TO_END if m[0] == "setup_s"]
    assert setup == [("setup_s", "s", "lower", max(m[3] for m in metrics.END_TO_END))]


def test_every_scheme_has_a_per_request_cost_metric():
    layer = {m[0] for m in metrics.PER_LAYER}
    assert len(metrics.SCHEMES) == 11
    for scheme in metrics.SCHEMES:
        assert metrics.scheme_metric(scheme) in layer


def test_benchmark_json_matches_the_catalogue():
    document = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(document) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert document["command"] == ["python3", "perfbench/run.py"]
    assert document["paths"] == ["perfbench"]
    expected = metrics.benchmark_document()
    assert document["end_to_end"] == expected["end_to_end"]
    assert document["per_layer"] == expected["per_layer"]
    names = [w["name"] for w in document["workloads"]]
    assert names == ["sim-cold", "cli-warm", "serve-mixed"]
    from perfbench.main import WORKLOADS

    assert set(names) == set(WORKLOADS)


# ------------------------------------------------------------- seeded inputs


def _open_loop_inputs(seed):
    plan, requests = serve_mixed.schedule(seed, 10.0, ["h1", "h2", "h3"])
    return plan.hot, [(r.cls, r.key, r.path, r.body, r.due) for r in requests]


def test_seeds_give_deterministic_inputs():
    assert _open_loop_inputs(7) == _open_loop_inputs(7)
    assert cli_warm.commands(7) == cli_warm.commands(7)


def test_different_seeds_give_different_inputs_of_equal_size():
    hot7, reqs7 = _open_loop_inputs(7)
    hot8, reqs8 = _open_loop_inputs(8)
    assert hot7 != hot8 and reqs7 != reqs8
    assert cli_warm.commands(7) != cli_warm.commands(8)
    # Only seeds vary: shapes and class counts do not.
    strip = lambda hot: [{k: v for k, v in doc.items() if k != "seed"} for doc in hot]
    assert strip(hot7) == strip(hot8)
    count = lambda reqs, cls: sum(1 for r in reqs if r[0] == cls)
    for cls in ("hot", "cold", "store"):
        assert count(reqs7, cls) == count(reqs8, cls)
    n = int(serve_mixed.RATE_PER_S * 10.0)
    assert len(reqs7) == n and count(reqs7, "cold") == round(n * serve_mixed.COLD_SHARE)


def test_open_loop_segments_keep_order_and_spacing():
    _plan, requests = serve_mixed.schedule(5, 10.0, ["h"])
    segments = serve_mixed._segments(requests, serve_mixed.SEGMENTS)
    assert len(segments) == serve_mixed.SEGMENTS
    flat = [r for segment in segments for r in segment]
    assert [r.key for r in flat] == [r.key for r in requests]
    for segment in segments:
        assert segment[0].due == 0.0
        gaps = {round(b.due - a.due, 9) for a, b in zip(segment, segment[1:])}
        assert gaps == {round(1 / serve_mixed.RATE_PER_S, 9)}


def test_cold_units_get_fresh_seeds():
    plan, requests = serve_mixed.schedule(3, 10.0, ["h"])
    cold = [json.loads(r.body)["seed"] for r in requests if r.cls == "cold"]
    hot = {doc["seed"] for doc in plan.hot}
    assert len(set(cold)) == len(cold) and not set(cold) & hot


def test_pinned_digest_is_recorded():
    assert re.fullmatch(r"[0-9a-f]{64}", sim_cold.PINNED["sim_cold_digest"])
