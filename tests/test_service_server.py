"""Tests for the serve daemon (repro.service.server) and its client.

All tests run a real :class:`SimServer` on a loopback port inside
``asyncio.run`` (plain sync test functions — no pytest-asyncio
dependency) and talk to it over actual HTTP through
:class:`~repro.service.client.ServeClient`.
"""

import asyncio
import json

import pytest

from repro.service.client import ServeClient, ServeError
from repro.service.server import ServeConfig, SimServer



DOC = {"schemes": ["Ideal"], "workloads": ["gcc"], "target_requests": 400}


def _config(**overrides):
    defaults = dict(port=0, cache=False, max_pending=64,
                    max_inflight_per_client=64)
    defaults.update(overrides)
    return ServeConfig(**defaults)


async def _with_server(config, body):
    server = SimServer(config)
    await server.start()
    try:
        return await body(server, ServeClient(port=server.port, client_id="test"))
    finally:
        await server.stop()


def run(body, **config_overrides):
    return asyncio.run(_with_server(_config(**config_overrides), body))


class TestEndpoints:
    def test_health(self):
        async def body(server, client):
            return await client.health()

        payload = run(body)
        assert payload["status"] == "ok"
        assert payload["pending"] == 0

    def test_schemes_catalog(self):
        async def body(server, client):
            return await client.schemes()

        catalog = run(body)
        names = [entry["name"] for entry in catalog["schemes"]]
        assert "Hybrid" in names and "LWT-4" in names
        assert catalog["alias_prefix"] == "readduo-"
        assert any(
            f["syntax"].startswith("LWT-") for f in catalog["families"]
        )

    def test_unknown_route_404(self):
        async def body(server, client):
            status, _headers, blob = await client.request("GET", "/nope")
            return status, json.loads(blob)

        status, payload = run(body)
        assert status == 404
        assert "error" in payload

    def test_wrong_method_405(self):
        async def body(server, client):
            status, _headers, _blob = await client.request("GET", "/v1/submit")
            return status

        assert run(body) == 405

    def test_invalid_spec_400(self):
        async def body(server, client):
            try:
                await client.submit({"schemes": ["NoSuchScheme"]})
            except ServeError as exc:
                return exc.status, exc.payload
            return None

        status, payload = run(body)
        assert status == 400
        assert "unknown schemes" in payload["error"]

    @pytest.mark.parametrize(
        "scheme",
        ["LWT-3", "LWT-0", "Select-4:0", "Precise-2.99", "Nope" + "+trunc" * 40],
    )
    def test_out_of_range_family_parameter_400(self, scheme):
        # The name matches a family pattern but its parameter is out of
        # range: a validation error before any unit runs, not a 500.
        async def body(server, client):
            try:
                await client.submit({**DOC, "schemes": [scheme]})
            except ServeError as exc:
                return exc.status, exc.payload, server.counters["errors"]
            return None

        status, payload, errors = run(body)
        assert status == 400
        assert "unknown schemes" in payload["error"]
        assert errors == 0

    def test_invalid_json_400(self):
        async def body(server, client):
            status, _headers, _blob = await client.request(
                "POST", "/v1/submit", body=None
            )
            # An empty body parses as {} (a valid default spec would be
            # huge); send actual garbage through a raw socket instead.
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            payload = b"{not json"
            writer.write(
                b"POST /v1/submit HTTP/1.1\r\nHost: x\r\n"
                b"Connection: close\r\n"
                + f"Content-Length: {len(payload)}\r\n\r\n".encode()
                + payload
            )
            await writer.drain()
            raw = await reader.read(-1)
            writer.close()
            await writer.wait_closed()
            return raw

        raw = run(body)
        assert b"400" in raw.split(b"\r\n", 1)[0]


async def _raw_exchange(port, request, half_close=False):
    """Send raw bytes (optionally half-closing), return the raw response."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(request)
    await writer.drain()
    if half_close:
        writer.write_eof()
    raw = await reader.read(-1)
    writer.close()
    await writer.wait_closed()
    return raw


class TestMalformedRequests:
    @pytest.mark.parametrize(
        "request_bytes, half_close",
        [
            (b"GARBAGE\r\n\r\n", False),
            (b"POST /v1/submit HTTP/1.1\r\nContent-Length: abc\r\n\r\n", False),
            (b"POST /v1/submit HTTP/1.1\r\nContent-Length: -5\r\n\r\n", False),
            (
                b"POST /v1/submit HTTP/1.1\r\nContent-Length: 100\r\n\r\n{\"sch",
                True,
            ),
        ],
        ids=["request-line", "length-abc", "length-negative", "truncated-body"],
    )
    def test_bad_input_gets_400_without_error(self, caplog, request_bytes, half_close):
        async def body(server, client):
            raw = await _raw_exchange(server.port, request_bytes, half_close)
            health = await client.health()
            return raw, server.counters["errors"], health

        raw, errors, health = run(body)
        head, _, blob = raw.partition(b"\r\n\r\n")
        assert head.split(b"\r\n", 1)[0] == b"HTTP/1.1 400 Bad Request"
        assert "error" in json.loads(blob)
        assert errors == 0
        assert health["status"] == "ok"
        assert not any(record.exc_info for record in caplog.records)


class TestSubmit:
    def test_submit_returns_sweep_payload_shape(self):
        async def body(server, client):
            return await client.submit(DOC)

        payload = run(body)
        assert payload["target_requests"] == 400
        assert payload["seed"] == 42
        runs = payload["runs"]["gcc"]["Ideal"]
        assert "execution_time_ns" in runs and "avg_read_ns" in runs
        assert payload["plan"]["units"] == 1
        assert payload["plan"]["units_owned"] == 1
        assert payload["plan"]["owned_stats"]["units_simulated"] == 1

    def test_warm_resubmit_simulates_zero_units(self):
        async def body(server, client):
            await client.submit(DOC)
            second = await client.submit(DOC)
            return second, server.stats()

        second, stats = run(body)
        assert second["plan"]["owned_stats"]["units_simulated"] == 0
        assert second["plan"]["owned_stats"]["units_memo"] == 1
        assert stats["counters"]["tier_simulated"] == 1
        assert stats["counters"]["tier_memo"] == 1

    def test_concurrent_identical_requests_simulate_exactly_once(self):
        """The coalescing guarantee, proven via the ledger tier counters:

        N concurrent identical submits resolve exactly one unit by
        simulation; every other request joins the in-flight execution.
        """
        n_requests = 12

        async def body(server, client):
            results = await asyncio.gather(
                *(client.submit(DOC) for _ in range(n_requests))
            )
            return results, server.stats()

        results, stats = run(body)
        assert len(results) == n_requests
        # One ledger record with tier "simulated", and nothing else
        # executed: duplicates coalesced rather than re-planned.
        assert stats["counters"]["tier_simulated"] == 1
        owned = sum(r["plan"]["units_owned"] for r in results)
        joined = sum(r["plan"]["units_joined"] for r in results)
        assert owned == 1
        assert joined == n_requests - 1
        assert stats["counters"]["units_coalesced"] == n_requests - 1
        assert stats["coalescing_ratio"] == pytest.approx(
            (n_requests - 1) / n_requests
        )
        # Every coalesced request still got the full result payload.
        reference = json.dumps(results[0]["runs"], sort_keys=True)
        for result in results[1:]:
            assert json.dumps(result["runs"], sort_keys=True) == reference

    def test_concurrent_distinct_requests_all_execute(self):
        docs = [dict(DOC, seed=seed) for seed in (1, 2, 3)]

        async def body(server, client):
            await asyncio.gather(*(client.submit(doc) for doc in docs))
            return server.stats()

        stats = run(body)
        assert stats["counters"]["tier_simulated"] == 3
        assert stats["counters"]["units_coalesced"] == 0

    def test_served_results_match_local_execution(self):
        async def body(server, client):
            return await client.submit(DOC)

        served = run(body)

        from repro.experiments.spec import SimSpec
        from repro.service import ExecutionService, sweep_payload

        service = ExecutionService(cache=False)
        spec = SimSpec.from_dict(DOC)
        local = sweep_payload(spec, service.sweep(spec))
        served.pop("plan")
        assert json.dumps(served, sort_keys=True) == json.dumps(
            local, sort_keys=True
        )


class TestStreaming:
    def test_stream_emits_unit_events_then_result(self):
        async def body(server, client):
            return await client.submit_streaming(DOC)

        events, result = run(body)
        assert result["runs"]["gcc"]["Ideal"]["scheme"] == "Ideal"
        kinds = [event["kind"] for event in events]
        assert kinds == ["run"]
        assert events[0]["tier"] == "simulated"
        assert events[0]["workload"] == "gcc"

    def test_streamed_join_reports_coalesced_event(self):
        async def body(server, client):
            plain, streamed = await asyncio.gather(
                client.submit(DOC), client.submit_streaming(DOC)
            )
            return plain, streamed

        _plain, (events, result) = run(body)
        kinds = {event["kind"] for event in events}
        # The streamed request either owned the unit (run event) or
        # joined the plain one (coalesced marker) — both stream progress.
        assert kinds <= {"run", "coalesced"}
        assert result["plan"]["units"] == 1


class TestBackpressure:
    def test_global_queue_bound_rejects_with_429(self):
        async def body(server, client):
            try:
                await client.submit(DOC)
            except ServeError as exc:
                return exc, server.stats()
            return None

        result = run(body, max_pending=0)
        assert result is not None
        exc, stats = result
        assert exc.status == 429
        assert exc.payload["retry_after_s"] == 1
        assert stats["counters"]["rejected_queue_full"] == 1

    def test_per_client_limit_rejects_excess_inflight(self):
        async def body(server, client):
            # Hold the single executor thread hostage with one slow
            # request so the rest stack up as admitted-but-unfinished.
            blocker = asyncio.ensure_future(client.submit(dict(DOC, seed=77)))
            await asyncio.sleep(0.01)
            outcomes = await asyncio.gather(
                *(client.submit(dict(DOC, seed=i)) for i in range(6)),
                return_exceptions=True,
            )
            await blocker
            return outcomes, server.stats()

        outcomes, stats = run(body, max_inflight_per_client=2)
        rejected = [
            o for o in outcomes
            if isinstance(o, ServeError) and o.status == 429
        ]
        assert rejected, "expected at least one per-client 429"
        assert stats["counters"]["rejected_client_limit"] == len(rejected)

    def test_distinct_clients_have_separate_buckets(self):
        async def body(server, client):
            other = ServeClient(port=server.port, client_id="other")
            first, second = await asyncio.gather(
                client.submit(DOC), other.submit(DOC), return_exceptions=True
            )
            return first, second

        first, second = run(body, max_inflight_per_client=1)
        assert not isinstance(first, Exception)
        assert not isinstance(second, Exception)


class TestMemoControl:
    def test_memo_clear_endpoint(self):
        async def body(server, client):
            await client.submit(DOC)
            before = server.service.memo_size()
            cleared = await client.clear_memo()
            return before, cleared

        before, cleared = run(body)
        assert before >= 1
        assert cleared == {"cleared": True, "memo_runs": 0}

    def test_memo_capacity_override_restored_on_stop(self):
        # The bound is the daemon service's own; stopping drops its memo
        # and leaves every other service at the default.
        from repro.experiments.planner import DEFAULT_RUN_MEMO_CAPACITY
        from repro.service import ExecutionService

        async def body(server, client):
            await client.submit(DOC)
            return server.service, server.service.memo.capacity

        service, inside = run(body, memo_capacity=17)
        assert inside == 17
        assert service.memo_size() == 0
        assert ExecutionService(cache=False).memo.capacity == (
            DEFAULT_RUN_MEMO_CAPACITY
        )


class TestStats:
    def test_stats_document_shape(self):
        async def body(server, client):
            await client.submit(DOC)
            return await client.stats()

        stats = run(body)
        assert stats["service"]["jobs"] == 1
        assert stats["limits"]["max_pending"] == 64
        assert stats["ledger_records"] == 1
        assert 0.0 <= stats["coalescing_ratio"] <= 1.0

    def test_configured_store_instance_is_the_shared_store(self):
        # ``cache=`` may name a store instance, even an empty one; the
        # daemon serves /v1/store from it and executes through it.
        from repro.service import MemoryRunStore

        store = MemoryRunStore()

        async def body(server, client):
            await client.submit(DOC)
            return server.run_store, server.service.store

        served, executing = run(body, cache=store)
        assert served is store and executing is store
        assert len(store) == 1


class TestExecutorPool:
    """The bounded submit-executor pool (serve's tail-latency fix)."""

    def test_pool_size_reported_in_stats(self):
        async def body(server, client):
            return await client.stats()

        stats = run(body, executor_workers=3)
        assert stats["limits"]["executor_workers"] == 3
        assert stats["distributed"] is False
        assert stats["coordinator"] is None

    def test_warm_submit_bypasses_long_cold_simulation(self):
        # The head-of-line scenario the pool exists for: a memo-warm
        # submit must not queue behind a long-running cold simulation.
        async def body(server, client):
            await client.submit(DOC)  # warm DOC's unit in the memo
            long_doc = {
                "schemes": ["Hybrid"],
                "workloads": ["mcf"],
                "target_requests": 200_000,
            }
            long_task = asyncio.ensure_future(client.submit(long_doc))
            await asyncio.sleep(0.05)  # let the long sim take a thread
            await client.submit(DOC)
            warm_done_first = not long_task.done()
            await long_task
            return warm_done_first

        assert run(body, executor_workers=2)

    def test_concurrent_distinct_submits_all_complete(self):
        async def body(server, client):
            docs = [dict(DOC, seed=500 + i) for i in range(6)]
            payloads = await asyncio.gather(
                *(client.submit(doc) for doc in docs)
            )
            return payloads, await client.stats()

        payloads, stats = run(body, executor_workers=2)
        assert len(payloads) == 6
        assert stats["counters"]["units_owned"] == 6
        seeds = {p["seed"] for p in payloads}
        assert seeds == {500 + i for i in range(6)}
