"""Distributed execution tests: lease protocol, worker death, stores.

Server-side tests run a real ``SimServer`` with ``distributed=True`` on
a loopback port inside ``asyncio.run`` (plain sync test functions — no
pytest-asyncio) and talk to it over actual HTTP. Fake workers reuse the
real worker-process machinery (:class:`CoordinatorLink`,
:func:`_execute_lease`) inside ``asyncio.to_thread`` so the protocol
exercised here is byte-for-byte the one ``readduo worker`` speaks.
"""

import asyncio
import json
import time

import pytest

from repro.experiments.cache import RunCache
from repro.experiments.planner import build_plan, execute_plan
from repro.experiments.spec import SimSpec
from repro.obs import Telemetry
from repro.service.client import ServeClient, ServeError
from repro.service.coordinator import LeaseCoordinator
from repro.service.execution import ExecutionService, sweep_payload
from repro.service.server import ServeConfig, SimServer
from repro.service.store import (
    RemoteRunStore,
    parse_store_entry,
    store_entry_payload,
)
from repro.service.worker import CoordinatorLink, _CaptureLedger, _execute_lease



DOC = {"schemes": ["Ideal", "Hybrid"], "workloads": ["gcc"],
       "target_requests": 300}
DOC_ONE = {"schemes": ["Ideal"], "workloads": ["gcc"],
           "target_requests": 300}


def _config(**overrides):
    defaults = dict(port=0, cache=False, distributed=True,
                    max_pending=64, max_inflight_per_client=64)
    defaults.update(overrides)
    return ServeConfig(**defaults)


async def _with_server(config, body):
    server = SimServer(config)
    await server.start()
    try:
        return await body(server, ServeClient(port=server.port,
                                              client_id="test"))
    finally:
        await server.stop()


def run(body, **config_overrides):
    return asyncio.run(_with_server(_config(**config_overrides), body))


async def _wait_for(client, predicate, timeout=10.0):
    """Poll ``/v1/stats`` until ``predicate(stats)`` holds."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        stats = await client.stats()
        if predicate(stats):
            return stats
        await asyncio.sleep(0.02)
    pytest.fail("condition not reached within timeout")


def _execute_units(units, jobs=1):
    """Produce one lease's ``/v1/complete`` results, like a real worker."""
    capture = _CaptureLedger()
    service = ExecutionService(
        jobs=jobs, cache=False, telemetry=Telemetry(ledger=capture)
    )
    try:
        return _execute_lease(service, capture, units)
    finally:
        service.close()


def _fake_worker(port, worker_id, jobs=1, die_after_lease=False):
    """Synchronous worker loop against a live server; runs in a thread.

    Returns the number of units completed, or -1 when ``die_after_lease``
    made it grab a batch and vanish without completing (the crash case
    the lease TTL exists for).
    """
    link = CoordinatorLink(f"http://127.0.0.1:{port}", worker_id)
    capture = _CaptureLedger()
    service = ExecutionService(
        jobs=jobs, cache=False, telemetry=Telemetry(ledger=capture)
    )
    done = 0
    try:
        while True:
            granted = link.lease(8)
            if granted is None or not granted.get("lease"):
                return done
            if die_after_lease:
                return -1
            results = _execute_lease(service, capture, granted["units"])
            link.complete(str(granted["lease"]), results)
            done += len(results)
    finally:
        service.close()


def _local_reference_runs(doc):
    """The bit-for-bit local answer for one submit document's ``runs``."""
    spec = SimSpec.from_dict(doc)
    service = ExecutionService(jobs=1, cache=False)
    try:
        outcome = service.submit([spec])
        grid = {
            workload: {
                scheme: outcome.results[spec.run_hash(workload, scheme)]
                for scheme in spec.schemes
            }
            for workload in spec.effective_workloads()
        }
    finally:
        service.close()
    return sweep_payload(spec, grid)["runs"]


class TestLeaseCoordinator:
    """Event-loop-level coordinator semantics, no HTTP."""

    def test_enqueue_is_coalescing_and_lease_drains_pending(self):
        async def body():
            spec = SimSpec.from_dict(DOC)
            units = build_plan([spec]).units
            coord = LeaseCoordinator(ttl_s=30.0, max_units=8)
            first = coord.enqueue(units)
            again = coord.enqueue(units)
            assert first == again  # same futures, not new ones
            granted = coord.lease("w1")
            assert granted is not None
            assert {u["key"] for u in granted["units"]} == set(first)
            assert not coord.pending
            assert coord.lease("w2") is None  # nothing left
            return coord

        coord = asyncio.run(body())
        assert coord.counters["units_enqueued"] == 2
        assert coord.counters["units_leased"] == 2

    def test_expiry_requeues_and_late_complete_is_accepted(self):
        async def body():
            spec = SimSpec.from_dict(DOC_ONE)
            units = build_plan([spec]).units
            coord = LeaseCoordinator(ttl_s=0.2, max_units=8)
            futures = coord.enqueue(units)
            granted = coord.lease("doomed")
            lease_id = granted["lease"]
            loop = asyncio.get_running_loop()
            assert coord.release_expired(loop.time() + 1.0) == 1
            assert coord.heartbeat(lease_id, "doomed") is None
            assert units[0].key in coord.pending  # back in the queue
            # The doomed worker finishes anyway and pushes late.
            stats_payload = {"stats": {"fake": 1}}
            outcome = coord.complete(
                lease_id, "doomed", {units[0].key: stats_payload}
            )
            assert outcome == {"accepted": 1, "requeued": 0, "late": 1}
            assert futures[units[0].key].result() == {"fake": 1}
            return coord

        coord = asyncio.run(body())
        assert coord.counters["leases_expired"] == 1
        assert coord.counters["units_requeued"] == 1
        assert coord.counters["late_results"] == 1

    def test_partial_complete_requeues_only_missing_units(self):
        async def body():
            spec = SimSpec.from_dict(DOC)
            units = build_plan([spec]).units
            coord = LeaseCoordinator(ttl_s=30.0, max_units=8)
            coord.enqueue(units)
            granted = coord.lease("w1")
            done, missing = granted["units"][0], granted["units"][1]
            outcome = coord.complete(
                granted["lease"], "w1",
                {done["key"]: {"stats": {"fake": 1}}},
            )
            assert outcome["accepted"] == 1 and outcome["requeued"] == 1
            assert missing["key"] in coord.pending
            assert done["key"] not in coord.pending
            return coord

        asyncio.run(body())

    def test_exhausted_requeues_fall_back_locally(self):
        async def body():
            spec = SimSpec.from_dict(DOC_ONE)
            units = build_plan([spec]).units
            fallback_calls = []

            async def fallback(batch):
                fallback_calls.append([u.key for u in batch])
                for u in batch:
                    coord.resolve_local(u.key, {"fake": 1})

            coord = LeaseCoordinator(
                ttl_s=0.2, max_units=8, max_requeues=1, fallback=fallback
            )
            futures = coord.enqueue(units)
            loop = asyncio.get_running_loop()
            for _ in range(2):  # exceed max_requeues=1
                coord.lease("flaky")
                coord.release_expired(loop.time() + 1.0)
            await asyncio.sleep(0)  # let the fallback task run
            assert fallback_calls == [[units[0].key]]
            assert futures[units[0].key].result() == {"fake": 1}
            return coord

        coord = asyncio.run(body())
        assert coord.counters["units_fallback"] == 1


class TestDistributedProtocol:
    """The HTTP face: /v1/lease, /v1/heartbeat, /v1/complete."""

    def test_lease_without_distributed_mode_409(self):
        async def body(server, client):
            try:
                await client.lease("w1")
            except ServeError as exc:
                return exc.status
            return None

        assert run(body, distributed=False) == 409

    def test_lease_idle_returns_no_units(self):
        async def body(server, client):
            return await client.lease("w1")

        payload = run(body)
        assert payload == {"lease": None, "units": []}

    def test_full_cycle_resolves_the_submit(self, tmp_path):
        async def body(server, client):
            submit = asyncio.ensure_future(client.submit(DOC_ONE))
            await _wait_for(
                client,
                lambda s: s["coordinator"]["counters"]["units_enqueued"] == 1,
            )
            granted = await client.lease("w1")
            assert granted["lease"] and len(granted["units"]) == 1
            unit = granted["units"][0]
            assert unit["workload"] == "gcc" and unit["scheme"] == "Ideal"
            beat = await client.heartbeat(granted["lease"], "w1")
            assert beat["ok"] and beat["ttl_s"] > 0
            results = await asyncio.to_thread(
                _execute_units, granted["units"]
            )
            outcome = await client.complete(granted["lease"], "w1", results)
            assert outcome["accepted"] == 1 and outcome["invalid"] == 0
            payload = await submit
            # A completed lease is gone: heartbeats now 404.
            try:
                await client.heartbeat(granted["lease"], "w1")
                gone = False
            except ServeError as exc:
                gone = exc.status == 404
            return payload, gone

        ledger = tmp_path / "ledger.jsonl"
        payload, gone = run(body, ledger=str(ledger))
        assert gone
        assert payload["plan"]["owned_stats"]["units_leased"] == 1
        assert payload["runs"] == _local_reference_runs(DOC_ONE)
        # The worker's provenance, fall-back reason included, reaches the
        # coordinator's ledger.
        (record,) = [json.loads(line) for line in ledger.read_text().splitlines()]
        assert record["worker"] == "w1"
        assert (record["fastpath"], record["fastpath_reason"]) == ("speculated", "ok")

    def test_unparseable_results_rejected_not_poisonous(self):
        async def body(server, client):
            submit = asyncio.ensure_future(client.submit(DOC_ONE))
            await _wait_for(
                client, lambda s: s["coordinator"]["pending_units"] == 1
            )
            granted = await client.lease("w1")
            key = granted["units"][0]["key"]
            outcome = await client.complete(
                granted["lease"], "w1", {key: {"stats": {"garbage": True}}}
            )
            # The garbage result is dropped and the unit requeued (the
            # lease finished without delivering it) — not handed to the
            # waiting submit.
            assert outcome["invalid"] == 1 and outcome["accepted"] == 0
            assert outcome["requeued"] == 1
            granted = await client.lease("w2")
            results = await asyncio.to_thread(
                _execute_units, granted["units"]
            )
            await client.complete(granted["lease"], "w2", results)
            return await submit

        payload = run(body)
        assert payload["runs"] == _local_reference_runs(DOC_ONE)

    def test_warm_rerun_leases_zero_units(self, tmp_path):
        async def body(server, client):
            submit = asyncio.ensure_future(client.submit(DOC))
            await _wait_for(
                client, lambda s: s["coordinator"]["pending_units"] > 0
            )
            await asyncio.to_thread(_fake_worker, server.port, "w1")
            first = await submit
            cold_leased = (await client.stats())["coordinator"]["counters"][
                "units_leased"]
            # Clear the in-process memo: the rerun must resolve through
            # the shared run store, still without leasing anything.
            await client.clear_memo()
            second = await client.submit(DOC)
            warm_leased = (await client.stats())["coordinator"]["counters"][
                "units_leased"]
            return first, second, cold_leased, warm_leased

        first, second, cold_leased, warm_leased = run(
            body, cache=str(tmp_path)
        )
        assert cold_leased == 2
        assert warm_leased == cold_leased  # zero new leases when warm
        assert first["runs"] == second["runs"]


class TestWorkerDeath:
    """The satellite scenario: a worker dies mid-batch; the sweep still
    finishes, bit-identical, across jobs x workers topologies."""

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_death_requeue_drain_bit_identical(self, jobs, workers):
        async def body(server, client):
            submit = asyncio.ensure_future(client.submit(DOC))
            await _wait_for(
                client, lambda s: s["coordinator"]["pending_units"] > 0
            )
            died = await asyncio.to_thread(
                _fake_worker, server.port, "doomed", 1, True
            )
            assert died == -1  # it leased a batch, then vanished
            await _wait_for(
                client,
                lambda s: s["coordinator"]["counters"]["units_requeued"] > 0,
            )
            drained = await asyncio.gather(*(
                asyncio.to_thread(
                    _fake_worker, server.port, f"w{index}", jobs
                )
                for index in range(workers)
            ))
            payload = await submit
            return payload, sum(drained), await client.stats()

        payload, drained, stats = run(body, lease_ttl_s=0.3, lease_units=2)
        counters = stats["coordinator"]["counters"]
        assert counters["leases_expired"] >= 1
        assert counters["units_requeued"] >= 1
        assert drained >= 1  # the survivors did real work
        assert stats["coordinator"]["unresolved_units"] == 0
        assert payload["runs"] == _local_reference_runs(DOC)


class TestStoreEndpoints:
    def test_get_missing_entry_is_none(self):
        async def body(server, client):
            return await client.store_get("deadbeef")

        assert run(body) is None

    def test_put_get_round_trip(self):
        spec = SimSpec.from_dict(DOC_ONE)
        key = spec.run_hash("gcc", "Ideal")
        stats = _local_reference_stats()

        async def body(server, client):
            put = await client.store_put(key, store_entry_payload(key, stats))
            assert put == {"stored": key}
            return await client.store_get(key)

        payload = run(body)
        fetched = parse_store_entry(payload, key)
        assert fetched is not None
        assert fetched.to_dict() == stats.to_dict()
        # Wire payloads must preserve insertion order (order-sensitive
        # float sums); a sorted re-serialization indicates the server
        # re-keyed the stats dict.
        assert list(payload["stats"]) == list(stats.to_dict())

    def test_put_garbage_400(self):
        async def body(server, client):
            try:
                await client.store_put("somekey", {"format": 99})
            except ServeError as exc:
                return exc.status
            return None

        assert run(body) == 400

    def test_remote_store_read_through_and_write_through(self, tmp_path):
        spec = SimSpec.from_dict(DOC_ONE)
        key = spec.run_hash("gcc", "Ideal")
        stats = _local_reference_stats()

        async def body(server, client):
            await client.store_put(key, store_entry_payload(key, stats))
            local = RunCache(tmp_path)
            remote = RemoteRunStore(
                f"http://127.0.0.1:{server.port}", local=local
            )
            # Sync HTTP client: keep it off the server's event loop.
            loaded = await asyncio.to_thread(remote.load, key)
            assert loaded is not None
            assert loaded.to_dict() == stats.to_dict()
            # Read-through populated the local tier.
            assert local.load(key) is not None
            # store() pushes to the shared tier too.
            key2 = spec.run_hash("gcc", "Ideal") + "f"
            await asyncio.to_thread(remote.store, key2, stats)
            return await client.store_get(key2)

        pushed = run(body)
        assert pushed is not None
        assert parse_store_entry(pushed, "x") is None  # key mismatch guard
        fetched = parse_store_entry(
            pushed, SimSpec.from_dict(DOC_ONE).run_hash("gcc", "Ideal") + "f"
        )
        assert fetched is not None and fetched.to_dict() == stats.to_dict()


class TestDeterministicCacheBytes:
    def test_independent_executions_write_identical_entry_files(
        self, tmp_path
    ):
        spec = SimSpec.from_dict(DOC)
        entries = {}
        for name in ("worker-a", "worker-b"):
            plan = build_plan([spec])
            execute_plan(plan, jobs=1, store=RunCache(tmp_path / name))
            runs_dir = tmp_path / name / "runs"
            entries[name] = {
                path.name: path.read_bytes()
                for path in sorted(runs_dir.glob("*.json"))
            }
        assert entries["worker-a"].keys() == entries["worker-b"].keys()
        assert len(entries["worker-a"]) == 2
        # Byte-identical, so concurrent last-write-wins is a no-op.
        assert entries["worker-a"] == entries["worker-b"]


def _local_reference_stats():
    """One RunStats for DOC_ONE's single unit, computed locally."""
    spec = SimSpec.from_dict(DOC_ONE)
    service = ExecutionService(jobs=1, cache=False)
    try:
        outcome = service.submit([spec])
        return outcome.results[spec.run_hash("gcc", "Ideal")]
    finally:
        service.close()
