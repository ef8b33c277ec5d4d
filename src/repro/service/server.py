"""``readduo serve``: the simulator as an asyncio HTTP/JSON daemon.

A deliberately dependency-free server — raw ``asyncio.start_server``
plus a minimal HTTP/1.1 reader/writer, no ``http.server``, no web
framework — exposing :class:`~repro.service.ExecutionService` over
JSON:

* ``GET  /v1/health``  — liveness + version;
* ``GET  /v1/schemes`` — the scheme registry catalog
  (:func:`~repro.core.registry.scheme_catalog`);
* ``GET  /v1/stats``   — service snapshot + coalescing/backpressure
  counters;
* ``POST /v1/submit``  — a :class:`~repro.experiments.spec.SimSpec`
  JSON document in, the canonical sweep payload out. With
  ``?stream=1`` the response body is JSONL: one progress event per run
  unit as it resolves (the run-ledger record, plus synthetic
  ``coalesced`` events for units joined in flight), then one final
  ``result`` line;
* ``POST /v1/memo/clear`` — drop the in-process run memo (memory-
  pressure hook);
* ``GET/PUT /v1/store/{run_hash}`` — the shared granular run store,
  read and written by distributed workers (and any cache-warming
  client); entries are content-addressed, so writes are conflict-free;
* ``POST /v1/lease`` / ``/v1/heartbeat`` / ``/v1/complete`` — the
  distributed execution protocol (``distributed=True``): submitted
  specs decompose into run units, warm units resolve from the local
  cache hierarchy, and the remainder are leased to ``readduo worker``
  processes with TTL + requeue resilience (see
  :mod:`repro.service.coordinator` and docs/DISTRIBUTED.md).

**Coalescing.** Every submitted spec decomposes into run units keyed by
:meth:`SimSpec.run_hash` — the same identity the planner, memo, and
disk store use. The server keeps one in-flight future per run hash:
the first request to need a unit *owns* it (executes it through
``ExecutionService.submit`` on the worker thread); any request arriving
while it is in flight *joins* the future instead of executing. N
concurrent identical requests therefore simulate exactly once — the
ledger shows one ``simulated`` record — and N-1 requests pay only an
await. Completed units additionally land in the service's run memo and
the granular store, so the warm path never blocks on the worker at all.

**Backpressure.** Two admission bounds, both answered with ``429`` and
``Retry-After`` so clients can back off deterministically: a global
bound on concurrently-admitted submits (``max_pending``) and a
per-client bound (``max_inflight_per_client``, clients identified by
the ``X-Client-Id`` header, falling back to the peer address).

See docs/SERVING.md for the wire format and the operations runbook.
"""

from __future__ import annotations

import asyncio
import json
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple
from urllib.parse import parse_qs, urlsplit

from .. import __version__
from ..core.registry import scheme_catalog
from ..memsim.stats import RunStats
from ..obs import Telemetry, get_logger
from ..obs.ledger import RunLedger
from ..experiments.cache import RunStore
from ..experiments.planner import (
    ExecutionPlan,
    PlanStats,
    RunUnit,
    lookup_cached,
    plan_units,
)
from ..experiments.spec import SimSpec, SpecError
from .coordinator import LeaseCoordinator
from .execution import CacheSpec, ExecutionService, open_store, sweep_payload
from .store import MemoryRunStore, parse_store_entry, store_entry_payload

__all__ = ["ServeConfig", "SimServer", "run_server"]

_log = get_logger("service.server")

#: Queue sentinel ending a streaming subscription.
_DONE = object()

_MAX_HEADER_BYTES = 32 * 1024


@dataclass
class ServeConfig:
    """Tunables for one :class:`SimServer`.

    Attributes:
        host: Bind address (default loopback; this daemon has no auth).
        port: Bind port; 0 asks the OS for a free port (tests).
        jobs: Worker processes per execution (see ``readduo sweep --jobs``).
        cache: Persistent-cache control, as in :class:`ExecutionService`.
        memo_capacity: Optional LRU bound of the service's in-process
            run memo — the daemon's main memory-budget knob.
        max_inflight_per_client: Concurrent submits one client may have
            admitted; the excess gets ``429``.
        max_pending: Concurrent submits admitted across all clients;
            the excess gets ``429``. 0 refuses every submit (drain mode).
        ledger: Optional run-provenance ledger path; progress streaming
            works with or without it (records always flow to
            subscribers, and to disk only when a path is given).
        max_body_bytes: Request-body size bound (``413`` beyond it).
        executor_workers: Threads in the owner-execution pool. Each
            admitted submit's owned units execute as one unit of work on
            the pool, so warm/cheap submits are no longer head-of-line
            blocked behind a long simulation (the PR 8 p99 bottleneck);
            per-hash coalescing still guarantees each distinct unit
            executes once.
        distributed: Enable the lease coordinator: owned units that the
            local cache hierarchy cannot satisfy are leased to
            ``readduo worker`` processes instead of executing on the
            pool. Requires at least one worker polling ``/v1/lease``
            (units exhausted by ``max_requeues`` fall back to the pool).
        lease_ttl_s: Lease lifetime; workers heartbeat to extend it.
        lease_units: Largest unit batch one lease may carry.
        max_requeues: Expiry/abandonment requeues a unit survives before
            local-fallback execution.
    """

    host: str = "127.0.0.1"
    port: int = 8787
    jobs: int = 1
    cache: CacheSpec = True
    memo_capacity: Optional[int] = None
    max_inflight_per_client: int = 8
    max_pending: int = 64
    ledger: Optional[str] = None
    max_body_bytes: int = 1 << 20
    executor_workers: int = 4
    distributed: bool = False
    lease_ttl_s: float = 30.0
    lease_units: int = 8
    max_requeues: int = 3


class _RelayLedger(RunLedger):
    """A :class:`RunLedger` that also hands every record to a hook.

    The daemon attaches this as the service telemetry's ledger, so the
    existing ``execute_plan`` provenance machinery *is* the progress
    feed — one record per planned unit, in plan order, with tier /
    engine / fastpath / wall_s exactly as ``readduo report`` sees them.
    Without a configured path, records still flow to the hook (and to
    ``os.devnull``). Records are written from the worker thread; the
    lock keeps multi-executor futures from interleaving lines.
    """

    def __init__(self, path: Optional[str], hook) -> None:
        super().__init__(path if path else os.devnull)
        self._hook = hook
        self._lock = threading.Lock()

    def record(self, *args: Any, **kwargs: Any) -> Dict[str, Any]:
        with self._lock:
            rec = super().record(*args, **kwargs)
        self._hook(rec)
        return rec


class SimServer:
    """The serve daemon: coalescing + backpressure over an ExecutionService."""

    def __init__(self, config: Optional[ServeConfig] = None) -> None:
        self.config = config or ServeConfig()
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self.service: Optional[ExecutionService] = None
        self.run_store: Optional[RunStore] = None
        self.coordinator: Optional[LeaseCoordinator] = None
        self._dist_plan: Optional[int] = None
        #: One future per in-flight run unit, keyed by run hash.
        self._inflight: Dict[str, "asyncio.Future[Any]"] = {}
        #: Live progress subscriptions (streaming submits).
        self._subscribers: List["asyncio.Queue[Any]"] = []
        self._pending = 0
        self._client_inflight: Dict[str, int] = {}
        self.counters: Dict[str, int] = {
            "requests_total": 0,
            "submits_total": 0,
            "units_requested": 0,
            "units_owned": 0,
            "units_coalesced": 0,
            "rejected_client_limit": 0,
            "rejected_queue_full": 0,
            "errors": 0,
        }

    # ------------------------------------------------------------ lifecycle

    async def start(self) -> None:
        """Bind the socket and stand up the execution backend."""
        self._loop = asyncio.get_running_loop()
        # A bounded pool, not a single thread: each admitted submit's
        # owned units run as one pool task, so a warm or cheap submit is
        # never head-of-line blocked behind a long simulation. Per-hash
        # coalescing (one in-flight future per run hash) still makes
        # each distinct unit execute exactly once; the pool bound keeps
        # the process's parallelism budget explicit (``jobs`` controls
        # fan-out *inside* an execution).
        self._executor = ThreadPoolExecutor(
            max_workers=max(1, self.config.executor_workers),
            thread_name_prefix="readduo-exec",
        )
        ledger = _RelayLedger(self.config.ledger, self._relay_record)
        # The shared granular store behind GET/PUT /v1/store/{hash}: the
        # configured persistent store, an in-process one otherwise, so
        # workers share one cache either way.
        store = open_store(self.config.cache)
        self.run_store = MemoryRunStore() if store is None else store
        self.service = ExecutionService(
            jobs=self.config.jobs,
            cache=self.run_store,
            telemetry=Telemetry(ledger=ledger),
            memo_capacity=self.config.memo_capacity,
        )
        if self.config.distributed:
            self.coordinator = LeaseCoordinator(
                ttl_s=self.config.lease_ttl_s,
                max_units=self.config.lease_units,
                max_requeues=self.config.max_requeues,
                fallback=self._local_fallback,
                on_complete=self._on_worker_complete,
            )
            self.coordinator.start()
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.config.host, port=self.config.port
        )
        _log.info(
            "serving on %s:%d (%d executor thread(s)%s)",
            self.config.host, self.port,
            max(1, self.config.executor_workers),
            ", distributed" if self.config.distributed else "",
        )

    @property
    def port(self) -> int:
        """The actually-bound port (resolves ``port=0``)."""
        assert self._server is not None and self._server.sockets
        return self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        if self.coordinator is not None:
            await self.coordinator.stop()
            self.coordinator = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        if self.service is not None:
            if self.service.telemetry and self.service.telemetry.ledger:
                self.service.telemetry.ledger.close()
            self.service.close()
            self.service = None

    # ------------------------------------------------------ progress relay

    def _relay_record(self, record: Dict[str, Any]) -> None:
        """Ledger hook (worker thread) → event-loop broadcast."""
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self._broadcast, record)

    def _broadcast(self, record: Any) -> None:
        # Tier accounting rides the provenance feed: one ledger record
        # per planned unit means these counters are exactly "how did
        # each unit resolve" — `tier_simulated` staying at the distinct-
        # unit count while thousands of submits arrive IS the coalescing
        # guarantee, provable from /v1/stats alone.
        tier = record.get("tier")
        if tier is not None:
            key = f"tier_{tier}"
            self.counters[key] = self.counters.get(key, 0) + 1
        for queue in list(self._subscribers):
            queue.put_nowait(record)

    # ------------------------------------------------------------- routing

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                parsed = await self._read_request(reader)
            except ValueError as exc:
                # A malformed request is the client's error, not the
                # daemon's: answer 400, log no traceback, count no error.
                await _send_json(writer, 400, {"error": str(exc)})
                return
            if parsed is None:
                return
            method, target, headers, body = parsed
            self.counters["requests_total"] += 1
            peer = writer.get_extra_info("peername")
            client = headers.get("x-client-id") or (
                peer[0] if isinstance(peer, tuple) else "unknown"
            )
            await self._route(method, target, headers, body, client, writer)
        except (ConnectionResetError, BrokenPipeError):
            pass
        except Exception as exc:  # pragma: no cover - defensive backstop
            self.counters["errors"] += 1
            _log.exception("request failed: %s", exc)
            try:
                await _send_json(writer, 500, {"error": "internal server error"})
            except OSError:
                pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
        """Parse one HTTP/1.x request; None on an empty connection.

        Raises:
            ValueError: The request is malformed: a bad request line or
                ``Content-Length``, an oversize head or body, or a head
                or body cut short by the client.
        """
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError as exc:
            if not exc.partial:
                return None
            raise ValueError("truncated request head") from exc
        except asyncio.LimitOverrunError as exc:
            raise ValueError("request head too large") from exc
        if len(head) > _MAX_HEADER_BYTES:
            raise ValueError("request head too large")
        lines = head.decode("latin-1").split("\r\n")
        try:
            method, target, _version = lines[0].split(" ", 2)
        except ValueError as exc:
            raise ValueError(f"malformed request line: {lines[0]!r}") from exc
        headers: Dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        raw_length = headers.get("content-length", "0") or "0"
        if not (raw_length.isascii() and raw_length.isdigit()):
            raise ValueError(f"bad Content-Length: {raw_length!r}")
        length = int(raw_length)
        if length > self.config.max_body_bytes:
            raise ValueError("request body too large")
        try:
            body = await reader.readexactly(length) if length else b""
        except asyncio.IncompleteReadError as exc:
            raise ValueError("truncated request body") from exc
        return method.upper(), target, headers, body

    async def _route(
        self,
        method: str,
        target: str,
        headers: Dict[str, str],
        body: bytes,
        client: str,
        writer: asyncio.StreamWriter,
    ) -> None:
        split = urlsplit(target)
        path = split.path.rstrip("/") or "/"
        query = parse_qs(split.query)
        if path == "/v1/health" and method == "GET":
            await _send_json(writer, 200, {
                "status": "ok",
                "version": __version__,
                "pending": self._pending,
                "inflight_units": len(self._inflight),
            })
        elif path == "/v1/schemes" and method == "GET":
            await _send_json(writer, 200, scheme_catalog())
        elif path == "/v1/stats" and method == "GET":
            await _send_json(writer, 200, self.stats())
        elif path == "/v1/memo/clear" and method == "POST":
            assert self.service is not None
            self.service.clear_memo()
            await _send_json(writer, 200, {
                "cleared": True, "memo_runs": self.service.memo_size(),
            })
        elif path == "/v1/submit" and method == "POST":
            stream = query.get("stream", ["0"])[0] not in ("", "0", "false")
            await self._handle_submit(body, client, stream, writer)
        elif path.startswith("/v1/store/"):
            key = path[len("/v1/store/"):]
            if "/" in key or not key:
                await _send_json(writer, 404, {"error": "malformed store key"})
            elif method == "GET":
                await self._handle_store_get(key, writer)
            elif method == "PUT":
                await self._handle_store_put(key, body, writer)
            else:
                await _send_json(
                    writer, 405, {"error": f"method {method} not allowed"}
                )
        elif path == "/v1/lease" and method == "POST":
            await self._handle_lease(body, writer)
        elif path == "/v1/heartbeat" and method == "POST":
            await self._handle_heartbeat(body, writer)
        elif path == "/v1/complete" and method == "POST":
            await self._handle_complete(body, writer)
        elif path in ("/v1/health", "/v1/schemes", "/v1/stats",
                      "/v1/memo/clear", "/v1/submit", "/v1/lease",
                      "/v1/heartbeat", "/v1/complete"):
            await _send_json(
                writer, 405, {"error": f"method {method} not allowed"}
            )
        else:
            await _send_json(writer, 404, {"error": f"no route for {path}"})

    def stats(self) -> Dict[str, Any]:
        """The ``/v1/stats`` document (also used by tests/bench)."""
        assert self.service is not None
        requested = self.counters["units_requested"]
        coalesced = self.counters["units_coalesced"]
        ledger = self.service.telemetry.ledger if self.service.telemetry else None
        return {
            "service": self.service.describe(),
            "counters": dict(self.counters),
            "coalescing_ratio": (coalesced / requested) if requested else 0.0,
            "pending": self._pending,
            "inflight_units": len(self._inflight),
            "ledger_records": ledger.records_written if ledger else 0,
            "limits": {
                "max_pending": self.config.max_pending,
                "max_inflight_per_client": self.config.max_inflight_per_client,
                "executor_workers": max(1, self.config.executor_workers),
            },
            "store": (
                type(self.run_store).__name__
                if self.run_store is not None else None
            ),
            "distributed": self.config.distributed,
            "coordinator": (
                self.coordinator.snapshot()
                if self.coordinator is not None else None
            ),
        }

    # ------------------------------------------------------ store endpoints

    async def _handle_store_get(
        self, key: str, writer: asyncio.StreamWriter
    ) -> None:
        assert self.run_store is not None
        stats = self.run_store.load(key)
        if stats is None:
            await _send_json(writer, 404, {"error": f"no entry for {key}"})
            return
        await _send_json(
            writer, 200, store_entry_payload(key, stats), sort_keys=False
        )

    async def _handle_store_put(
        self, key: str, body: bytes, writer: asyncio.StreamWriter
    ) -> None:
        assert self.run_store is not None
        try:
            payload = json.loads(body.decode("utf-8") or "{}")
        except ValueError as exc:
            await _send_json(writer, 400, {"error": str(exc)})
            return
        stats = (
            parse_store_entry(payload, key)
            if isinstance(payload, dict) else None
        )
        if stats is None:
            await _send_json(writer, 400, {"error": "unusable store entry"})
            return
        self.run_store.store(key, stats)
        await _send_json(writer, 200, {"stored": key})

    # ------------------------------------------------- distributed protocol

    def _parse_doc(self, body: bytes) -> Dict[str, Any]:
        document = json.loads(body.decode("utf-8") or "{}")
        if not isinstance(document, dict):
            raise ValueError("expected a JSON object")
        return document

    async def _handle_lease(
        self, body: bytes, writer: asyncio.StreamWriter
    ) -> None:
        if self.coordinator is None:
            await _send_json(
                writer, 409, {"error": "distributed mode disabled"}
            )
            return
        try:
            document = self._parse_doc(body)
        except ValueError as exc:
            await _send_json(writer, 400, {"error": str(exc)})
            return
        worker = str(document.get("worker") or "anonymous")
        max_units = document.get("max_units")
        granted = self.coordinator.lease(
            worker, max_units if isinstance(max_units, int) else None
        )
        if granted is None:
            await _send_json(writer, 200, {"lease": None, "units": []})
            return
        await _send_json(writer, 200, granted)

    async def _handle_heartbeat(
        self, body: bytes, writer: asyncio.StreamWriter
    ) -> None:
        if self.coordinator is None:
            await _send_json(
                writer, 409, {"error": "distributed mode disabled"}
            )
            return
        try:
            document = self._parse_doc(body)
        except ValueError as exc:
            await _send_json(writer, 400, {"error": str(exc)})
            return
        lease_id = str(document.get("lease") or "")
        worker = str(document.get("worker") or "")
        ttl = self.coordinator.heartbeat(lease_id, worker)
        if ttl is None:
            await _send_json(
                writer, 404,
                {"error": f"unknown lease {lease_id}", "lease": lease_id},
            )
            return
        await _send_json(writer, 200, {"ok": True, "ttl_s": ttl})

    async def _handle_complete(
        self, body: bytes, writer: asyncio.StreamWriter
    ) -> None:
        if self.coordinator is None:
            await _send_json(
                writer, 409, {"error": "distributed mode disabled"}
            )
            return
        try:
            document = self._parse_doc(body)
        except ValueError as exc:
            await _send_json(writer, 400, {"error": str(exc)})
            return
        lease_id = str(document.get("lease") or "")
        worker = str(document.get("worker") or "anonymous")
        results = document.get("results")
        valid: Dict[str, Dict[str, Any]] = {}
        invalid = 0
        if isinstance(results, dict):
            for key, payload in results.items():
                if not isinstance(payload, dict):
                    invalid += 1
                    continue
                try:
                    parsed = dict(payload)
                    # Validate the stats BEFORE any future resolves with
                    # them: a worker pushing garbage must not poison
                    # waiting submits.
                    parsed["stats"] = RunStats.from_dict(payload["stats"])
                except (KeyError, TypeError, ValueError):
                    invalid += 1
                    continue
                valid[str(key)] = parsed
        outcome = self.coordinator.complete(lease_id, worker, valid)
        outcome["invalid"] = invalid
        await _send_json(writer, 200, outcome)

    def _on_worker_complete(
        self, unit: RunUnit, stats: RunStats, meta: Dict[str, Any]
    ) -> None:
        """Coordinator hook: persist + ledger one worker-resolved unit."""
        assert self.run_store is not None
        self.run_store.store(unit.key, stats)
        ledger = (
            self.service.telemetry.ledger
            if self.service is not None and self.service.telemetry is not None
            else None
        )
        if ledger is None:
            return
        if self._dist_plan is None:
            self._dist_plan = ledger.begin_plan()
        tier = meta.get("tier")
        if tier not in ("memo", "disk", "simulated"):
            tier = "simulated"
        engine = meta.get("engine")
        if engine not in ("batch", "event"):
            engine = unit.spec.engine
        ledger.record(
            plan=self._dist_plan,
            run_hash=unit.key,
            workload=unit.workload,
            scheme=unit.scheme,
            tier=tier,
            engine=engine,
            fastpath=meta.get("fastpath"),
            fastpath_reason=meta.get("fastpath_reason"),
            wall_s=meta.get("wall_s"),
            cached_bytes=self.run_store.entry_bytes(unit.key),
            raw_bytes=self.run_store.entry_raw_bytes(unit.key),
            worker=meta.get("worker"),
            lease=meta.get("lease"),
        )

    async def _local_fallback(self, units: List[RunUnit]) -> None:
        """Execute requeue-exhausted units on the daemon's own pool."""
        assert (
            self.service is not None
            and self.coordinator is not None
            and self._loop is not None
        )
        outcome = await self._loop.run_in_executor(
            self._executor,
            self.service.submit,
            [unit.spec for unit in units],
        )
        for unit in units:
            self.coordinator.resolve_local(unit.key, outcome.results[unit.key])

    # -------------------------------------------------------------- submit

    async def _handle_submit(
        self,
        body: bytes,
        client: str,
        stream: bool,
        writer: asyncio.StreamWriter,
    ) -> None:
        assert self.service is not None and self._loop is not None
        # Admission control first — reject before parsing bodies so an
        # overloaded daemon sheds load at near-zero cost.
        if self._pending >= self.config.max_pending:
            self.counters["rejected_queue_full"] += 1
            await _send_json(
                writer, 429,
                {"error": "server queue full", "retry_after_s": 1},
                extra_headers={"Retry-After": "1"},
            )
            return
        if self._client_inflight.get(client, 0) >= self.config.max_inflight_per_client:
            self.counters["rejected_client_limit"] += 1
            await _send_json(
                writer, 429,
                {"error": "per-client inflight limit reached", "retry_after_s": 1},
                extra_headers={"Retry-After": "1"},
            )
            return
        try:
            document = json.loads(body.decode("utf-8") or "{}")
            spec = self.service.spec_from_document(document)
        except (ValueError, SpecError) as exc:
            await _send_json(writer, 400, {"error": str(exc)})
            return

        self.counters["submits_total"] += 1
        self._pending += 1
        self._client_inflight[client] = self._client_inflight.get(client, 0) + 1
        queue: Optional["asyncio.Queue[Any]"] = None
        pump: Optional["asyncio.Task[None]"] = None
        try:
            units = plan_units(spec)
            hashes = {unit.key for unit in units}
            if stream:
                queue = asyncio.Queue()
                self._subscribers.append(queue)
                await _send_stream_head(writer)
                pump = self._loop.create_task(
                    _pump_events(queue, hashes, writer)
                )
            payload = await self._resolve(spec, units, queue)
            if stream:
                assert queue is not None and pump is not None
                queue.put_nowait(_DONE)
                await pump
                pump = None
                line = json.dumps({"kind": "result", **payload}, sort_keys=True)
                writer.write(line.encode("utf-8") + b"\n")
                await writer.drain()
            else:
                await _send_json(writer, 200, payload)
        except Exception as exc:
            self.counters["errors"] += 1
            _log.exception("submit failed: %s", exc)
            if stream and queue is not None:
                line = json.dumps({"kind": "error", "error": str(exc)})
                try:
                    writer.write(line.encode("utf-8") + b"\n")
                    await writer.drain()
                except OSError:
                    pass
            else:
                await _send_json(writer, 500, {"error": str(exc)})
        finally:
            if pump is not None:
                queue.put_nowait(_DONE)  # type: ignore[union-attr]
                await pump
            if queue is not None and queue in self._subscribers:
                self._subscribers.remove(queue)
            self._pending -= 1
            remaining = self._client_inflight.get(client, 1) - 1
            if remaining <= 0:
                self._client_inflight.pop(client, None)
            else:
                self._client_inflight[client] = remaining

    async def _resolve(
        self,
        spec: SimSpec,
        units: Sequence[RunUnit],
        queue: Optional["asyncio.Queue[Any]"],
    ) -> Dict[str, Any]:
        """Coalesce, execute owned units, await joined ones, build payload."""
        assert self.service is not None and self._loop is not None
        owned: List[RunUnit] = []
        futures: Dict[str, "asyncio.Future[Any]"] = {}
        joined: Dict[str, "asyncio.Future[Any]"] = {}
        seen = set()
        for unit in units:
            if unit.key in seen:
                continue
            seen.add(unit.key)
            self.counters["units_requested"] += 1
            existing = self._inflight.get(unit.key)
            if existing is not None:
                joined[unit.key] = existing
                self.counters["units_coalesced"] += 1
                if queue is not None:
                    # Synthetic progress event: this unit is riding an
                    # execution some earlier request owns.
                    queue.put_nowait({
                        "kind": "coalesced",
                        "run_hash": unit.key,
                        "workload": unit.workload,
                        "scheme": unit.scheme,
                    })
            else:
                future: "asyncio.Future[Any]" = self._loop.create_future()
                self._inflight[unit.key] = future
                futures[unit.key] = future
                owned.append(unit)
                self.counters["units_owned"] += 1

        plan_stats: Optional[Dict[str, Any]] = None
        if owned:
            try:
                if self.coordinator is not None:
                    plan_stats = await self._resolve_distributed(owned, futures)
                else:
                    outcome = await self._loop.run_in_executor(
                        self._executor,
                        self.service.submit,
                        [unit.spec for unit in owned],
                    )
                    plan_stats = outcome.stats.as_dict()
                    for unit in owned:
                        futures[unit.key].set_result(
                            outcome.results[unit.key]
                        )
            except BaseException as exc:
                for unit in owned:
                    if not futures[unit.key].done():
                        futures[unit.key].set_exception(exc)
                    # The exception is delivered through the request's
                    # error path; don't also warn at future GC time.
                    futures[unit.key].exception()
                raise
            finally:
                for unit in owned:
                    self._inflight.pop(unit.key, None)

        results = {key: future.result() for key, future in futures.items()}
        for key, future in joined.items():
            results[key] = await asyncio.shield(future)

        payload = sweep_payload(spec, ExecutionPlan.grid_for(spec, results))
        payload["plan"] = {
            "units": len(seen),
            "units_owned": len(owned),
            "units_joined": len(joined),
            "owned_stats": plan_stats,
        }
        return payload

    async def _resolve_distributed(
        self,
        owned: List[RunUnit],
        futures: Dict[str, "asyncio.Future[Any]"],
    ) -> Dict[str, Any]:
        """Resolve owned units: local cache hierarchy first, leases after.

        Warm units (in-process memo or the shared granular store) never
        lease — that is what makes a warm rerun lease zero units — and
        get ledger records exactly as local execution would write them.
        The remainder enter the coordinator queue and resolve when a
        worker completes them (or the bounded-retry fallback executes
        them on the local pool).
        """
        assert (
            self.service is not None
            and self.coordinator is not None
            and self._loop is not None
            and self.run_store is not None
        )
        stats = PlanStats(units_total=len(owned))
        cached, tiers = await self._loop.run_in_executor(
            self._executor, lookup_cached, owned, self.service.memo,
            self.run_store,
        )
        ledger = (
            self.service.telemetry.ledger
            if self.service.telemetry is not None else None
        )
        plan_no = ledger.begin_plan() if ledger is not None else 0
        remaining: List[RunUnit] = []
        for unit in owned:
            hit = cached.get(unit.key)
            if hit is None:
                remaining.append(unit)
                continue
            tier = tiers[unit.key]
            if tier == "memo":
                stats.units_memo += 1
            else:
                stats.units_disk += 1
            if ledger is not None:
                on_disk = tier == "disk"
                ledger.record(
                    plan=plan_no,
                    run_hash=unit.key,
                    workload=unit.workload,
                    scheme=unit.scheme,
                    tier=tier,
                    engine=unit.spec.engine,
                    cached_bytes=(
                        self.run_store.entry_bytes(unit.key)
                        if on_disk else None
                    ),
                    raw_bytes=(
                        self.run_store.entry_raw_bytes(unit.key)
                        if on_disk else None
                    ),
                )
            futures[unit.key].set_result(hit)
        # From the daemon's perspective every leased unit is work it did
        # not have cached; the worker may still satisfy some from its own
        # hierarchy (its ledger records carry the true tier).
        stats.units_simulated = len(remaining)
        if remaining:
            coord_futures = self.coordinator.enqueue(remaining)
            for unit in remaining:
                value = await asyncio.shield(coord_futures[unit.key])
                result = (
                    value if isinstance(value, RunStats)
                    else RunStats.from_dict(value)
                )
                futures[unit.key].set_result(result)
        payload = stats.as_dict()
        payload["units_leased"] = len(remaining)
        return payload


# ----------------------------------------------------------- HTTP plumbing

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
}


async def _send_json(
    writer: asyncio.StreamWriter,
    status: int,
    payload: Dict[str, Any],
    extra_headers: Optional[Dict[str, str]] = None,
    sort_keys: bool = True,
) -> None:
    # sort_keys=False is for payloads embedding RunStats.to_dict():
    # their insertion order carries the order-sensitive float-sum
    # reproducibility guarantee and must survive the wire.
    body = json.dumps(payload, sort_keys=sort_keys).encode("utf-8")
    headers = [
        f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        "Connection: close",
    ]
    for name, value in (extra_headers or {}).items():
        headers.append(f"{name}: {value}")
    writer.write("\r\n".join(headers).encode("latin-1") + b"\r\n\r\n" + body)
    await writer.drain()


async def _send_stream_head(writer: asyncio.StreamWriter) -> None:
    """Start a JSONL streaming response (body framed by connection close)."""
    writer.write(
        b"HTTP/1.1 200 OK\r\n"
        b"Content-Type: application/x-ndjson\r\n"
        b"Connection: close\r\n\r\n"
    )
    await writer.drain()


async def _pump_events(
    queue: "asyncio.Queue[Any]",
    hashes: set,
    writer: asyncio.StreamWriter,
) -> None:
    """Forward this request's run-unit events to the client as JSONL."""
    while True:
        event = await queue.get()
        if event is _DONE:
            return
        if event.get("run_hash") not in hashes:
            continue
        try:
            writer.write(json.dumps(event, sort_keys=True).encode("utf-8") + b"\n")
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError, OSError):
            # Client went away; keep draining so the submit can finish.
            continue


def run_server(config: Optional[ServeConfig] = None) -> int:
    """Blocking entry point for ``readduo serve`` (Ctrl-C to stop)."""
    server = SimServer(config)

    async def _main() -> None:
        await server.start()
        try:
            await server.serve_forever()
        finally:
            await server.stop()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        pass
    return 0
