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
* ``GET  /v1/store/{run_hash}`` — one entry of the daemon's granular
  run store, with its full statistics (``readduo explore --via-serve``
  scores candidates from it). A key that is not a run hash (64
  lowercase hex characters) gets ``404`` before the store is touched.

**Coalescing.** Every submitted spec decomposes into run units keyed by
:meth:`SimSpec.run_hash` — the same identity the planner, memo, and
disk store use. The server keeps one in-flight future per run hash:
the first request to need a unit *owns* it (executes it through
``ExecutionService.submit`` on the executor pool); any request arriving
while it is in flight *joins* the future instead of executing. N
concurrent identical requests therefore simulate exactly once — the
ledger shows one ``simulated`` record — and N-1 requests pay only an
await. Completed units additionally land in the service's run memo and
the granular store.

**Memo hits.** A submit whose owned units are all in the service's run
memo makes the same ``ExecutionService.submit`` call on the event loop
itself, with no hop to the pool: the plan, the ledger records and the
tier counters are those of the pooled path. Each unit's JSON text is
encoded once per run hash and kept in an LRU beside the memo; every
response is joined from those texts, byte-identical to
``json.dumps(payload, sort_keys=True)``.

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
import re
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple
from urllib.parse import parse_qs, urlsplit

from .. import __version__
from ..core.registry import scheme_catalog
from ..memsim.stats import RunStats
from ..obs import Telemetry, get_logger
from ..obs.ledger import RunLedger
from ..experiments.cache import RunStore
from ..experiments.planner import RunMemo, RunUnit, plan_units
from ..experiments.spec import SimSpec, SpecError
from .execution import (
    CacheSpec,
    ExecutionOutcome,
    ExecutionService,
    open_store,
    unit_payload,
)
from .store import MemoryRunStore, store_entry_payload

__all__ = ["ServeConfig", "SimServer", "run_server"]

_log = get_logger("service.server")

#: Queue sentinel ending a streaming subscription.
_DONE = object()

_MAX_HEADER_BYTES = 32 * 1024

#: A store key: ``SimSpec.run_hash``, a sha256 hex digest.
_RUN_HASH = re.compile(r"[0-9a-f]{64}")


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


class _RelayLedger(RunLedger):
    """A :class:`RunLedger` that also hands every record to a hook.

    The daemon attaches this as the service telemetry's ledger, so the
    existing ``execute_plan`` provenance machinery *is* the progress
    feed — one record per planned unit, in plan order, with tier /
    engine / fastpath / wall_s exactly as ``readduo report`` sees them.
    Without a configured path, records still flow to the hook and are
    counted, but no file is opened. Records come from the pool threads
    and the event loop; the lock keeps concurrent plans from
    interleaving lines.
    """

    def __init__(self, path: Optional[str], hook) -> None:
        super().__init__(path or None)
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
        self._loop_thread: Optional[int] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self.service: Optional[ExecutionService] = None
        self.run_store: Optional[RunStore] = None
        #: ``json.dumps(unit_payload(stats), sort_keys=True)`` per run
        #: hash; an entry never goes stale, because a run hash names its
        #: result.
        self._unit_json: Optional["RunMemo[str]"] = None
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
        self._loop_thread = threading.get_ident()
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
        # The granular store behind GET /v1/store/{hash}: the configured
        # persistent store, an in-process one otherwise.
        store = open_store(self.config.cache)
        self.run_store = MemoryRunStore() if store is None else store
        self.service = ExecutionService(
            jobs=self.config.jobs,
            cache=self.run_store,
            telemetry=Telemetry(ledger=ledger),
            memo_capacity=self.config.memo_capacity,
        )
        self._unit_json = RunMemo[str](self.service.memo.capacity)
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.config.host, port=self.config.port
        )
        _log.info(
            "serving on %s:%d (%d executor thread(s))",
            self.config.host, self.port,
            max(1, self.config.executor_workers),
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
        """Ledger hook → event-loop broadcast.

        A record written on the loop itself (a memo-hit submit) is
        broadcast at once: scheduled, it would reach a streaming
        subscriber after the submit's end marker.
        """
        if self._loop is None:
            return
        if threading.get_ident() == self._loop_thread:
            self._broadcast(record)
        else:
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
            assert self.service is not None and self._unit_json is not None
            self.service.clear_memo()
            self._unit_json.clear()
            await _send_json(writer, 200, {
                "cleared": True, "memo_runs": self.service.memo_size(),
            })
        elif path == "/v1/submit" and method == "POST":
            stream = query.get("stream", ["0"])[0] not in ("", "0", "false")
            await self._handle_submit(body, client, stream, writer)
        elif path.startswith("/v1/store/"):
            key = path[len("/v1/store/"):]
            if not _RUN_HASH.fullmatch(key):
                # Checked before any store access: a key that is not a
                # run hash never reaches the filesystem.
                await _send_json(writer, 404, {"error": "malformed store key"})
            elif method == "GET":
                await self._handle_store_get(key, writer)
            else:
                await _send_json(
                    writer, 405, {"error": f"method {method} not allowed"}
                )
        elif path in ("/v1/health", "/v1/schemes", "/v1/stats",
                      "/v1/memo/clear", "/v1/submit"):
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
        }

    # ------------------------------------------------------- store endpoint

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
            results, plan = await self._resolve(units, queue)
            text = self._response_text(
                spec, results, plan, kind="result" if stream else None
            )
            if stream:
                assert queue is not None and pump is not None
                queue.put_nowait(_DONE)
                await pump
                pump = None
                writer.write(text.encode("utf-8") + b"\n")
                await writer.drain()
            else:
                await _send_body(writer, 200, text.encode("utf-8"))
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
        units: Sequence[RunUnit],
        queue: Optional["asyncio.Queue[Any]"],
    ) -> Tuple[Dict[str, RunStats], Dict[str, Any]]:
        """Coalesce, execute owned units, await joined ones.

        Returns ``(results, plan)``: every unit's stats by run hash, and
        the response's ``plan`` block.
        """
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
                outcome = await self._submit_owned(owned)
                plan_stats = outcome.stats.as_dict()
                for unit in owned:
                    futures[unit.key].set_result(outcome.results[unit.key])
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

        return results, {
            "units": len(seen),
            "units_owned": len(owned),
            "units_joined": len(joined),
            "owned_stats": plan_stats,
        }

    async def _submit_owned(self, owned: List[RunUnit]) -> ExecutionOutcome:
        """``service.submit`` for the owned units, on the loop or the pool."""
        assert self.service is not None and self._loop is not None
        specs = [unit.spec for unit in owned]
        if all(unit.key in self.service.memo for unit in owned):
            # Memo hits only: the same call, without the thread hop.
            # Should a pool thread evict one of these units meanwhile,
            # it resolves here from the store or by simulation: slower,
            # never wrong.
            return self.service.submit(specs)
        return await self._loop.run_in_executor(
            self._executor, self.service.submit, specs
        )

    def _response_text(
        self,
        spec: SimSpec,
        results: Mapping[str, RunStats],
        plan: Mapping[str, Any],
        kind: Optional[str] = None,
    ) -> str:
        """The submit response, ``json.dumps(payload, sort_keys=True)``.

        ``payload`` is ``sweep_payload(spec, grid)`` plus ``plan`` (and
        ``kind`` on a streamed ``result`` line). Each unit's text comes
        from the per-run-hash LRU, so a memo hit formats no float again;
        the rest is joined in sorted key order with ``json.dumps``'s
        default separators.
        """
        assert self._unit_json is not None
        runs: Dict[str, Dict[str, str]] = {}
        for unit in plan_units(spec):
            text = self._unit_json.get(unit.key)
            if text is None:
                text = json.dumps(unit_payload(results[unit.key]), sort_keys=True)
                self._unit_json.put(unit.key, text)
            runs.setdefault(unit.workload, {})[unit.scheme] = text
        grid = ", ".join(
            f"{json.dumps(workload)}: {{"
            + ", ".join(
                f"{json.dumps(scheme)}: {per_scheme[scheme]}"
                for scheme in sorted(per_scheme)
            )
            + "}"
            for workload, per_scheme in sorted(runs.items())
        )
        head = "" if kind is None else f'"kind": {json.dumps(kind)}, '
        return (
            f'{{{head}"plan": {json.dumps(plan, sort_keys=True)}, '
            f'"runs": {{{grid}}}, "seed": {json.dumps(spec.seed)}, '
            f'"target_requests": {json.dumps(spec.target_requests)}}}'
        )


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
    await _send_body(writer, status, body, extra_headers)


async def _send_body(
    writer: asyncio.StreamWriter,
    status: int,
    body: bytes,
    extra_headers: Optional[Dict[str, str]] = None,
) -> None:
    """Write one complete JSON response whose body is already encoded."""
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
