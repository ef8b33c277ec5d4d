"""``readduo worker``: the distributed execution loop.

A worker is a plain synchronous process pointed at a coordinator
(``readduo serve --distributed``): it polls ``POST /v1/lease`` for a
batch of run units, resolves each through its **local** cache hierarchy
(in-process memo → local granular store → the coordinator's shared
store over HTTP → simulate), heartbeats while the batch runs, and
pushes the results back with ``POST /v1/complete``. Because run units
are content-addressed, N workers on one or many machines drain a sweep
bit-for-bit identically to local execution — the only thing that moves
is where the simulation happens.

Failure behavior is intentionally boring: a network error is a nap and
a retry; losing the lease (the coordinator presumed us dead) does not
abort the batch — the results are pushed anyway and accepted for any
unit still unresolved; a worker crash is the coordinator's problem
(TTL expiry requeues the batch). See docs/DISTRIBUTED.md.
"""

from __future__ import annotations

import http.client
import json
import os
import socket
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import urlsplit

from ..obs import Telemetry, get_logger
from ..obs.ledger import RunLedger
from ..experiments.spec import SimSpec, SpecError
from .execution import CacheSpec, ExecutionService, open_store
from .store import RemoteRunStore

__all__ = ["WorkerConfig", "run_worker"]

_log = get_logger("service.worker")


@dataclass
class WorkerConfig:
    """Tunables for one ``readduo worker`` process.

    Attributes:
        coordinator: Coordinator base URL (``http://host:port``).
        worker_id: Stable identity reported on every lease/heartbeat/
            complete; defaults to ``<hostname>-<pid>``.
        jobs: Worker processes per batch execution (as ``sweep --jobs``).
        cache: Local persistent-cache control (the worker's private
            read-through tier in front of the shared remote store).
        max_units: Largest batch to request per lease.
        poll_interval_s: Sleep between empty lease polls.
        exit_after_idle_s: Exit cleanly after this long without work
            (``None`` runs forever — the production mode).
        memo_capacity: Optional in-process run-memo bound.
    """

    coordinator: str = "http://127.0.0.1:8787"
    worker_id: Optional[str] = None
    jobs: int = 1
    cache: CacheSpec = True
    max_units: int = 8
    poll_interval_s: float = 0.5
    exit_after_idle_s: Optional[float] = None
    memo_capacity: Optional[int] = None


class CoordinatorLink:
    """Minimal synchronous HTTP client for the coordinator protocol."""

    def __init__(
        self, base_url: str, worker_id: str, timeout_s: float = 30.0
    ) -> None:
        parts = urlsplit(base_url if "//" in base_url else f"//{base_url}")
        self.host = parts.hostname or "127.0.0.1"
        self.port = parts.port or 8787
        self.worker_id = worker_id
        self.timeout_s = timeout_s

    def post(
        self, path: str, body: Dict[str, Any]
    ) -> Tuple[Optional[int], Optional[Dict[str, Any]]]:
        """One round trip; ``(None, None)`` on any network failure."""
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout_s
        )
        try:
            # No sort_keys: result stats payloads must keep insertion
            # order (order-sensitive float sums) across the wire.
            blob = json.dumps(body).encode("utf-8")
            conn.request(
                "POST", path, body=blob,
                headers={
                    "Connection": "close",
                    "Content-Type": "application/json",
                    "X-Client-Id": self.worker_id,
                },
            )
            response = conn.getresponse()
            raw = response.read()
        except (OSError, http.client.HTTPException) as exc:
            _log.warning("coordinator %s failed: %s", path, exc)
            return None, None
        finally:
            conn.close()
        try:
            payload = json.loads(raw.decode("utf-8")) if raw else {}
        except ValueError:
            return response.status, None
        return response.status, payload if isinstance(payload, dict) else None

    def lease(self, max_units: int) -> Optional[Dict[str, Any]]:
        status, payload = self.post(
            "/v1/lease", {"worker": self.worker_id, "max_units": max_units}
        )
        if status != 200 or payload is None:
            return None
        return payload

    def heartbeat(self, lease_id: str) -> Optional[int]:
        status, _payload = self.post(
            "/v1/heartbeat", {"lease": lease_id, "worker": self.worker_id}
        )
        return status

    def complete(
        self, lease_id: str, results: Dict[str, Dict[str, Any]]
    ) -> Optional[Dict[str, Any]]:
        status, payload = self.post(
            "/v1/complete",
            {
                "lease": lease_id,
                "worker": self.worker_id,
                "results": results,
            },
        )
        if status != 200:
            return None
        return payload


class _CaptureLedger(RunLedger):
    """A file-less ledger that keeps records in memory.

    The worker attaches this to its :class:`ExecutionService` so the
    normal ``execute_plan`` provenance machinery yields the per-unit
    tier / engine / fastpath / wall_s it must report on complete —
    nothing is written to disk (the coordinator owns the real ledger).
    """

    def __init__(self) -> None:
        super().__init__(None)
        self.records: List[Dict[str, Any]] = []

    def record(self, *args: Any, **kwargs: Any) -> Dict[str, Any]:
        rec = super().record(*args, **kwargs)
        self.records.append(rec)
        return rec


def _heartbeat_loop(
    link: CoordinatorLink,
    lease_id: str,
    ttl_s: float,
    stop: threading.Event,
) -> None:
    interval = max(0.05, ttl_s / 3.0)
    while not stop.wait(interval):
        status = link.heartbeat(lease_id)
        if status == 404:
            # Lease presumed dead and requeued; keep executing — the
            # results will be accepted late for any unresolved unit.
            _log.warning(
                "lease %s lost (coordinator requeued it); finishing anyway",
                lease_id,
            )
            return


def _execute_lease(
    service: ExecutionService,
    capture: _CaptureLedger,
    units: List[Dict[str, Any]],
) -> Dict[str, Dict[str, Any]]:
    """Run one lease's units; returns the ``/v1/complete`` results map."""
    specs: List[SimSpec] = []
    keys: List[str] = []
    for unit in units:
        try:
            spec = SimSpec.from_dict(unit.get("spec") or {})
        except SpecError as exc:
            _log.error("unusable leased spec %s: %s", unit.get("key"), exc)
            continue
        specs.append(spec)
        keys.append(str(unit.get("key")))
    if not specs:
        return {}
    capture.records.clear()
    outcome = service.submit(specs)
    provenance = {rec["run_hash"]: rec for rec in capture.records}
    results: Dict[str, Dict[str, Any]] = {}
    for key in keys:
        stats = outcome.results.get(key)
        if stats is None:
            # The leased key does not match our recomputed hash — a
            # version-skewed coordinator. Report nothing; the unit will
            # requeue and eventually fall back locally.
            _log.error("leased key %s missing from outcome", key)
            continue
        record = provenance.get(key, {})
        results[key] = {
            "stats": stats.to_dict(),
            "tier": record.get("tier", "simulated"),
            "engine": record.get("engine"),
            "fastpath": record.get("fastpath"),
            "fastpath_reason": record.get("fastpath_reason"),
            "wall_s": record.get("wall_s"),
        }
    return results


def run_worker(config: Optional[WorkerConfig] = None) -> int:
    """Blocking worker loop: lease → resolve → push, until idle-exit."""
    config = config or WorkerConfig()
    worker_id = config.worker_id or f"{socket.gethostname()}-{os.getpid()}"
    link = CoordinatorLink(config.coordinator, worker_id)
    capture = _CaptureLedger()
    remote = RemoteRunStore(
        config.coordinator, local=open_store(config.cache), client_id=worker_id
    )
    service = ExecutionService(
        jobs=config.jobs,
        cache=remote,
        telemetry=Telemetry(ledger=capture),
        memo_capacity=config.memo_capacity,
    )
    _log.info(
        "worker %s polling %s:%d (jobs=%d, max_units=%d)",
        worker_id, link.host, link.port, config.jobs, config.max_units,
    )
    leases_done = 0
    units_done = 0
    idle_since = time.monotonic()
    try:
        while True:
            granted = link.lease(config.max_units)
            if granted is None or not granted.get("lease"):
                if (
                    config.exit_after_idle_s is not None
                    and time.monotonic() - idle_since
                    >= config.exit_after_idle_s
                ):
                    _log.info(
                        "worker %s idle for %.1fs; exiting "
                        "(%d lease(s), %d unit(s) completed)",
                        worker_id, config.exit_after_idle_s,
                        leases_done, units_done,
                    )
                    return 0
                time.sleep(config.poll_interval_s)
                continue
            idle_since = time.monotonic()
            lease_id = str(granted["lease"])
            ttl_s = float(granted.get("ttl_s") or 30.0)
            units = granted.get("units") or []
            _log.info(
                "worker %s leased %s: %d unit(s)",
                worker_id, lease_id, len(units),
            )
            stop = threading.Event()
            beat = threading.Thread(
                target=_heartbeat_loop,
                args=(link, lease_id, ttl_s, stop),
                daemon=True,
            )
            beat.start()
            try:
                results = _execute_lease(service, capture, units)
            finally:
                stop.set()
                beat.join()
            outcome = link.complete(lease_id, results)
            if outcome is None:
                _log.warning(
                    "complete for %s failed; results are in the shared "
                    "store, the coordinator will requeue the lease",
                    lease_id,
                )
            else:
                leases_done += 1
                units_done += outcome.get("accepted", 0)
            idle_since = time.monotonic()
    except KeyboardInterrupt:
        _log.info("worker %s interrupted", worker_id)
        return 0
    finally:
        service.close()
