"""Lease-based distribution of run units across remote workers.

The serve daemon decomposes every submitted spec into content-addressed
run units (:meth:`SimSpec.run_hash`); this module owns the queue that
hands those units to ``readduo worker`` processes:

* a worker **leases** a batch (``POST /v1/lease``) and receives the
  units' full sub-specs plus a TTL;
* while executing it **heartbeats** (``POST /v1/heartbeat``) to extend
  the lease;
* it pushes results back with **complete** (``POST /v1/complete``).

Failure handling leans entirely on content addressing. A lease whose
TTL lapses without a heartbeat is presumed dead: its unfinished units
are requeued for the next lease (``units_requeued``). A *partial*
complete — the worker crashed mid-batch but a sibling delivered what it
had — requeues exactly the missing units. And because results are keyed
by content hash, a late complete from an expired lease is still
accepted when the unit is unresolved (the result cannot be wrong, only
redundant), counted as ``late_results``. Units requeued more than
``max_requeues`` times fall back to the daemon's own executor pool
(``units_fallback``), mirroring the work-stealing executor's
bounded-retry semantics, so one poisoned worker fleet cannot wedge a
sweep forever.

Single-threaded by construction: every method runs on the daemon's
event loop (the server routes requests there), so there is no locking —
state transitions are atomic between awaits.
"""

from __future__ import annotations

import asyncio
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Awaitable, Callable, Dict, List, Optional, Sequence, Set

from ..obs import get_logger
from ..experiments.planner import RunUnit, lease_batch

__all__ = ["LeaseCoordinator", "Lease"]

_log = get_logger("service.coordinator")


@dataclass
class Lease:
    """One granted lease: a unit batch owned by one worker until deadline.

    Attributes:
        lease_id: Server-assigned id (``ls-<n>``), echoed by the worker
            on heartbeat/complete.
        worker: The worker id that requested the lease.
        keys: Run hashes of the leased units still outstanding.
        deadline: Event-loop clock time the lease expires at.
        ttl_s: Extension granted per heartbeat.
    """

    lease_id: str
    worker: str
    keys: Set[str]
    deadline: float
    ttl_s: float
    units: Dict[str, RunUnit] = field(default_factory=dict)


class LeaseCoordinator:
    """Event-loop-confined lease queue for distributed run units.

    Args:
        ttl_s: Lease lifetime; heartbeats extend it by the same amount.
        max_units: Largest batch one lease may carry.
        max_requeues: Requeues a unit survives before falling back to
            local execution.
        fallback: Async callable executing units locally (the server
            wires its executor pool in); invoked with the exhausted
            units. May be ``None`` in tests — exhausted units then just
            requeue forever.
        on_complete: Callback invoked once per resolved unit with
            ``(unit, stats, meta)`` where ``meta`` carries the worker's
            provenance (tier/engine/fastpath/wall_s) plus the lease and
            worker ids — the server's ledger hook.
    """

    def __init__(
        self,
        ttl_s: float = 30.0,
        max_units: int = 8,
        max_requeues: int = 3,
        fallback: Optional[Callable[[List[RunUnit]], Awaitable[None]]] = None,
        on_complete: Optional[
            Callable[[RunUnit, Dict[str, Any], Dict[str, Any]], None]
        ] = None,
    ) -> None:
        if ttl_s <= 0:
            raise ValueError("ttl_s must be > 0")
        if max_units < 1:
            raise ValueError("max_units must be >= 1")
        self.ttl_s = ttl_s
        self.max_units = max_units
        self.max_requeues = max_requeues
        self.fallback = fallback
        self.on_complete = on_complete
        #: Units awaiting lease, oldest first (run hash -> unit).
        self.pending: "OrderedDict[str, RunUnit]" = OrderedDict()
        #: Requeue count per unresolved unit.
        self.attempts: Dict[str, int] = {}
        #: Active leases by id.
        self.leases: Dict[str, Lease] = {}
        #: One future per unresolved unit; resolved with the unit's
        #: raw stats payload (``RunStats.to_dict`` form).
        self.futures: Dict[str, "asyncio.Future[Any]"] = {}
        self._lease_seq = 0
        self._expiry_task: Optional["asyncio.Task[None]"] = None
        self.workers_seen: Set[str] = set()
        self.counters: Dict[str, int] = {
            "leases_granted": 0,
            "leases_completed": 0,
            "leases_expired": 0,
            "units_enqueued": 0,
            "units_leased": 0,
            "units_completed": 0,
            "units_requeued": 0,
            "units_fallback": 0,
            "late_results": 0,
        }

    # ------------------------------------------------------------ lifecycle

    def start(self) -> None:
        """Begin the background expiry scan (idempotent)."""
        if self._expiry_task is None:
            loop = asyncio.get_running_loop()
            self._expiry_task = loop.create_task(self._expiry_loop())

    async def stop(self) -> None:
        if self._expiry_task is not None:
            self._expiry_task.cancel()
            try:
                await self._expiry_task
            except asyncio.CancelledError:
                pass
            self._expiry_task = None

    async def _expiry_loop(self) -> None:
        interval = min(1.0, self.ttl_s / 4.0)
        loop = asyncio.get_running_loop()
        while True:
            await asyncio.sleep(interval)
            self.release_expired(loop.time())

    # ------------------------------------------------------------- enqueue

    def enqueue(
        self, units: Sequence[RunUnit]
    ) -> Dict[str, "asyncio.Future[Any]"]:
        """Queue units for leasing; returns one future per unit key.

        Units already tracked (queued, leased, or racing) return their
        existing future, so concurrent submits needing the same unit
        share one resolution — the coordinator-side face of the server's
        per-hash coalescing.
        """
        loop = asyncio.get_running_loop()
        out: Dict[str, "asyncio.Future[Any]"] = {}
        for unit in units:
            future = self.futures.get(unit.key)
            if future is None:
                future = loop.create_future()
                self.futures[unit.key] = future
                self.pending[unit.key] = unit
                self.attempts.setdefault(unit.key, 0)
                self.counters["units_enqueued"] += 1
            out[unit.key] = future
        return out

    # -------------------------------------------------------------- lease

    def lease(
        self, worker: str, max_units: Optional[int] = None
    ) -> Optional[Dict[str, Any]]:
        """Grant one lease to ``worker``; ``None`` when nothing pends."""
        self.workers_seen.add(worker)
        limit = min(max_units or self.max_units, self.max_units)
        batch = lease_batch(list(self.pending.values()), max(1, limit))
        if not batch:
            return None
        loop = asyncio.get_running_loop()
        self._lease_seq += 1
        lease = Lease(
            lease_id=f"ls-{self._lease_seq}",
            worker=worker,
            keys={unit.key for unit in batch},
            deadline=loop.time() + self.ttl_s,
            ttl_s=self.ttl_s,
            units={unit.key: unit for unit in batch},
        )
        for unit in batch:
            del self.pending[unit.key]
        self.leases[lease.lease_id] = lease
        self.counters["leases_granted"] += 1
        self.counters["units_leased"] += len(batch)
        _log.info(
            "lease %s -> %s: %d unit(s), ttl %.1fs",
            lease.lease_id, worker, len(batch), self.ttl_s,
        )
        return {
            "lease": lease.lease_id,
            "ttl_s": self.ttl_s,
            "units": [
                {
                    "key": unit.key,
                    "workload": unit.workload,
                    "scheme": unit.scheme,
                    "spec": unit.spec.to_dict(),
                }
                for unit in batch
            ],
        }

    def heartbeat(self, lease_id: str, worker: str) -> Optional[float]:
        """Extend one lease; returns the new TTL or ``None`` if unknown.

        An unknown lease means the worker was presumed dead and its
        units requeued — the worker should finish its batch anyway and
        ``complete``; still-unresolved units will be accepted late.
        """
        lease = self.leases.get(lease_id)
        if lease is None or lease.worker != worker:
            return None
        lease.deadline = asyncio.get_running_loop().time() + lease.ttl_s
        return lease.ttl_s

    # ------------------------------------------------------------ complete

    def complete(
        self,
        lease_id: str,
        worker: str,
        results: Dict[str, Dict[str, Any]],
    ) -> Dict[str, int]:
        """Accept a worker's results; requeue whatever the lease misses.

        ``results`` maps run hashes to ``{"stats": RunStats.to_dict(),
        "tier": ..., "engine": ..., "fastpath": ..., "fastpath_reason": ...,
        "wall_s": ...}``.
        Results for units no longer tracked are ignored (someone else
        resolved them first); results from an expired/foreign lease are
        accepted for any still-unresolved unit (``late_results``) —
        content-addressed results cannot be wrong, only redundant.
        """
        lease = self.leases.get(lease_id)
        accepted = 0
        late = 0
        for key, payload in results.items():
            future = self.futures.get(key)
            if future is None or future.done():
                continue
            owned = lease is not None and key in lease.keys
            if not owned:
                late += 1
            self._resolve(key, payload, worker, lease_id)
            accepted += 1
        self.counters["late_results"] += late
        requeued = 0
        if lease is not None and lease.worker == worker:
            missing = [
                lease.units[key] for key in sorted(lease.keys)
                if key in self.futures and not self.futures[key].done()
                and key not in self.pending
            ]
            requeued = self._requeue(missing, f"partial complete {lease_id}")
            del self.leases[lease_id]
            self.counters["leases_completed"] += 1
        return {"accepted": accepted, "requeued": requeued, "late": late}

    def _resolve(
        self,
        key: str,
        payload: Dict[str, Any],
        worker: str,
        lease_id: str,
    ) -> None:
        unit = None
        lease = self.leases.get(lease_id)
        if lease is not None:
            unit = lease.units.get(key)
            lease.keys.discard(key)
        if unit is None:
            unit = self.pending.get(key)
        self.pending.pop(key, None)
        self.attempts.pop(key, None)
        future = self.futures.pop(key)
        future.set_result(payload.get("stats"))
        self.counters["units_completed"] += 1
        if self.on_complete is not None and unit is not None:
            meta = {
                "tier": payload.get("tier", "simulated"),
                "engine": payload.get("engine"),
                "fastpath": payload.get("fastpath"),
                "fastpath_reason": payload.get("fastpath_reason"),
                "wall_s": payload.get("wall_s"),
                "worker": worker,
                "lease": lease_id,
            }
            self.on_complete(unit, payload.get("stats"), meta)

    # -------------------------------------------------------------- expiry

    def release_expired(self, now: float) -> int:
        """Requeue the unfinished units of every lease past its deadline."""
        requeued = 0
        for lease_id in list(self.leases):
            lease = self.leases[lease_id]
            if lease.deadline > now:
                continue
            del self.leases[lease_id]
            self.counters["leases_expired"] += 1
            stale = [
                lease.units[key] for key in sorted(lease.keys)
                if key in self.futures and not self.futures[key].done()
                and key not in self.pending
            ]
            requeued += self._requeue(
                stale, f"lease {lease_id} (worker {lease.worker}) expired"
            )
        return requeued

    def _requeue(self, units: List[RunUnit], why: str) -> int:
        exhausted: List[RunUnit] = []
        requeued = 0
        for unit in units:
            self.attempts[unit.key] = self.attempts.get(unit.key, 0) + 1
            if self.attempts[unit.key] > self.max_requeues:
                exhausted.append(unit)
                continue
            self.pending[unit.key] = unit
            requeued += 1
        if requeued:
            self.counters["units_requeued"] += requeued
            _log.warning("%s: requeued %d unit(s)", why, requeued)
        if exhausted:
            self.counters["units_fallback"] += len(exhausted)
            _log.warning(
                "%s: %d unit(s) exceeded %d requeues, executing locally",
                why, len(exhausted), self.max_requeues,
            )
            if self.fallback is not None:
                asyncio.get_running_loop().create_task(
                    self._run_fallback(exhausted)
                )
            else:  # no local executor: keep them leasable as a last resort
                for unit in exhausted:
                    self.pending[unit.key] = unit
        return requeued

    async def _run_fallback(self, units: List[RunUnit]) -> None:
        assert self.fallback is not None
        try:
            await self.fallback(units)
        except Exception as exc:  # pragma: no cover - defensive
            _log.exception("local fallback failed: %s", exc)
            for unit in units:
                future = self.futures.pop(unit.key, None)
                if future is not None and not future.done():
                    future.set_exception(exc)

    def resolve_local(self, key: str, stats: Any) -> None:
        """Resolve one unit executed by the local fallback path."""
        self.pending.pop(key, None)
        self.attempts.pop(key, None)
        future = self.futures.pop(key, None)
        if future is not None and not future.done():
            future.set_result(stats)
            self.counters["units_completed"] += 1

    # ------------------------------------------------------------ snapshot

    def snapshot(self) -> Dict[str, Any]:
        """The ``/v1/stats`` ``coordinator`` section."""
        return {
            "pending_units": len(self.pending),
            "active_leases": len(self.leases),
            "unresolved_units": len(self.futures),
            "workers_seen": sorted(self.workers_seen),
            "ttl_s": self.ttl_s,
            "max_units": self.max_units,
            "max_requeues": self.max_requeues,
            "counters": dict(self.counters),
        }
