"""Run-store backends: where the granular ``run_hash -> RunStats`` live.

The interface itself (:class:`~repro.experiments.cache.RunStore`) is
defined beside the filesystem implementation it was extracted from, so
the planner can depend on it without importing the service layer; this
module collects the concrete backends a service picks from:

* :class:`~repro.experiments.cache.RunCache` — the granular on-disk
  cache (one JSON file per run under ``<root>/runs/``);
* :class:`MemoryRunStore` — entries held in-process as serialized JSON.
  Useful for tests, for hermetic daemons, and as the reference for what
  a remote backend must do: round-trip :class:`RunStats` bit-for-bit
  through its serialized form, never raise on unusable entries.

* :class:`RemoteRunStore` — the daemon's granular cache over HTTP
  (``GET``/``PUT /v1/store/{run_hash}``), with read-through to an
  optional local store. This is how distributed workers share one
  cache: keys are content hashes, so concurrent writers are
  conflict-free (last-write-wins overwrites a byte-identical entry)
  and network failures degrade to cache misses, never errors.

Every backend implements the same four methods and plugs into
:func:`~repro.experiments.planner.execute_plan` via its ``store=``
parameter or :class:`~repro.service.ExecutionService`'s ``cache=``
argument; nothing else in the execution stack changes.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional, Tuple
from urllib.parse import urlsplit

from ..memsim.stats import RunStats
from ..experiments.cache import CacheCounters, RunStore
from ..obs import get_logger

__all__ = [
    "RunStore",
    "MemoryRunStore",
    "RemoteRunStore",
    "STORE_WIRE_FORMAT",
    "store_entry_payload",
    "parse_store_entry",
]

_log = get_logger("service.store")

#: Version of the ``/v1/store`` JSON body shape (both directions).
STORE_WIRE_FORMAT = 1


class MemoryRunStore(RunStore):
    """In-process run store holding entries as serialized JSON.

    Entries are stored in their :meth:`RunStats.to_dict` JSON form (not
    as live objects) so a load exercises the same serialization
    round-trip the filesystem backend does — a spec that caches
    bit-for-bit here caches bit-for-bit everywhere. Unparseable entries
    (possible only if a test plants one) are dropped and counted
    ``stale``, matching the never-raise contract.
    """

    def __init__(self) -> None:
        self._entries: Dict[str, str] = {}
        self.counters = CacheCounters()

    def __len__(self) -> int:
        return len(self._entries)

    def load(self, key: str) -> Optional[RunStats]:
        blob = self._entries.get(key)
        if blob is None:
            self.counters.misses += 1
            return None
        try:
            stats = RunStats.from_dict(json.loads(blob))
        except (ValueError, KeyError, TypeError):
            del self._entries[key]
            self.counters.stale += 1
            self.counters.misses += 1
            return None
        self.counters.hits += 1
        return stats

    def store(self, key: str, stats: RunStats) -> str:
        # No sort_keys, as in RunCache.store: insertion order keeps
        # order-sensitive float sums bit-identical after a reload.
        self._entries[key] = json.dumps(stats.to_dict())
        self.counters.stores += 1
        return key

    def entry_bytes(self, key: str) -> Optional[int]:
        blob = self._entries.get(key)
        return len(blob.encode("utf-8")) if blob is not None else None

    def clear(self) -> int:
        removed = len(self._entries)
        self._entries.clear()
        return removed


def store_entry_payload(key: str, stats: RunStats) -> Dict[str, Any]:
    """The ``/v1/store`` wire body for one entry (both directions).

    No sort_keys when serializing, as everywhere else: insertion order
    keeps order-sensitive float sums bit-identical after the round trip.
    """
    return {
        "format": STORE_WIRE_FORMAT,
        "key": key,
        "stats": stats.to_dict(),
    }


def parse_store_entry(
    payload: Dict[str, Any], key: str
) -> Optional[RunStats]:
    """Decode one ``/v1/store`` body; ``None`` when unusable.

    Rejects (rather than raises on) a wrong wire format or a payload
    whose recorded key disagrees with the requested hash — the same
    defensive posture :class:`~repro.experiments.cache.RunCache` takes
    with on-disk entries.
    """
    try:
        if payload["format"] != STORE_WIRE_FORMAT:
            return None
        if payload.get("key", key) != key:
            return None
        return RunStats.from_dict(payload["stats"])
    except (KeyError, TypeError, ValueError):
        return None


class RemoteRunStore(RunStore):
    """HTTP-backed run store speaking the daemon's ``/v1/store`` API.

    Used by distributed workers so every worker reads and writes one
    shared granular cache. Resolution order on :meth:`load` is local
    store first (read-through), then the daemon (with a write-through
    into the local store on a hit); :meth:`store` writes through to
    both. All network failures — connection refused, timeouts, garbage
    responses — degrade to cache misses and are counted in
    ``network_errors``, honoring the :class:`RunStore` never-raise
    contract: a worker with a dead coordinator link still simulates.

    Args:
        base_url: Daemon endpoint, e.g. ``http://127.0.0.1:8787``.
        local: Optional local store (typically a
            :class:`~repro.experiments.cache.RunCache`) consulted
            before the network and kept warm by remote hits.
        timeout_s: Per-request socket timeout.
        client_id: Optional identity sent as ``X-Client-Id`` (the
            worker id), for the daemon's logs.
    """

    def __init__(
        self,
        base_url: str,
        local: Optional[RunStore] = None,
        timeout_s: float = 10.0,
        client_id: Optional[str] = None,
    ) -> None:
        parts = urlsplit(base_url if "//" in base_url else f"//{base_url}")
        self.host = parts.hostname or "127.0.0.1"
        self.port = parts.port or 8787
        self.local = local
        self.timeout_s = timeout_s
        self.client_id = client_id
        self.counters = CacheCounters()
        self.network_errors = 0

    # ------------------------------------------------------------ transport

    def _request(
        self, method: str, path: str, body: Optional[Dict[str, Any]] = None
    ) -> Tuple[Optional[int], Optional[Dict[str, Any]]]:
        """One sync round trip; ``(None, None)`` on any network failure."""
        import http.client

        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout_s
        )
        try:
            headers = {"Connection": "close"}
            if self.client_id:
                headers["X-Client-Id"] = self.client_id
            blob = None
            if body is not None:
                blob = json.dumps(body).encode("utf-8")
                headers["Content-Type"] = "application/json"
            conn.request(method, path, body=blob, headers=headers)
            response = conn.getresponse()
            raw = response.read()
        except (OSError, http.client.HTTPException) as exc:
            self.network_errors += 1
            _log.warning(
                "remote store %s %s failed (%s); treating as miss",
                method, path, exc,
            )
            return None, None
        finally:
            conn.close()
        try:
            payload = json.loads(raw.decode("utf-8")) if raw else {}
        except ValueError:
            self.network_errors += 1
            return response.status, None
        if not isinstance(payload, dict):
            payload = {"value": payload}
        return response.status, payload

    # ------------------------------------------------------------- RunStore

    def load(self, key: str) -> Optional[RunStats]:
        if self.local is not None:
            hit = self.local.load(key)
            if hit is not None:
                self.counters.hits += 1
                return hit
        status, payload = self._request("GET", f"/v1/store/{key}")
        if status == 200 and payload is not None:
            stats = parse_store_entry(payload, key)
            if stats is None:
                self.counters.stale += 1
                self.counters.misses += 1
                return None
            if self.local is not None:
                self.local.store(key, stats)
            self.counters.hits += 1
            return stats
        self.counters.misses += 1
        return None

    def store(self, key: str, stats: RunStats) -> str:
        if self.local is not None:
            self.local.store(key, stats)
        status, _payload = self._request(
            "PUT", f"/v1/store/{key}", store_entry_payload(key, stats)
        )
        if status == 200:
            self.counters.stores += 1
        return key

    def entry_bytes(self, key: str) -> Optional[int]:
        return self.local.entry_bytes(key) if self.local is not None else None

    def entry_raw_bytes(self, key: str) -> Optional[int]:
        if self.local is not None:
            return self.local.entry_raw_bytes(key)
        return None

    def clear(self) -> int:
        """Drop local entries only; the shared remote cache is left alone."""
        return self.local.clear() if self.local is not None else 0
