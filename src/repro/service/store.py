"""Run-store backends: where the granular ``run_hash -> RunStats`` live.

The interface itself (:class:`~repro.experiments.cache.RunStore`) is
defined beside the filesystem implementation it was extracted from, so
the planner can depend on it without importing the service layer; this
module collects the concrete backends a service picks from:

* :class:`~repro.experiments.cache.RunCache` — the granular on-disk
  cache (one JSON file per run under ``<root>/runs/``);
* :class:`MemoryRunStore` — entries held in-process as serialized JSON.
  Useful for tests, for hermetic daemons, and as the reference for what
  any backend must do: round-trip :class:`RunStats` bit-for-bit
  through its serialized form, never raise on unusable entries.

Every backend implements the same four methods and plugs into
:func:`~repro.experiments.planner.execute_plan` via its ``store=``
parameter or :class:`~repro.service.ExecutionService`'s ``cache=``
argument; nothing else in the execution stack changes.

:func:`store_entry_payload` and :func:`parse_store_entry` are the wire
form of one entry, as the daemon's ``GET /v1/store/{run_hash}`` serves
it and ``readduo explore --via-serve`` reads it back.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional

from ..memsim.stats import RunStats
from ..experiments.cache import CacheCounters, RunStore

__all__ = [
    "RunStore",
    "MemoryRunStore",
    "STORE_WIRE_FORMAT",
    "store_entry_payload",
    "parse_store_entry",
]

#: Version of the ``GET /v1/store`` JSON body shape.
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
    """The ``GET /v1/store`` wire body for one entry.

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
