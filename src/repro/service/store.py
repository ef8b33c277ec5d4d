"""The wire form of one run-store entry.

:func:`store_entry_payload` and :func:`parse_store_entry` encode and
decode one entry as the daemon's ``GET /v1/store/{run_hash}`` serves it
and ``readduo explore --via-serve`` reads it back. The daemon resolves
the key through the same memo → :class:`~repro.experiments.cache.RunCache`
chain as every run unit (:func:`~repro.experiments.planner.lookup_cached`).
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from ..memsim.stats import RunStats

__all__ = [
    "STORE_WIRE_FORMAT",
    "store_entry_payload",
    "parse_store_entry",
]

#: Version of the ``GET /v1/store`` JSON body shape.
STORE_WIRE_FORMAT = 1


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
