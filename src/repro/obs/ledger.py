"""Run-provenance ledger: one append-only JSONL record per run unit.

Where the metrics registry answers "how many units were cached?", the
ledger answers "how was *this* unit resolved?": every
:func:`~repro.experiments.planner.execute_plan` invocation appends one
record per planned run unit stating its resolution tier (memo /
granular disk cache / simulated), the
engine, the fastpath speculation outcome, fault counters, in-worker
wall time, the worker pid, and the size of the granular cache entry
involved. ``readduo report`` aggregates these records into cache-tier
hit ratios, speculation success rates, slowest-unit lists, and
per-worker utilization (see docs/OBSERVABILITY.md).

Contract — the same "observes, never perturbs" rule the rest of
``repro.obs`` follows:

* ledger output is **deterministic modulo timing**: with the fields
  ``t_s`` / ``wall_s`` / ``pid`` (and the per-plan ``plan_wall_s`` on
  plan records) stripped, two runs of the same plan against the same
  cache state produce identical records in identical order;
* ledger state never enters :meth:`SimSpec.content_hash` or any cached
  artifact — the pinned bit-for-bit sweep digest is unchanged whether a
  ledger is attached or not.

Records validate against ``repro/obs/schemas/ledger.schema.json``
(:mod:`repro.obs.schema`); writes are line-buffered appends so a killed
run keeps every completed record.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Any, Dict, Iterator, Mapping, Optional, Union

__all__ = ["LEDGER_RECORD_KIND", "RunLedger"]

#: ``kind`` field of every unit record (the schema's discriminator).
LEDGER_RECORD_KIND = "run"


class RunLedger:
    """Append-only JSONL writer for run-unit provenance records.

    Args:
        path: Ledger file; opened lazily in append mode, so constructing
            a ledger never touches the filesystem until the first
            record and repeated invocations accumulate history in one
            file.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._handle: Optional[IO[str]] = None
        self._plans = 0
        self.records_written = 0
        self._explore: Optional[Dict[str, Any]] = None

    # ----------------------------------------------------------- writing

    def _ensure_open(self) -> IO[str]:
        if self._handle is None:
            if self.path.parent != Path(""):
                self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = open(self.path, "a", encoding="utf-8")
        return self._handle

    def begin_plan(self) -> int:
        """Mark the start of one ``execute_plan`` invocation.

        Returns the 1-based plan index stamped onto its unit records, so
        a ledger spanning several plans (``readduo run`` prewarm plus
        the per-figure sweeps) stays attributable.
        """
        self._plans += 1
        return self._plans

    @contextmanager
    def explore_scope(
        self,
        rung: int,
        budget: int,
        candidates: Mapping[str, str],
    ) -> Iterator["RunLedger"]:
        """Stamp explore provenance onto records written inside the scope.

        While active, every unit record gains ``rung`` and ``budget``
        plus the exploring ``candidate`` id resolved from the
        ``run_hash -> candidate id`` map (baseline units not owned by a
        candidate record ``candidate: null``). Scopes do not nest — the
        explorer drives one rung at a time — and the fields stay absent
        outside a scope, so pre-explore ledgers keep validating
        unchanged.
        """
        if self._explore is not None:
            raise RuntimeError("explore_scope does not nest")
        self._explore = {
            "rung": int(rung),
            "budget": int(budget),
            "candidates": dict(candidates),
        }
        try:
            yield self
        finally:
            self._explore = None

    def record(
        self,
        plan: int,
        run_hash: str,
        workload: str,
        scheme: str,
        tier: str,
        engine: str,
        fastpath: Optional[str] = None,
        fastpath_reason: Optional[str] = None,
        wall_s: Optional[float] = None,
        t_s: Optional[float] = None,
        pid: Optional[int] = None,
        cached_bytes: Optional[int] = None,
        raw_bytes: Optional[int] = None,
        faults: Optional[Dict[str, Any]] = None,
        trace: Optional[str] = None,
        worker: Optional[str] = None,
        lease: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Append one unit record; returns the record dict written.

        ``fastpath_reason`` says why a simulated unit took the path it
        did (``"ok"`` on the kernel, else the fall-back reason).
        ``raw_bytes`` is the uncompressed size of the granular cache
        entry (equal to ``cached_bytes`` for plain entries); ``worker``
        and ``lease`` attribute units resolved through the distributed
        coordinator to the worker id and lease that produced them —
        ``None`` for local execution, and both are stripped along with
        the timing fields when comparing ledgers for determinism.
        """
        record = {
            "kind": LEDGER_RECORD_KIND,
            "plan": plan,
            "run_hash": run_hash,
            "workload": workload,
            "scheme": scheme,
            "tier": tier,
            "engine": engine,
            "fastpath": fastpath,
            "fastpath_reason": fastpath_reason,
            "wall_s": wall_s,
            "t_s": t_s,
            "pid": pid if pid is not None else os.getpid(),
            "cached_bytes": cached_bytes,
            "raw_bytes": raw_bytes,
            "faults": faults,
            "trace": trace,
            "worker": worker,
            "lease": lease,
        }
        if self._explore is not None:
            record["candidate"] = self._explore["candidates"].get(run_hash)
            record["rung"] = self._explore["rung"]
            record["budget"] = self._explore["budget"]
        handle = self._ensure_open()
        handle.write(json.dumps(record, sort_keys=True))
        handle.write("\n")
        handle.flush()
        self.records_written += 1
        return record

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "RunLedger":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()


def utcnow_s() -> float:
    """Wall-clock now (seconds since the epoch); indirection for tests."""
    return time.time()
