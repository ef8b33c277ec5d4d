"""Execution service layer: the simulator as a long-lived facility.

Everything below ``repro.service`` already existed as single-shot CLI
plumbing — the planner, the cache hierarchy, the work-stealing executor,
telemetry. This package owns that wiring once, behind two surfaces:

* :class:`ExecutionService` (:mod:`repro.service.execution`) — the
  in-process facade: ``submit(specs) -> results`` through the full
  memo → store → simulate hierarchy, plus the workflows the CLI
  subcommands ride (``readduo run/sweep/faults`` are thin clients of
  this class);
* :mod:`repro.service.server` — ``readduo serve``, the asyncio
  HTTP/JSON daemon that accepts :class:`~repro.experiments.spec.SimSpec`
  documents, coalesces concurrent identical requests by run hash onto a
  single in-flight unit, streams per-unit progress from the run-ledger
  machinery, and applies per-client backpressure;
* :mod:`repro.service.store` — pluggable
  :class:`~repro.experiments.cache.RunStore` backends (filesystem and
  in-memory) and the wire form of one store entry;
* :mod:`repro.service.client` — a dependency-free HTTP/JSON client for
  the daemon (used by the load-test benchmark, the smoke tests, and any
  script that wants to talk to a running server).

Every unit runs in-process or on the ``--jobs`` process pool of one
:class:`ExecutionService`; the daemon is one more caller of it. See
docs/SERVING.md for the HTTP API and coalescing semantics.
"""

from .execution import ExecutionOutcome, ExecutionService, sweep_payload
from .store import MemoryRunStore, RunStore

__all__ = [
    "ExecutionOutcome",
    "ExecutionService",
    "sweep_payload",
    "RunStore",
    "MemoryRunStore",
]
