"""Run-level execution planner: plan → dedupe → execute → fan out.

A sweep is not the atomic unit of work — a *run* is: one simulation of
one scheme on one workload's trace under one config/seed/epoch. This
module decomposes any set of :class:`~repro.experiments.spec.SimSpec`\\ s
into those atomic :class:`RunUnit`\\ s, each identified by
:meth:`SimSpec.run_hash` (the content hash of the single-pair sub-spec),
then resolves every unit through one chain before simulating anything
(:func:`lookup_cached`, then :func:`execute_plan`):

1. the caller's in-process :class:`RunMemo` (one per
   :class:`~repro.service.ExecutionService`, shared across its plans);
2. the granular :class:`~repro.experiments.cache.RunStore` — by default
   the on-disk :class:`~repro.experiments.cache.RunCache`, one file per
   run under ``<cache>/runs/``;
3. actual simulation through :func:`~repro.experiments.parallel.run_units`,
   in-process or on its work-stealing pool with ``workloads x schemes``
   way parallelism.

Because unit identity is content-hashed, two artifacts whose specs
overlap (two figures sharing a scheme subset, an ablation varying one
knob) share units: :func:`build_plan` unions and dedupes them so the
overlap simulates exactly once, and the per-run store makes the overlap
persistent across processes. :class:`PlanStats` accounts for every unit
(``plan.units_total/cached/simulated/deduped`` metrics counters), which
is how the benchmark and CI smoke assert "warm rerun simulates zero".
"""

from __future__ import annotations

import functools
import threading
import time
from collections import OrderedDict
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..memsim.stats import RunStats
from ..obs import Telemetry, get_logger
from ..obs.spans import SpanTracker, current_tracker, maybe_span, tracker_scope
from .cache import RunStore
from .parallel import run_units
from .spec import SimSpec

__all__ = [
    "DEFAULT_RUN_MEMO_CAPACITY",
    "RunMemo",
    "RunUnit",
    "PlanStats",
    "ExecutionPlan",
    "plan_units",
    "build_plan",
    "execute_plan",
    "lease_batch",
    "lookup_cached",
]

_log = get_logger("experiments.planner")

#: Default bound on a :class:`RunMemo`. Generous enough that every
#: artifact of a full `readduo run all` (a few hundred distinct units)
#: stays memoized, small enough that a long-lived daemon serving an
#: unbounded stream of distinct specs cannot grow without limit.
DEFAULT_RUN_MEMO_CAPACITY = 4096


class RunMemo:
    """Bounded in-process memo of completed runs, keyed by run hash.

    Entries are kept in LRU order (oldest first); past ``capacity`` the
    least recently used run is evicted, which only costs a possible
    granular-store re-read, never correctness. Each
    :class:`~repro.service.ExecutionService` owns one and passes it to
    :func:`lookup_cached` and :func:`execute_plan`.

    The serve daemon runs several ``execute_plan`` calls concurrently on
    threads; single OrderedDict operations are GIL-atomic in CPython, but
    the read-move-evict sequences here are not, so they take the lock.
    """

    def __init__(self, capacity: int = DEFAULT_RUN_MEMO_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self._runs: "OrderedDict[str, RunStats]" = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._runs)

    def get(self, key: str) -> Optional[RunStats]:
        """LRU-aware lookup: a hit refreshes the entry's recency."""
        with self._lock:
            stats = self._runs.get(key)
            if stats is not None:
                self._runs.move_to_end(key)
            return stats

    def put(self, key: str, stats: RunStats) -> None:
        """Insert/refresh one entry, evicting LRU entries past the cap."""
        with self._lock:
            self._runs[key] = stats
            self._runs.move_to_end(key)
            while len(self._runs) > self.capacity:
                self._runs.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._runs.clear()


@dataclass(frozen=True)
class RunUnit:
    """One atomic simulation: a (workload, scheme) pair under a spec.

    Attributes:
        workload: Benchmark name.
        scheme: Canonical scheme name.
        spec: The single-pair sub-spec (:meth:`SimSpec.run_subspec`)
            carrying the config/seed/epoch — everything a worker needs.
        key: ``spec.content_hash()``; the unit's cache/dedup identity.
    """

    workload: str
    scheme: str
    spec: SimSpec
    key: str


@functools.lru_cache(maxsize=256)
def plan_units(spec: SimSpec) -> Tuple[RunUnit, ...]:
    """Decompose one spec into its run units, in canonical grid order.

    Memoized per (frozen) spec: hashing every sub-spec dominates a warm
    plan, and the figure drivers of one ``readduo run`` re-plan the
    same spec many times.
    """
    units: List[RunUnit] = []
    for name in spec.effective_workloads():
        for scheme in spec.schemes:
            sub = spec.run_subspec(name, scheme)
            units.append(
                RunUnit(workload=name, scheme=scheme, spec=sub, key=sub.content_hash())
            )
    return tuple(units)


@dataclass
class PlanStats:
    """Unit accounting for one planned execution.

    ``units_total`` counts units as *requested* (summed over specs,
    before dedup); every requested unit lands in exactly one of
    ``units_deduped`` (duplicate of an earlier unit in the same plan),
    ``units_memo`` / ``units_disk`` (served from the in-process memo or
    the granular store), or ``units_simulated``.

    Attributes:
        units_total: Units requested across all specs, duplicates included.
        units_deduped: Duplicates folded away by :func:`build_plan`.
        units_memo: Units served from the in-process run memo.
        units_disk: Units served from the granular on-disk store.
        units_simulated: Units actually executed.
        stale: Unreadable granular entries encountered (re-simulated).
        quarantined: Unusable granular entries renamed aside (``.bad``)
            by the run cache; a subset of ``stale``.
        schedule_wall_s: Planner overhead — wall time spent classifying
            and storing, excluding the simulations themselves.
    """

    units_total: int = 0
    units_deduped: int = 0
    units_memo: int = 0
    units_disk: int = 0
    units_simulated: int = 0
    stale: int = 0
    quarantined: int = 0
    schedule_wall_s: float = 0.0

    @property
    def units_cached(self) -> int:
        """Units served without simulation (memo + disk)."""
        return self.units_memo + self.units_disk

    def as_dict(self) -> Dict[str, float]:
        return {
            "units_total": self.units_total,
            "units_cached": self.units_cached,
            "units_simulated": self.units_simulated,
            "units_deduped": self.units_deduped,
            "units_memo": self.units_memo,
            "units_disk": self.units_disk,
            "stale": self.stale,
            "quarantined": self.quarantined,
            "schedule_wall_s": self.schedule_wall_s,
        }


@dataclass
class ExecutionPlan:
    """A deduplicated union of run units, ready to execute.

    Attributes:
        specs: The source specs, in the order given.
        units: Distinct units in first-appearance order (each spec's
            canonical grid order, earlier specs first).
        stats: Filled in by :func:`build_plan` (totals) and
            :func:`execute_plan` (classification).
    """

    specs: Tuple[SimSpec, ...]
    units: Tuple[RunUnit, ...]
    stats: PlanStats

    @staticmethod
    def grid_for(
        spec: SimSpec, results: Dict[str, RunStats]
    ) -> Dict[str, Dict[str, RunStats]]:
        """Fan out executed results into one spec's canonical grid.

        ``results`` may come from any plan covering the spec's units.
        """
        grid: Dict[str, Dict[str, RunStats]] = {}
        for unit in plan_units(spec):
            grid.setdefault(unit.workload, {})[unit.scheme] = results[unit.key]
        return grid


def build_plan(specs: Sequence[SimSpec]) -> ExecutionPlan:
    """Union the specs' run units and dedupe them by content hash."""
    specs = tuple(specs)
    with maybe_span("plan.build", specs=len(specs)) as span:
        deduped: Dict[str, RunUnit] = {}
        total = 0
        for spec in specs:
            for unit in plan_units(spec):
                total += 1
                if unit.key not in deduped:
                    deduped[unit.key] = unit
        units = tuple(deduped.values())
        stats = PlanStats(units_total=total, units_deduped=total - len(units))
        span.set_attr("units", len(units))
        span.set_attr("deduped", stats.units_deduped)
    return ExecutionPlan(specs=specs, units=units, stats=stats)


def lease_batch(
    pending: Sequence[RunUnit], max_units: int
) -> List[RunUnit]:
    """Slice one lease-sized batch off an ordered pending-unit sequence.

    The distributed coordinator hands work to remote workers in batches;
    this is the slicing policy, and it mirrors the work-stealing
    executor's sticky same-workload assignment: the batch starts at the
    oldest pending unit and greedily takes further units of the *same
    workload* (anywhere in the queue) before padding with the oldest
    remaining units. A worker that receives a same-workload batch
    generates that workload's trace once (its process-local trace memo)
    instead of once per unit — the same locality argument that shaped
    :func:`~repro.experiments.parallel.run_units`.

    Args:
        pending: Units awaiting lease, oldest first.
        max_units: Batch size bound (>= 1).

    Returns:
        The selected units, in queue order; empty when nothing pends.
    """
    if max_units < 1:
        raise ValueError("max_units must be >= 1")
    if not pending:
        return []
    anchor_workload = pending[0].workload
    batch: List[RunUnit] = []
    skipped: List[RunUnit] = []
    for unit in pending:
        if len(batch) >= max_units:
            break
        if unit.workload == anchor_workload:
            batch.append(unit)
        else:
            skipped.append(unit)
    for unit in skipped:
        if len(batch) >= max_units:
            break
        batch.append(unit)
    return batch


def lookup_cached(
    units: Sequence[RunUnit], memo: RunMemo, store: Optional[RunStore] = None
) -> Tuple[Dict[str, RunStats], Dict[str, str]]:
    """Resolve units through memo → granular store, simulating nothing.

    The one cache-resolution chain: :func:`execute_plan` runs it before
    simulating the remainder, and the distributed coordinator calls it
    before leasing anything, so a warm daemon answers from its cache
    hierarchy and only genuinely new units travel to workers ("a warm
    rerun leases zero units"). Store hits are promoted into ``memo``.

    Returns:
        ``(results, tiers)`` where ``tiers`` maps each resolved unit's
        key to ``"memo"`` or ``"disk"``; unresolved units appear in
        neither mapping.
    """
    results: Dict[str, RunStats] = {}
    tiers: Dict[str, str] = {}
    missing: List[RunUnit] = []
    with maybe_span("cache.memo", units=len(units)) as span:
        for unit in units:
            hit = memo.get(unit.key)
            if hit is None:
                missing.append(unit)
            else:
                results[unit.key] = hit
                tiers[unit.key] = "memo"
        span.set_attr("hits", len(results))
    if store is not None:
        for unit in missing:
            with maybe_span(
                "cache.disk", workload=unit.workload, scheme=unit.scheme
            ) as span:
                loaded = store.load(unit.key)
                span.set_attr("hit", loaded is not None)
            if loaded is not None:
                results[unit.key] = loaded
                tiers[unit.key] = "disk"
                memo.put(unit.key, loaded)
    return results, tiers


def execute_plan(
    plan: ExecutionPlan,
    jobs: int = 1,
    telemetry: Optional[Telemetry] = None,
    store: Optional[RunStore] = None,
    memo: Optional[RunMemo] = None,
) -> Dict[str, RunStats]:
    """Resolve every unit of a plan: memo → store → simulate.

    Args:
        plan: The plan from :func:`build_plan`. Its ``stats`` are filled
            in as a side effect.
        jobs: Worker processes for the units that must actually run;
            1 executes in-process.
        telemetry: Optional :class:`~repro.obs.Telemetry`; accumulates
            ``plan.*`` counters, ``run_unit`` tracer records, pipeline
            spans when a tracer is
            live, and — when it carries a
            :class:`~repro.obs.ledger.RunLedger` — one provenance record
            per planned unit, in plan order.
        store: Optional :class:`~repro.experiments.cache.RunStore`
            serving the granular tier (the on-disk
            :class:`~repro.experiments.cache.RunCache`, or any other
            backend); every simulated run is stored back into it.
            ``None`` resolves through the in-process memo only.
        memo: The :class:`RunMemo` consulted first and filled with every
            unit of the plan. ``None`` uses a fresh one, so nothing
            outlives the call.

    Returns:
        ``{unit.key: RunStats}`` covering every unit in the plan.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if memo is None:
        memo = RunMemo()
    stats = plan.stats
    tracer = telemetry.tracer if telemetry is not None else None
    # Self-activate span tracing when the caller attached a live tracer
    # but no tracker is installed (library callers, tests); the CLI's
    # root tracker wins when present.
    own_tracker = (
        SpanTracker(tracer.emit)
        if tracer is not None and tracer.enabled and current_tracker() is None
        else None
    )
    scope = tracker_scope(own_tracker) if own_tracker is not None else nullcontext()
    active_tracker = own_tracker if own_tracker is not None else current_tracker()
    trace_id = active_tracker.trace_id if active_tracker is not None else None
    provenance: Dict[str, Dict[str, Any]] = {}
    with scope, maybe_span(
        "plan.execute", units=len(plan.units), jobs=jobs
    ) as plan_span:
        overhead_start = time.perf_counter()
        if store is not None:
            stale_before = store.counters.stale
            quarantined_before = store.counters.quarantined
        results, tiers = lookup_cached(plan.units, memo, store)
        pending = [unit for unit in plan.units if unit.key not in results]
        disk_hits = sum(1 for tier in tiers.values() if tier == "disk")
        stats.units_disk += disk_hits
        stats.units_memo += len(tiers) - disk_hits
        if store is not None:
            stats.stale += store.counters.stale - stale_before
            stats.quarantined += store.counters.quarantined - quarantined_before

        execute_elapsed = 0.0
        if pending:
            _log.info(
                "executing %d of %d planned unit(s), %d job(s)",
                len(pending), len(plan.units), jobs,
            )
            execute_start = time.perf_counter()
            simulated, provenance = run_units(pending, jobs, telemetry)
            execute_elapsed = time.perf_counter() - execute_start
            results.update(simulated)
            stats.units_simulated += len(pending)
            for unit in pending:
                tiers[unit.key] = "simulated"
                if store is not None:
                    store.store(unit.key, simulated[unit.key])

        for unit in plan.units:
            memo.put(unit.key, results[unit.key])
        stats.schedule_wall_s += (
            time.perf_counter() - overhead_start - execute_elapsed
        )
        plan_span.set_attr("simulated", stats.units_simulated)
        plan_span.set_attr("cached", stats.units_cached)

    if telemetry is not None and telemetry.metrics is not None:
        metrics = telemetry.metrics
        metrics.counter("plan.units_total").inc(stats.units_total)
        metrics.counter("plan.units_cached").inc(stats.units_cached)
        metrics.counter("plan.units_simulated").inc(stats.units_simulated)
        metrics.counter("plan.units_deduped").inc(stats.units_deduped)
        metrics.counter("plan.cache.quarantined").inc(stats.quarantined)
        # Speculation outcomes are counted here, per simulated unit,
        # rather than inside the engine: engine-level telemetry must
        # stay bit-identical between the batch kernel and the event
        # oracle, and only the batch kernel has a fastpath at all. A unit
        # that left the kernel also counts under its reason.
        for unit in plan.units:
            prov = provenance.get(unit.key, {})
            outcome = prov.get("fastpath")
            if outcome is not None:
                metrics.counter(f"fastpath.{outcome}").inc()
                if outcome != "speculated":
                    reason = prov.get("fastpath_reason")
                    metrics.counter(f"fastpath.fallback.{reason}").inc()

    if telemetry is not None and telemetry.ledger is not None:
        # One record per planned unit, in plan order, after execution —
        # timing/pid fields vary run to run, everything else is a pure
        # function of the plan and the cache state it met.
        ledger = telemetry.ledger
        plan_no = ledger.begin_plan()
        for unit in plan.units:
            run_stats = results[unit.key]
            prov = provenance.get(unit.key, {})
            tier = tiers[unit.key]
            # Memo hits never touched the store; everything else was
            # read from or written to it.
            sized = store is not None and tier != "memo"
            faults = (
                run_stats.fault_counters.as_dict()
                if run_stats.fault_counters
                else None
            )
            ledger.record(
                plan=plan_no,
                run_hash=unit.key,
                workload=unit.workload,
                scheme=unit.scheme,
                tier=tier,
                engine=prov.get("engine") or unit.spec.engine,
                fastpath=prov.get("fastpath"),
                fastpath_reason=prov.get("fastpath_reason"),
                wall_s=prov.get("wall_s"),
                t_s=prov.get("t_s"),
                pid=prov.get("pid"),
                cached_bytes=store.entry_bytes(unit.key) if sized else None,
                raw_bytes=store.entry_raw_bytes(unit.key) if sized else None,
                faults=faults,
                trace=trace_id,
            )
    return results
