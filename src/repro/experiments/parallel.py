"""Execution of atomic simulation run units, in-process or on a pool.

The sweep is embarrassingly parallel: every (workload, scheme) pair is an
independent event-driven run. :func:`run_units` executes those pairs —
the planner's :class:`~repro.experiments.planner.RunUnit`\\ s — through
:func:`run_unit`, either in this process or on a work-stealing process
pool whose parallelism is ``workloads x schemes`` rather than
``workloads``: the parent keeps one unit in flight per worker, and each
completion pulls the next unit from the same workload's queue where
possible (sticky assignment) or steals from the workload with the most
remaining work. Every process memoizes generated traces
(:class:`TraceMemo`), so sticky scheduling makes each worker generate a
given workload's trace once and reuse it across schemes, just like the
in-process path.

Determinism: each run's randomness comes entirely from the trace seed and
the policy seed, both fixed by the unit's
:class:`~repro.experiments.spec.SimSpec`, and scheduling never feeds back
into a run — so the grid is bit-for-bit identical to the serial one
regardless of worker count or stealing order.
"""

from __future__ import annotations

import logging
import os
import time
from collections import OrderedDict, deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Deque,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..memsim.engine import last_run_provenance, simulate
from ..memsim.stats import RunStats
from ..obs import Telemetry, Tracer, configure_logging, get_logger
from ..obs.progress import ProgressLine
from ..obs.spans import SpanContext, SpanTracker, current_tracker, maybe_span, tracker_scope
from ..traces.spec import workload

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (planner imports us)
    from .planner import RunUnit
    from .spec import SimSpec

__all__ = [
    "TraceMemo",
    "simulate_batch",
    "simulate_unit",
    "run_unit",
    "run_units",
]

_log = get_logger("experiments.parallel")


class TraceMemo:
    """Bounded memo of generated traces, keyed by trace identity.

    A trace is fully determined by (workload, target_requests, seed,
    num_cores); everything else in a spec only affects the policy or the
    engine. One instance lives in each process that runs units, so
    consecutive same-workload units reuse the
    trace instead of regenerating it. The capacity bound keeps memory
    flat when stealing moves a worker across many workloads.
    """

    def __init__(self, capacity: int = 4) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._traces: "OrderedDict[tuple, object]" = OrderedDict()

    def trace_for(self, spec: "SimSpec", workload_name: str):
        key = (
            workload_name,
            spec.target_requests,
            spec.seed,
            spec.config.num_cores,
        )
        trace = self._traces.get(key)
        if trace is None:
            trace = spec.trace_for(workload_name)
            self._traces[key] = trace
            while len(self._traces) > self.capacity:
                self._traces.popitem(last=False)
        else:
            self._traces.move_to_end(key)
        return trace


#: Per-process trace memo; in a pool worker it persists across the tasks
#: that land on that worker, which is what makes sticky assignment pay.
_TRACE_MEMO = TraceMemo()


def simulate_unit(
    spec: "SimSpec", workload_name: str, scheme: str
) -> RunStats:
    """Run one (workload, scheme) simulation.

    The trace comes from the process-local :class:`TraceMemo`; the policy
    is built fresh per unit. Fault injection, when
    the spec enables it, is keyed by the unit's run hash — identical
    whether this worker was handed the full sweep spec or a sub-spec —
    so fault schedules never depend on how work was partitioned.
    """
    profile = workload(workload_name)
    trace = _TRACE_MEMO.trace_for(spec, workload_name)
    policy = spec.make_policy(scheme, profile)
    faults = spec.fault_injector(workload_name, scheme)
    return simulate(
        trace,
        policy,
        spec.config,
        epoch_s=spec.epoch_s,
        faults=faults,
        engine=spec.engine,
    )


def simulate_batch(
    settings: "SimSpec", workload_name: str, schemes: Sequence[str]
) -> List[Tuple[str, RunStats]]:
    """Run one workload's trace under each scheme, in order.

    Kept as the reference loop: a direct call reproduces the planner's
    per-unit results for its workload (the unit tests assert this
    equivalence).
    """
    return [
        (scheme, simulate_unit(settings, workload_name, scheme))
        for scheme in schemes
    ]


def run_unit(unit: "RunUnit") -> Tuple[RunStats, Dict[str, Any]]:
    """Simulate one unit in this process under a ``unit.simulate`` span.

    Returns the statistics and the unit's provenance: ``wall_s``,
    ``pid``, ``t_s`` (wall-clock start), ``engine`` and ``fastpath``.
    Both executor paths of :func:`run_units` run every unit through here.
    """
    t_wall = time.time()
    start = time.perf_counter()
    with maybe_span(
        "unit.simulate", workload=unit.workload, scheme=unit.scheme
    ) as span:
        stats = simulate_unit(unit.spec, unit.workload, unit.scheme)
        prov = last_run_provenance()
        span.set_attr("engine", prov["engine"])
        span.set_attr("fastpath", prov["fastpath"])
    return stats, {
        "wall_s": time.perf_counter() - start,
        "pid": os.getpid(),
        "t_s": t_wall,
        "engine": prov["engine"],
        "fastpath": prov["fastpath"],
    }


# The span carrier installed by the pool initializer (survives across the
# tasks that land on that worker).
_WORKER_CARRIER: Optional[SpanContext] = None


def _configured_log_level() -> Optional[str]:
    """Level name of the CLI-configured ``repro`` logger, if configured."""
    logger = logging.getLogger("repro")
    for handler in logger.handlers:
        if handler.get_name() == "repro-cli":
            return logging.getLevelName(logger.level)
    return None


def _worker_init(level: Optional[str], carrier: Optional[SpanContext]) -> None:
    """Pool initializer: propagate logging config + span carrier.

    Runs once per worker process. Under the ``fork`` start method the
    handler is inherited and :func:`configure_logging` replaces it
    idempotently; under ``spawn`` this is the only way ``--log-level``
    reaches worker-side diagnostics at all.
    """
    global _WORKER_CARRIER
    if level is not None:
        configure_logging(level=level)
    _WORKER_CARRIER = carrier


def _timed_unit(
    unit: "RunUnit",
) -> Tuple[RunStats, Dict[str, Any], List[Dict[str, Any]]]:
    """Pool entry point: :func:`run_unit` in a worker process.

    The third element holds the worker-side span records, parented under
    the executor's carrier context; it is empty unless the executor
    handed the pool a carrier (span tracing is live in the parent).
    """
    carrier = _WORKER_CARRIER
    spans: List[Dict[str, Any]] = []
    if carrier is None:
        stats, provenance = run_unit(unit)
    else:
        tracker = SpanTracker(spans.append, trace_id=carrier.trace, root=carrier)
        with tracker_scope(tracker):
            stats, provenance = run_unit(unit)
    return stats, provenance, spans


def run_units(
    units: Sequence["RunUnit"],
    jobs: int,
    telemetry: Optional[Telemetry] = None,
    max_retries: int = 2,
) -> Tuple[Dict[str, RunStats], Dict[str, Dict[str, Any]]]:
    """Execute run units in-process or on a sticky work-stealing pool.

    ``jobs == 1`` (or a single unit) runs every unit in this process, in
    order; otherwise the units go to :func:`_run_on_pool`. Either way
    each unit runs through :func:`run_unit` and its completion goes
    through one hook: results, provenance, an INFO log line, the live
    progress/ETA line (:mod:`repro.obs.progress`, when the application
    opted in and stderr is a TTY) and, when ``telemetry`` carries a
    tracer, a ``run_unit`` record. Completion order only affects
    reporting — results are keyed by unit hash, so callers reassemble
    canonically.

    Returns:
        ``({unit.key: RunStats}, {unit.key: provenance})`` for every
        unit, the provenance as :func:`run_unit` reports it (timing
        fields local to the process that ran the unit).
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if max_retries < 0:
        raise ValueError("max_retries must be >= 0")
    units = list(units)
    results: Dict[str, RunStats] = {}
    provenance: Dict[str, Dict[str, Any]] = {}
    if not units:
        return results, provenance
    tracer = telemetry.tracer if telemetry is not None else None
    progress = ProgressLine(len(units), label="run units")
    start = time.perf_counter()

    def complete(unit: "RunUnit", stats: RunStats, prov: Dict[str, Any]) -> None:
        results[unit.key] = stats
        provenance[unit.key] = prov
        _log.info(
            "run unit %d/%d: %s/%s in %.2fs (pid %d)",
            len(results), len(units), unit.workload, unit.scheme,
            prov["wall_s"], prov["pid"],
        )
        progress.update(len(results), detail=f"{unit.workload}/{unit.scheme}")
        if tracer is not None:
            tracer.emit({
                "kind": "run_unit",
                "workload": unit.workload,
                "scheme": unit.scheme,
                "seconds": prov["wall_s"],
                "start_s": time.perf_counter() - start - prov["wall_s"],
            })

    try:
        with maybe_span("executor.run", units=len(units), jobs=jobs):
            if jobs == 1 or len(units) == 1:
                for unit in units:
                    complete(unit, *run_unit(unit))
            else:
                _run_on_pool(units, jobs, max_retries, complete, tracer)
    finally:
        progress.close()
    return results, provenance


def _run_on_pool(
    units: List["RunUnit"],
    jobs: int,
    max_retries: int,
    complete: Callable[["RunUnit", RunStats, Dict[str, Any]], None],
    tracer: Optional[Tracer],
) -> None:
    """Run units on a process pool, calling ``complete`` as each finishes.

    Scheduling: units are queued per workload; the pool is primed with
    one unit per worker spread across distinct workloads, and every
    completion immediately submits the next unit from the *same*
    workload (so that worker's memoized trace keeps paying off), falling
    back to stealing from the workload with the most remaining units.
    Exactly one unit is in flight per worker, which is what makes the
    completion-to-resubmission affinity stick.

    Resilience: a worker-process death (OOM kill, segfault, ``SIGKILL``)
    breaks the whole :class:`ProcessPoolExecutor`, not just its unit.
    Instead of surfacing :class:`BrokenProcessPool`, the executor
    requeues every unit that was in flight in the dead pool, builds a
    fresh pool, and continues — results already collected are kept, and
    determinism is unaffected because every run's outcome is a pure
    function of its spec. A unit that was in flight across
    ``max_retries + 1`` pool deaths raises ``RuntimeError`` (it is
    plausibly what keeps killing workers).

    When span tracing is active, the open ``executor.run`` span's context
    goes to the workers as their carrier, and their span records are
    merged back into the parent stream.
    """
    queues: Dict[str, Deque["RunUnit"]] = {}
    for unit in units:
        queues.setdefault(unit.workload, deque()).append(unit)

    def take(prefer: Optional[str] = None) -> "RunUnit":
        name = prefer if prefer in queues else None
        if name is None:
            # Steal from the workload with the most remaining units so
            # long queues drain first (ties: first-seen workload).
            name = max(queues, key=lambda n: len(queues[n]))
        queue = queues[name]
        unit = queue.popleft()
        if not queue:
            del queues[name]
        return unit

    tracker = current_tracker()
    # The open executor span (or None) is the parent every worker span
    # hangs off, keeping the merged stream one tree.
    carrier = tracker.current_context() if tracker is not None else None
    worker_level = _configured_log_level()
    done: Set[str] = set()
    attempts: Dict[str, int] = {}
    start = time.perf_counter()
    while len(done) < len(units):
        max_workers = min(jobs, len(units) - len(done))
        in_flight: Dict[object, "RunUnit"] = {}
        try:
            with ProcessPoolExecutor(
                max_workers=max_workers,
                initializer=_worker_init,
                initargs=(worker_level, carrier),
            ) as pool:

                def submit(unit: "RunUnit") -> None:
                    in_flight[pool.submit(_timed_unit, unit)] = unit

                # Prime one unit per worker, round-robin over distinct
                # workloads so each worker's first trace generation
                # seeds its affinity.
                names = list(queues)
                slot = 0
                while len(in_flight) < max_workers and queues:
                    prefer = names[slot % len(names)]
                    slot += 1
                    if prefer not in queues:
                        continue
                    submit(take(prefer))
                while in_flight:
                    finished, _ = wait(in_flight, return_when=FIRST_COMPLETED)
                    for future in finished:
                        unit = in_flight.pop(future)
                        try:
                            stats, prov, spans = future.result()
                        except BrokenProcessPool:
                            # Keep the unit counted as in flight so the
                            # recovery path below requeues it too.
                            in_flight[future] = unit
                            raise
                        if tracker is not None:
                            for record in spans:
                                tracker.emit_record(record)
                        done.add(unit.key)
                        complete(unit, stats, prov)
                        if queues:
                            submit(take(prefer=unit.workload))
        except BrokenProcessPool:
            lost = [u for u in in_flight.values() if u.key not in done]
            for unit in lost:
                attempts[unit.key] = attempts.get(unit.key, 0) + 1
                if attempts[unit.key] > max_retries:
                    raise RuntimeError(
                        f"run unit {unit.workload}/{unit.scheme} was in "
                        f"flight across {attempts[unit.key]} "
                        "worker-process deaths; giving up (it is likely "
                        "what kills the workers — try --jobs 1 to run "
                        "it in-process)"
                    ) from None
            _log.warning(
                "worker process died; requeueing %d in-flight unit(s) "
                "on a fresh pool", len(lost),
            )
            if tracer is not None:
                tracer.emit({
                    "kind": "pool_broken",
                    "requeued": len(lost),
                    "time_s": time.perf_counter() - start,
                })
            for unit in lost:
                queues.setdefault(unit.workload, deque()).append(unit)
