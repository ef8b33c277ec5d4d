"""The :class:`ExecutionService` facade: one owner for execution wiring.

Before this layer existed, every CLI subcommand hand-wired the same
stack — build a plan, resolve it through the memo/store cache
hierarchy, pick serial vs the work-stealing pool, thread telemetry
through. The service owns all of that behind a handful of methods:

* :meth:`ExecutionService.submit` — the core API: any sequence of
  :class:`~repro.experiments.spec.SimSpec` documents in, deduplicated
  and fully resolved run results out;
* :meth:`ExecutionService.sweep` — one spec's canonical grid (the
  ``readduo sweep`` payload comes from :func:`sweep_payload` over it);
* :meth:`ExecutionService.prewarm` / :meth:`render_experiment` — the
  ``readduo run`` workflow: union all requested artifacts' specs,
  execute each distinct unit once, then let the drivers, which receive
  this service as their ``service`` argument, render from the
  prewarmed memo; closed-form artifacts are served as rendered text
  from the run cache's root when the service has one.

The service is also where memory policy lives: it owns its own
:class:`~repro.experiments.planner.RunMemo`, an LRU of completed runs
that no other service shares, bounded by ``memo_capacity``;
``service.memo.clear()`` drops it (the serve daemon exposes that
operationally). Everything here is synchronous — the asyncio daemon
in :mod:`repro.service.server` layers request coalescing and
backpressure on top.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Sequence, Union

from ..memsim.stats import RunStats
from ..obs import Telemetry, get_logger
from ..experiments.cache import RunCache, artifact_key
from ..experiments.planner import (
    ExecutionPlan,
    RunMemo,
    build_plan,
    execute_plan,
)
from ..experiments.spec import SimSpec

__all__ = [
    "ExecutionOutcome", "ExecutionService", "sweep_payload", "unit_payload",
]

_log = get_logger("service.execution")

#: What ``cache=`` accepts: True (the default on-disk location),
#: False/None (no persistent store), a cache root path, or a
#: :class:`RunCache` instance.
CacheSpec = Union[None, bool, str, Path, RunCache]


def open_store(cache: CacheSpec) -> Optional[RunCache]:
    """The :class:`RunCache` a ``cache=`` argument names, or ``None``."""
    if cache is None or cache is False:
        return None
    if cache is True:
        return RunCache()
    if isinstance(cache, RunCache):
        return cache
    return RunCache(cache)


@dataclass
class ExecutionOutcome:
    """The result of one :meth:`ExecutionService.submit` call.

    Attributes:
        plan: The executed plan; ``plan.stats`` carries the tier
            accounting (total/deduped/memo/disk/simulated).
        results: ``{run_hash: RunStats}`` for every distinct unit.
    """

    plan: ExecutionPlan
    results: Dict[str, RunStats]

    def grid_for(self, spec: SimSpec) -> Dict[str, Dict[str, RunStats]]:
        """One source spec's results as its canonical workload x scheme grid."""
        return self.plan.grid_for(spec, self.results)

    @property
    def stats(self):
        """Shorthand for ``plan.stats``."""
        return self.plan.stats


def unit_payload(stats: RunStats) -> Dict[str, Any]:
    """One run's entry in a sweep payload's ``runs`` grid.

    The CLI's ``readduo sweep`` output and the serve daemon's responses
    both encode each run through this one function.
    """
    return {
        **stats.summary(),
        "execution_time_ns": stats.execution_time_ns,
        "dynamic_energy_pj": stats.dynamic_energy_pj,
        "total_cell_writes": stats.total_cell_writes,
        "energy_by_category_pj": stats.energy.by_category,
        "wear_by_cause_cells": stats.wear.by_cause,
    }


def sweep_payload(
    settings: SimSpec, sweep: Mapping[str, Mapping[str, RunStats]]
) -> Dict[str, Any]:
    """The canonical JSON payload for one sweep grid.

    This is the exact ``readduo sweep`` output shape (sans the optional
    ``telemetry`` block), shared with the serve daemon's ``/v1/submit``
    response so HTTP clients and file consumers parse one format.
    """
    return {
        "target_requests": settings.target_requests,
        "seed": settings.seed,
        "runs": {
            workload_name: {
                scheme: unit_payload(stats)
                for scheme, stats in per_scheme.items()
            }
            for workload_name, per_scheme in sweep.items()
        },
    }


class ExecutionService:
    """Facade owning planner + cache hierarchy + executor pool + telemetry.

    Args:
        jobs: Worker processes for units that must simulate (1 =
            in-process serial, the default).
        cache: The on-disk run cache — ``True`` for a
            :class:`RunCache` at the default location
            (``results/.sweep-cache/runs/``), ``False``/``None`` for
            none (memo only), a path for a :class:`RunCache` under that
            root, or a :class:`RunCache` instance.
        telemetry: Optional :class:`~repro.obs.Telemetry` observed by
            every plan this service executes.
        memo_capacity: LRU bound of the service's run memo (default:
            :class:`~repro.experiments.planner.RunMemo`'s). Long-lived
            daemons set this to their memory budget.

    The service is reusable and reentrant per call. It holds no open
    resources; :meth:`close` (or leaving the context manager) drops the
    memo.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: CacheSpec = True,
        telemetry: Optional[Telemetry] = None,
        memo_capacity: Optional[int] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = int(jobs)
        self.telemetry = telemetry
        #: The :class:`RunCache`, or ``None`` (memo only).
        self.store = open_store(cache)
        #: The in-process :class:`RunMemo`, consulted before the store.
        self.memo = RunMemo() if memo_capacity is None else RunMemo(memo_capacity)

    # ------------------------------------------------------------ lifecycle

    def close(self) -> None:
        """Drop the run memo (idempotent)."""
        self.memo.clear()

    def __enter__(self) -> "ExecutionService":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()

    # ------------------------------------------------------------ execution

    def submit(self, specs: Sequence[SimSpec]) -> ExecutionOutcome:
        """Plan, dedupe, and fully resolve a batch of specs.

        Every distinct (workload, scheme) run across all specs resolves
        through memo → run cache → simulation (serial or the
        work-stealing pool, per ``jobs``).
        Identical work across specs — and across *calls*, via the memo
        and run cache — executes exactly once.
        """
        plan = build_plan(specs)
        results = execute_plan(
            plan, jobs=self.jobs, telemetry=self.telemetry, store=self.store,
            memo=self.memo,
        )
        return ExecutionOutcome(plan=plan, results=results)

    def sweep(self, settings: SimSpec) -> Mapping[str, Mapping[str, RunStats]]:
        """One spec's canonical ``{workload: {scheme: RunStats}}`` grid."""
        return self.submit([settings]).grid_for(settings)

    # ------------------------------------------------------- run workflow

    def prewarm(
        self,
        names: Sequence[str],
        quick_requests: Optional[int] = None,
    ) -> Optional[ExecutionPlan]:
        """Plan → dedupe → execute the requested artifacts' shared run units.

        Every sweep-backed experiment registers a spec collector in
        ``EXPERIMENT_SPECS``; unioning those specs up front lets the
        planner dedupe by run hash and execute each distinct (workload,
        scheme) run exactly once — e.g. Figures 9–15 plus the
        scrub-interval extras cost one simulation per distinct run. The
        drivers then render from the prewarmed in-process memo and
        run cache.

        Args:
            names: Experiment ids (unknown ids are ignored — drivers
                without a spec collector have nothing to prewarm).
            quick_requests: When given, shrinks the sweep-backed
                artifacts to this trace length (the ``--quick`` path).

        Returns:
            The executed plan, or ``None`` when nothing was planned.
        """
        from ..experiments import EXPERIMENT_SPECS, SWEEP_EXPERIMENTS

        specs = []
        for name in names:
            collector = EXPERIMENT_SPECS.get(name)
            if collector is None:
                continue
            kwargs: Dict[str, Any] = {}
            if quick_requests is not None and name in SWEEP_EXPERIMENTS:
                kwargs["target_requests"] = quick_requests
            specs.extend(collector(**kwargs))
        if not specs:
            return None
        plan = build_plan(specs)
        _log.info(
            "planned %d distinct run unit(s) from %d spec(s) "
            "(%d duplicate(s) folded)",
            len(plan.units), len(specs), plan.stats.units_deduped,
        )
        execute_plan(
            plan, jobs=self.jobs, telemetry=self.telemetry, store=self.store,
            memo=self.memo,
        )
        _log.info(
            "plan executed: %d simulated, %d cached",
            plan.stats.units_simulated, plan.stats.units_cached,
        )
        return plan

    def run_experiment(self, name: str, **kwargs: Any):
        """Run one registered experiment driver by id.

        Drivers that sweep (those with a spec collector in
        ``EXPERIMENT_SPECS``) receive this service as ``service``, so
        their sweeps resolve through its memo, run cache and telemetry.
        Unknown ids raise ``KeyError`` (the CLI validates names before
        dispatching).
        """
        from ..experiments import EXPERIMENT_SPECS, EXPERIMENTS

        if name in EXPERIMENT_SPECS:
            kwargs["service"] = self
        return EXPERIMENTS[name](**kwargs)

    def render_experiment(self, name: str, **kwargs: Any) -> str:
        """One experiment's rendered text, as ``readduo run`` prints it.

        A closed-form or Monte-Carlo artifact (an id without a spec
        collector, called without arguments) is a pure function of the
        package's code, so the service's :class:`RunCache` serves its
        text under :func:`~repro.experiments.cache.artifact_key` and
        stores it on a miss. Every other case renders
        :meth:`run_experiment`: sweep-backed artifacts, calls with
        arguments, a service without a run cache and a driver set by
        hand in ``EXPERIMENTS``.
        """
        from ..experiments.catalog import EXPERIMENT_SPECS, EXPERIMENTS

        if (
            kwargs
            or self.store is None
            or name in EXPERIMENT_SPECS
            or not EXPERIMENTS.located(name)
        ):
            return self.run_experiment(name, **kwargs).render()
        key = artifact_key(name)
        text = self.store.load_artifact(key)
        if text is None:
            text = self.run_experiment(name).render()
            self.store.store_artifact(key, name, text)
        return text

    # ------------------------------------------------------------- helpers

    def describe(self) -> Dict[str, Any]:
        """Operational snapshot (the daemon's ``/v1/stats`` backbone)."""
        return {
            "jobs": self.jobs,
            "cache_dir": str(self.store.root) if self.store is not None else None,
            "store": type(self.store).__name__ if self.store is not None else None,
            "memo_runs": len(self.memo),
        }
