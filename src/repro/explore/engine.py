"""Full-budget Pareto search over an :class:`ExploreSpace`.

The algorithm (docs/EXPLORE.md):

1. Materialize every candidate as a
   :class:`~repro.experiments.spec.SimSpec` at the requested ``budget``
   (simulated requests per candidate), plus one TLC+Ideal baseline spec
   per distinct config variant, and resolve the whole batch once
   through the execution backend. Candidates differing only in the
   analytic dimensions (ECC strength, scrub interval) share one run
   unit; the planner dedups them, and the granular cache makes every
   completed unit free on a resumed or re-run exploration.
2. Score each candidate on three minimized objectives — EDAP vs TLC,
   FIT margin vs the DRAM target, wear vs Ideal.
3. The non-dominated set, in candidate order, is the frontier. Every
   other candidate is recorded with its score and the first frontier
   member that dominates it (the prune audit).

Determinism: scores read only bit-for-bit pinned
:class:`~repro.memsim.stats.RunStats` plus closed-form reliability/area
models, and every iteration order is fixed by the space's candidate
order — so the same seed + space + budget yields an identical frontier
regardless of jobs, workers, or local-vs-served execution.
"""

from __future__ import annotations

import asyncio
import json
import math
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..memsim.stats import RunStats
from ..metrics.edap import compute_edap
from ..obs import Telemetry, get_logger
from ..obs.spans import maybe_span
from ..pcm.area import (
    DATA_BITS_PER_LINE,
    LineCellBudget,
    cell_budget_for_scheme,
    tlc_line_budget,
)
from ..pcm.params import M_METRIC, R_METRIC, MetricParams
from ..reliability.ler import line_failure_probability
from ..reliability.targets import DRAM_TARGET
from .pareto import dominates, pareto_indices
from .space import Candidate, ExploreError, ExploreSpace

__all__ = [
    "FRONTIER_FORMAT",
    "OBJECTIVES",
    "FrontierEntry",
    "PrunedCandidate",
    "ExploreResult",
    "LocalExploreBackend",
    "ServeExploreBackend",
    "area_budget_for",
    "explore",
    "metric_for_scheme",
    "score_objectives",
    "write_frontier",
]

_log = get_logger("explore.engine")

#: Version stamp of the frontier artifact (results/frontier.json).
FRONTIER_FORMAT = 2

#: Objective names, in vector order; all minimized.
OBJECTIVES: Tuple[str, ...] = ("edap", "fit_margin", "wear")

#: BCH check bits per corrected error over a 512-bit payload: codeword
#: length <= 1023 needs m = 10 bits per correction (t*m check bits), the
#: same arithmetic that gives BCH-8 its 80 check bits in repro.pcm.area.
BCH_CHECK_BITS_PER_T = 10


def metric_for_scheme(scheme: str) -> MetricParams:
    """The readout metric a scheme's scrubber reads under.

    The paper's M-based designs (M-metric, Hybrid, LWT-k, Select-k:s)
    scrub with drift-robust M-sensing; the conventional baselines
    (Scrubbing variants) use R-sensing, and the drift-free references
    (TLC, Ideal) are scored under R as the conservative conventional
    readout.
    """
    if scheme in ("TLC", "Ideal") or scheme.startswith("Scrubbing"):
        return R_METRIC
    return M_METRIC


def area_budget_for(scheme: str, ecc_strength: int) -> LineCellBudget:
    """Cells-per-line of a scheme under an analytic BCH-E regime.

    E = 8 is the paper's regime and resolves through
    :func:`~repro.pcm.area.cell_budget_for_scheme` unchanged; other
    strengths rescale the MLC check-cell spend (``10 * E`` check bits
    over the 512-bit payload) while keeping the scheme's SLC tracking
    flags. TLC carries its own (72, 64) SECDED budget and ignores E.
    """
    if scheme == "TLC":
        return tlc_line_budget()
    base = cell_budget_for_scheme(scheme)
    if ecc_strength == 8:
        return base
    check_bits = BCH_CHECK_BITS_PER_T * int(ecc_strength)
    mlc_cells = math.ceil((DATA_BITS_PER_LINE + check_bits) / 2)
    return LineCellBudget(
        scheme=scheme,
        mlc_cells=mlc_cells,
        slc_cells=base.slc_cells,
        bits_per_cell=base.bits_per_cell,
    )


def score_objectives(
    candidate: Candidate,
    stats: RunStats,
    tlc_stats: RunStats,
    ideal_stats: RunStats,
) -> Tuple[float, float, float]:
    """One candidate's minimized objective vector.

    * ``edap`` — energy-delay-area product normalized to the TLC
      baseline run of the same config/budget, with the area term under
      the candidate's analytic ECC strength;
    * ``fit_margin`` — per-interval uncorrectable-line probability at
      (E, S) divided by the DRAM 25-FIT/Mbit budget for S (< 1 meets
      the paper's target, lower is more margin);
    * ``wear`` — cell writes relative to the Ideal baseline (the
      inverse of the lifetime ratio).
    """
    entries = compute_edap(
        {"TLC": tlc_stats, candidate.scheme: stats},
        budgets={
            candidate.scheme: area_budget_for(
                candidate.scheme, candidate.ecc_strength
            )
        },
    )
    edap = entries[candidate.scheme].edap
    failure = float(
        line_failure_probability(
            metric_for_scheme(candidate.scheme),
            candidate.ecc_strength,
            candidate.scrub_interval_s,
        )
    )
    fit_margin = failure / DRAM_TARGET.budget_for_interval(
        candidate.scrub_interval_s
    )
    ideal_writes = ideal_stats.total_cell_writes
    wear = (
        stats.total_cell_writes / ideal_writes if ideal_writes else 0.0
    )
    return (edap, fit_margin, wear)


# --------------------------------------------------------------- backends


class LocalExploreBackend:
    """Resolve the candidate batch through an in-process ExecutionService."""

    name = "local"

    def __init__(self, service: Any) -> None:
        self.service = service

    def resolve(
        self, specs: Sequence[Any]
    ) -> Tuple[Dict[str, RunStats], Dict[str, Any]]:
        outcome = self.service.submit(list(specs))
        return outcome.results, outcome.stats.as_dict()


class ServeExploreBackend:
    """Resolve the candidate batch through a running ``readduo serve`` daemon.

    Specs are submitted as ordinary ``/v1/submit`` documents (the daemon
    coalesces and caches by run hash) and the full per-run
    :class:`RunStats` are then fetched byte-identically from the
    daemon's shared granular store (``GET /v1/store/<run_hash>`` — the
    submit payload alone carries only summary floats).
    """

    name = "serve"

    def __init__(self, client: Any) -> None:
        self.client = client

    def resolve(
        self, specs: Sequence[Any]
    ) -> Tuple[Dict[str, RunStats], Dict[str, Any]]:
        return asyncio.run(self._resolve(specs))

    async def _resolve(
        self, specs: Sequence[Any]
    ) -> Tuple[Dict[str, RunStats], Dict[str, Any]]:
        from ..service.store import parse_store_entry

        results: Dict[str, RunStats] = {}
        units = {"units_simulated": 0, "units_cached": 0}
        for spec in specs:
            payload = await self.client.submit(spec.to_dict())
            owned = (payload.get("plan") or {}).get("owned_stats") or {}
            for name in units:
                units[name] += int(owned.get(name) or 0)
            for workload in spec.effective_workloads():
                for scheme in spec.schemes:
                    key = spec.run_hash(workload, scheme)
                    if key in results:
                        continue
                    entry = await self.client.store_get(key)
                    stats = (
                        parse_store_entry(entry, key)
                        if entry is not None
                        else None
                    )
                    if stats is None:
                        raise ExploreError(
                            f"daemon no longer holds run {key} "
                            f"({workload}/{scheme}): a daemon without a "
                            "cache evicted it from its memo; raise "
                            "--memo-capacity or run the daemon with a cache"
                        )
                    results[key] = stats
        return results, units


# ----------------------------------------------------------- result shapes


@dataclass(frozen=True)
class FrontierEntry:
    """One frontier member with its full-budget score and stats."""

    candidate: Candidate
    objectives: Tuple[float, float, float]
    run_hash: str
    stats: RunStats

    def to_dict(self) -> Dict[str, Any]:
        return {
            **self.candidate.to_dict(),
            "objectives": dict(zip(OBJECTIVES, self.objectives)),
            "run_hash": self.run_hash,
            "stats": self.stats.to_dict(),
        }


@dataclass(frozen=True)
class PrunedCandidate:
    """One pruned candidate: its score and the member that dominated it."""

    candidate: Candidate
    objectives: Tuple[float, float, float]
    dominated_by: str

    def to_dict(self) -> Dict[str, Any]:
        return {
            "id": self.candidate.cid,
            "objectives": dict(zip(OBJECTIVES, self.objectives)),
            "dominated_by": self.dominated_by,
        }


@dataclass
class ExploreResult:
    """Everything one exploration produced.

    ``to_dict()`` splits into a deterministic core (space, budget,
    frontier, prune audit) and a variable ``exec`` block (units
    simulated, wall time — cold vs warm runs legitimately differ
    there). :meth:`frontier_digest` hashes only the deterministic
    frontier, which is what the determinism gates in CI and the
    property tests compare.
    """

    space: ExploreSpace
    budget: int
    frontier: List[FrontierEntry]
    pruned: List[PrunedCandidate]
    units: Dict[str, Any]
    wall_s: float

    @property
    def frontier_ids(self) -> Tuple[str, ...]:
        return tuple(entry.candidate.cid for entry in self.frontier)

    def frontier_payload(self) -> List[Dict[str, Any]]:
        """The deterministic frontier section of the artifact."""
        return [entry.to_dict() for entry in self.frontier]

    def frontier_digest(self) -> str:
        """SHA-256 over the deterministic frontier section."""
        import hashlib

        blob = json.dumps(
            self.frontier_payload(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def to_dict(self) -> Dict[str, Any]:
        return {
            "format": FRONTIER_FORMAT,
            "space": self.space.to_dict(),
            "budget": self.budget,
            "objectives": list(OBJECTIVES),
            "frontier": self.frontier_payload(),
            "frontier_digest": self.frontier_digest(),
            "pruned": [p.to_dict() for p in self.pruned],
            "exec": {
                "units": self.units,
                "wall_s": self.wall_s,
            },
        }

    def render(self) -> str:
        """Human-readable frontier table."""
        lines: List[str] = []
        lines.append(
            f"explored {len(self.frontier) + len(self.pruned)} "
            f"candidate(s) at budget {self.budget}; "
            f"frontier holds {len(self.frontier)}, "
            f"{len(self.pruned)} pruned"
        )
        width = max(
            (len(e.candidate.cid) for e in self.frontier), default=10
        )
        header = (
            f"  {'candidate':<{width}}  "
            f"{'edap':>10}  {'fit_margin':>12}  {'wear':>10}"
        )
        lines.append("frontier (all objectives minimized):")
        lines.append(header)
        for entry in self.frontier:
            edap, fit, wear = entry.objectives
            lines.append(
                f"  {entry.candidate.cid:<{width}}  "
                f"{edap:>10.4f}  {fit:>12.3e}  {wear:>10.4f}"
            )
        units = self.units or {}
        simulated = units.get("units_simulated")
        if simulated is not None:
            lines.append(
                f"execution: {simulated} unit(s) simulated, "
                f"{units.get('units_cached', 0)} cached, "
                f"{self.wall_s:.2f}s wall"
            )
        return "\n".join(lines)


def write_frontier(
    result: ExploreResult, path: Union[str, Path]
) -> Path:
    """Write the frontier artifact (``results/frontier.json`` shape)."""
    path = Path(path)
    if path.parent != Path(""):
        path.parent.mkdir(parents=True, exist_ok=True)
    # No sort_keys: insertion order keeps the embedded RunStats dicts in
    # their lossless wire order (matching the granular store format).
    path.write_text(json.dumps(result.to_dict(), indent=2) + "\n")
    return path


# ----------------------------------------------------------------- engine


def explore(
    space: ExploreSpace,
    budget: int,
    *,
    backend: Any,
    telemetry: Optional[Telemetry] = None,
) -> ExploreResult:
    """Score every candidate at ``budget`` and keep the Pareto frontier.

    Args:
        space: The candidate space (see :class:`ExploreSpace`).
        budget: Simulated requests per candidate; frontier members'
            stats are bit-identical to a direct run at this budget.
        backend: :class:`LocalExploreBackend` or
            :class:`ServeExploreBackend` — anything with
            ``resolve(specs) -> (results_by_run_hash, exec_stats)``.
        telemetry: Optional :class:`~repro.obs.Telemetry`; the search
            span lands in its tracer and per-unit ledger records gain
            the candidate id they score.

    Returns:
        The :class:`ExploreResult`; raises :class:`ExploreError` on an
        invalid budget.
    """
    if not isinstance(budget, int) or isinstance(budget, bool) or budget < 1:
        raise ExploreError("budget must be an int >= 1")
    started = time.perf_counter()
    candidates = space.candidates()
    baselines = {
        label: space.baseline_spec(config, budget)
        for label, config in space.configs
    }
    candidate_specs = [space.spec_for(c, budget) for c in candidates]
    keys = [
        spec.run_hash(space.workload, cand.scheme)
        for spec, cand in zip(candidate_specs, candidates)
    ]
    ledger = telemetry.ledger if telemetry is not None else None
    scope = (
        ledger.explore_scope(dict(zip(keys, (c.cid for c in candidates))))
        if ledger is not None
        else nullcontext()
    )

    with maybe_span(
        "explore.search", candidates=len(candidates), budget=budget
    ) as span:
        with scope:
            results, exec_stats = backend.resolve(
                list(baselines.values()) + candidate_specs
            )
        vectors = []
        for cand, key in zip(candidates, keys):
            baseline = baselines[cand.config_label]
            vectors.append(
                score_objectives(
                    cand,
                    results[key],
                    results[baseline.run_hash(space.workload, "TLC")],
                    results[baseline.run_hash(space.workload, "Ideal")],
                )
            )
        front = pareto_indices(vectors)
        front_set = set(front)
        pruned = [
            PrunedCandidate(
                candidate=cand,
                objectives=vector,
                dominated_by=next(
                    candidates[j].cid
                    for j in front
                    if dominates(vectors[j], vector)
                ),
            )
            for i, (cand, vector) in enumerate(zip(candidates, vectors))
            if i not in front_set
        ]
        span.set_attr("frontier", len(front))
        span.set_attr("pruned", len(pruned))

    _log.info(
        "scored %d candidate(s) at budget %d: %d on the frontier, "
        "%d unit(s) simulated",
        len(candidates),
        budget,
        len(front),
        int(exec_stats.get("units_simulated") or 0),
    )
    return ExploreResult(
        space=space,
        budget=budget,
        frontier=[
            FrontierEntry(
                candidate=candidates[i],
                objectives=vectors[i],
                run_hash=keys[i],
                stats=results[keys[i]],
            )
            for i in front
        ],
        pruned=pruned,
        units=dict(exec_stats),
        wall_s=time.perf_counter() - started,
    )
