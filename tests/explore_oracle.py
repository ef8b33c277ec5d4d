"""Exhaustive-grid oracle shared by the explorer's differential and
property tests.

It scores every candidate of a space at the full budget through a
direct :class:`ExecutionService` submit and keeps the vectors that no
other vector dominates — the frontier's definition, computed without
:func:`repro.explore.explore`.
"""

from repro.explore import dominates
from repro.explore.engine import score_objectives
from repro.service import ExecutionService


def exhaustive_frontier(space, budget, cache):
    """``([(candidate, objectives), ...] in candidate order, outcome)``."""
    candidates = space.candidates()
    baselines = {
        label: space.baseline_spec(config, budget)
        for label, config in space.configs
    }
    specs = list(baselines.values()) + [
        space.spec_for(c, budget) for c in candidates
    ]
    with ExecutionService(jobs=1, cache=str(cache)) as service:
        outcome = service.submit(specs)
    results = outcome.results
    scored = []
    for cand in candidates:
        baseline = baselines[cand.config_label]
        key = space.spec_for(cand, budget).run_hash(space.workload, cand.scheme)
        scored.append((
            cand,
            score_objectives(
                cand,
                results[key],
                results[baseline.run_hash(space.workload, "TLC")],
                results[baseline.run_hash(space.workload, "Ideal")],
            ),
        ))
    frontier = [
        (cand, vec)
        for cand, vec in scored
        if not any(dominates(other, vec) for _c, other in scored)
    ]
    return frontier, outcome
