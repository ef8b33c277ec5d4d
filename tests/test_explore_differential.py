"""Differential tests: the explorer vs the exhaustive-grid oracle.

The pinned space (16 candidates: 4 schemes x 2 ECC strengths x 2 scrub
intervals on mcf) is small enough to brute-force — score every candidate
at the full budget and take the Pareto set directly — so the explorer's
frontier can be compared for exact equality: same members, same order,
same objective vectors, and byte-identical RunStats to a direct
:class:`ExecutionService` run at the same budget.

A warm re-exploration against the same cache directory must simulate
zero units and reproduce the identical frontier — the resumability
contract (docs/EXPLORE.md).
"""

import pytest

from repro.explore import (
    ExploreError,
    ExploreSpace,
    LocalExploreBackend,
    dominates,
    explore,
)
from repro.service import ExecutionService

from .explore_oracle import exhaustive_frontier

#: Pinned differential space: every (scheme, E, S) combination scored,
#: 16 candidates total, all sharing one run unit per scheme (ECC and
#: scrub are analytic dimensions).
SPACE = ExploreSpace(
    schemes=("LWT-2", "LWT-4", "Select-4:1", "Select-4:2"),
    ecc_strengths=(4, 8),
    scrub_intervals_s=(8.0, 640.0),
    workload="mcf",
    seed=7,
)
BUDGET = 1_200


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    """One cache directory for the whole module.

    Explorer, oracle, and warm-rerun tests deliberately share it: the
    granular cache is content-addressed, so sharing only ever avoids
    re-simulating identical units — it cannot leak state between tests.
    """
    return tmp_path_factory.mktemp("explore-cache")


def _explore(cache, jobs=1):
    with ExecutionService(jobs=jobs, cache=str(cache)) as service:
        return explore(SPACE, BUDGET, backend=LocalExploreBackend(service))


class TestFrontierEqualsExhaustivePareto:
    def test_same_members_same_order_same_objectives(self, cache_dir):
        result = _explore(cache_dir)
        oracle, _outcome = exhaustive_frontier(SPACE, BUDGET, cache_dir)
        assert result.frontier_ids == tuple(c.cid for c, _v in oracle)
        assert [e.objectives for e in result.frontier] == [
            vec for _c, vec in oracle
        ]

    def test_frontier_stats_byte_identical_to_direct_run(self, cache_dir):
        result = _explore(cache_dir)
        _oracle, outcome = exhaustive_frontier(SPACE, BUDGET, cache_dir)
        assert result.frontier  # the comparison below must not be vacuous
        for entry in result.frontier:
            direct = outcome.results[entry.run_hash]
            assert entry.stats.to_dict() == direct.to_dict()

    def test_prune_audit_covers_every_non_frontier_candidate(self, cache_dir):
        result = _explore(cache_dir)
        all_ids = {c.cid for c in SPACE.candidates()}
        pruned_ids = {p.candidate.cid for p in result.pruned}
        assert pruned_ids == all_ids - set(result.frontier_ids)
        # Each prune names the first frontier member that dominates it.
        frontier = {e.candidate.cid: e.objectives for e in result.frontier}
        for p in result.pruned:
            assert p.dominated_by in frontier
            assert dominates(frontier[p.dominated_by], p.objectives)
            assert p.dominated_by == next(
                cid for cid, vec in frontier.items()
                if dominates(vec, p.objectives)
            )

    @pytest.mark.parametrize("budget", [0, -5, True, 1.5])
    def test_invalid_budget_raises(self, budget):
        with pytest.raises(ExploreError, match="budget"):
            explore(SPACE, budget, backend=None)


class TestResumability:
    def test_warm_reexplore_simulates_zero_units(self, cache_dir):
        cold = _explore(cache_dir)
        warm = _explore(cache_dir)
        assert warm.units.get("units_simulated") == 0
        assert warm.frontier_ids == cold.frontier_ids
        assert warm.frontier_digest() == cold.frontier_digest()
        assert [e.stats.to_dict() for e in warm.frontier] == [
            e.stats.to_dict() for e in cold.frontier
        ]

    def test_partial_cache_resume_reproduces_frontier(self, tmp_path, cache_dir):
        # A "killed mid-explore" cache holds the baselines and half the
        # candidates' units; resuming from it must reproduce the cold
        # frontier exactly and simulate only the missing units.
        specs = list(dict.fromkeys(
            SPACE.spec_for(c, BUDGET) for c in SPACE.candidates()
        ))
        done = specs[: len(specs) // 2]
        partial = tmp_path / "partial"
        with ExecutionService(jobs=1, cache=str(partial)) as service:
            baseline = SPACE.baseline_spec(dict(SPACE.configs)["base"], BUDGET)
            service.submit([baseline] + done)
        resumed = _explore(partial)
        reference = _explore(cache_dir)
        assert resumed.frontier_digest() == reference.frontier_digest()
        assert resumed.units["units_simulated"] == len(specs) - len(done)
        assert resumed.units["units_simulated"] > 0
