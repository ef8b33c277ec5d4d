"""Differential tests: the explorer vs the exhaustive-grid oracle.

The pinned space (16 candidates: 4 schemes x 2 ECC strengths x 2 scrub
intervals on mcf) is small enough to brute-force — score every candidate
at the full budget and take the Pareto set directly — so the
successive-halving explorer's frontier can be compared for exact
equality: same members, same order, same objective vectors, and
byte-identical RunStats to a direct :class:`ExecutionService` run at the
full budget (the rung ladder always ends exactly at ``budget``).

A warm re-exploration against the same cache directory must simulate
zero units and reproduce the identical frontier — the resumability
contract (docs/EXPLORE.md).
"""

import pytest

from repro.explore import (
    ExploreError,
    ExploreSpace,
    LocalExploreBackend,
    explore,
    pareto_indices,
    rung_budgets,
)
from repro.explore.engine import score_objectives
from repro.service import ExecutionService

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
BASE_BUDGET = 300



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
        return explore(
            SPACE,
            BUDGET,
            base_budget=BASE_BUDGET,
            backend=LocalExploreBackend(service),
        )


def _exhaustive(cache):
    """Oracle: every candidate scored at the full budget, Pareto set."""
    candidates = SPACE.candidates()
    baseline = SPACE.baseline_spec(dict(SPACE.configs)["base"], BUDGET)
    specs = [baseline] + [SPACE.spec_for(c, BUDGET) for c in candidates]
    with ExecutionService(jobs=1, cache=str(cache)) as service:
        outcome = service.submit(specs)
    tlc = outcome.results[baseline.run_hash(SPACE.workload, "TLC")]
    ideal = outcome.results[baseline.run_hash(SPACE.workload, "Ideal")]
    scored = []
    for cand in candidates:
        key = SPACE.spec_for(cand, BUDGET).run_hash(SPACE.workload, cand.scheme)
        scored.append(
            (cand, score_objectives(cand, outcome.results[key], tlc, ideal))
        )
    front = pareto_indices([vec for _c, vec in scored])
    return [scored[i] for i in front], outcome


class TestFrontierEqualsExhaustivePareto:
    def test_same_members_same_order_same_objectives(self, cache_dir):
        result = _explore(cache_dir)
        oracle, _outcome = _exhaustive(cache_dir)
        assert result.frontier_ids == tuple(c.cid for c, _v in oracle)
        assert [e.objectives for e in result.frontier] == [
            vec for _c, vec in oracle
        ]

    def test_frontier_stats_byte_identical_to_direct_run(self, cache_dir):
        result = _explore(cache_dir)
        _oracle, outcome = _exhaustive(cache_dir)
        assert result.frontier  # the comparison below must not be vacuous
        for entry in result.frontier:
            direct = outcome.results[entry.run_hash]
            assert entry.stats.to_dict() == direct.to_dict()

    def test_prune_audit_covers_every_non_frontier_candidate(self, cache_dir):
        result = _explore(cache_dir)
        all_ids = {c.cid for c in SPACE.candidates()}
        pruned_ids = {p.candidate.cid for p in result.pruned}
        assert pruned_ids == all_ids - set(result.frontier_ids)
        # Each prune names a survivor of its own rung as the dominator.
        for p in result.pruned:
            rung = result.rungs[p.rung]
            assert p.budget == rung.budget
            assert p.dominated_by in rung.scores


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
        # A "killed mid-explore" cache holds only the first rung's units;
        # resuming from it must reproduce the cold frontier exactly.
        partial = tmp_path / "partial"
        with ExecutionService(jobs=1, cache=str(partial)) as service:
            baseline = SPACE.baseline_spec(dict(SPACE.configs)["base"], BASE_BUDGET)
            service.submit(
                [baseline]
                + [SPACE.spec_for(c, BASE_BUDGET) for c in SPACE.candidates()]
            )
        resumed = _explore(partial)
        reference = _explore(cache_dir)
        assert resumed.frontier_digest() == reference.frontier_digest()
        # The first rung was fully cached; only later rungs simulated.
        assert resumed.rungs[0].exec_stats["units_simulated"] == 0


class TestRungBudgets:
    def test_default_ladder_is_three_rungs(self):
        assert rung_budgets(8_000) == (2_000, 4_000, 8_000)

    def test_ladder_always_ends_at_budget(self):
        assert rung_budgets(3_000, base_budget=750) == (750, 1_500, 3_000)
        assert rung_budgets(1_000, base_budget=300) == (300, 600, 1_000)

    def test_base_at_or_above_budget_collapses_to_one_rung(self):
        assert rung_budgets(500, base_budget=500) == (500,)
        assert rung_budgets(3, base_budget=None) == (1, 2, 3)

    def test_eta_scales_ladder(self):
        assert rung_budgets(9_000, base_budget=1_000, eta=3) == (
            1_000,
            3_000,
            9_000,
        )

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(budget=0),
            dict(budget=100, base_budget=0),
            dict(budget=100, base_budget=200),
            dict(budget=100, eta=1),
            dict(budget=100, eta=2.5),
        ],
    )
    def test_invalid_ladders_raise(self, kwargs):
        with pytest.raises(ExploreError):
            rung_budgets(
                kwargs.pop("budget"),
                base_budget=kwargs.get("base_budget"),
                eta=kwargs.get("eta", 2),
            )
