"""Property tests for the exploration engine (stdlib ``random`` only).

Seed-parameterized random spaces and objective vectors check the
explorer beyond the pinned differential space: equality with the
exhaustive-grid oracle, mutual non-dominance of every frontier, a
dominating frontier member for every prune, frontier invariance across
``jobs`` degrees of parallelism, and bit-identical results between
in-process execution and a real ``readduo serve`` daemon resolving the
same exploration.
"""

import asyncio
import random
import threading

import pytest

from repro.explore import (
    ExploreError,
    ExploreSpace,
    LocalExploreBackend,
    ServeExploreBackend,
    dominates,
    explore,
    pareto_indices,
)
from repro.service import ExecutionService
from repro.service.client import ServeClient
from repro.service.server import ServeConfig, SimServer

from .explore_oracle import exhaustive_frontier


# ------------------------------------------------------- pure Pareto maths


class TestParetoProperties:
    @pytest.mark.parametrize("seed", range(8))
    def test_pareto_indices_match_bruteforce_definition(self, seed):
        rng = random.Random(seed)
        vectors = [
            tuple(rng.choice((0.25, 0.5, 0.75, 1.0)) for _ in range(3))
            for _ in range(rng.randrange(1, 40))
        ]
        front = set(pareto_indices(vectors))
        for i, v in enumerate(vectors):
            dominated = any(
                dominates(w, v) for j, w in enumerate(vectors) if j != i
            )
            assert (i in front) == (not dominated)

    @pytest.mark.parametrize("seed", range(8))
    def test_frontier_is_mutually_non_dominated(self, seed):
        rng = random.Random(1000 + seed)
        vectors = [
            tuple(rng.uniform(0.0, 1.0) for _ in range(3)) for _ in range(30)
        ]
        front = pareto_indices(vectors)
        for i in front:
            for j in front:
                if i != j:
                    assert not dominates(vectors[i], vectors[j])

    def test_equal_vectors_both_survive(self):
        vectors = [(1.0, 2.0), (1.0, 2.0), (0.5, 3.0)]
        assert pareto_indices(vectors) == [0, 1, 2]
        assert not dominates((1.0, 2.0), (1.0, 2.0))

    def test_dominates_requires_equal_lengths(self):
        with pytest.raises(ValueError):
            dominates((1.0,), (1.0, 2.0))


# --------------------------------------------------- random-space fixtures

SCHEME_POOL = ("Hybrid", "LWT-2", "LWT-4", "Select-4:1", "Select-4:2")


def _random_space(seed):
    """A small random-but-reproducible space (<= 8 candidates)."""
    rng = random.Random(seed)
    schemes = tuple(
        rng.sample(SCHEME_POOL, rng.randrange(2, 4))
    )
    eccs = tuple(sorted(rng.sample((2, 4, 8), rng.randrange(1, 3))))
    scrubs = tuple(sorted(rng.sample((8.0, 64.0, 640.0), 1)))
    return ExploreSpace(
        schemes=schemes,
        ecc_strengths=eccs,
        scrub_intervals_s=scrubs,
        workload=rng.choice(("mcf", "gcc")),
        seed=rng.randrange(1, 100),
    )


def _explore_local(space, cache, jobs=1, budget=600):
    with ExecutionService(jobs=jobs, cache=str(cache)) as service:
        return explore(space, budget, backend=LocalExploreBackend(service))


# ------------------------------------------------------ engine invariants


class TestExploreInvariants:
    @pytest.mark.parametrize("seed", [11, 23, 37])
    def test_frontier_equals_exhaustive_oracle(self, seed, tmp_path):
        space = _random_space(seed)
        result = _explore_local(space, tmp_path)
        oracle, _outcome = exhaustive_frontier(space, 600, tmp_path)
        assert result.frontier_ids == tuple(c.cid for c, _v in oracle)
        assert [e.objectives for e in result.frontier] == [
            vec for _c, vec in oracle
        ]

    @pytest.mark.parametrize("seed", [11, 23, 37])
    def test_frontier_mutually_non_dominated(self, seed, tmp_path):
        result = _explore_local(_random_space(seed), tmp_path)
        vectors = [e.objectives for e in result.frontier]
        assert vectors
        for i, a in enumerate(vectors):
            for j, b in enumerate(vectors):
                if i != j:
                    assert not dominates(a, b)

    @pytest.mark.parametrize("seed", [11, 23, 37])
    def test_every_prune_has_a_dominating_survivor(self, seed, tmp_path):
        # The survivor is the frontier member the prune audit names.
        result = _explore_local(_random_space(seed), tmp_path)
        frontier = {e.candidate.cid: e.objectives for e in result.frontier}
        for p in result.pruned:
            assert dominates(frontier[p.dominated_by], p.objectives)

    @pytest.mark.parametrize("seed", [11, 23, 37])
    def test_accounting_partitions_the_space(self, seed, tmp_path):
        space = _random_space(seed)
        result = _explore_local(space, tmp_path)
        frontier = set(result.frontier_ids)
        pruned = {p.candidate.cid for p in result.pruned}
        assert frontier | pruned == {c.cid for c in space.candidates()}
        assert not frontier & pruned
        assert result.budget == 600


class TestTopologyInvariance:
    @pytest.mark.parametrize("seed", [11, 23])
    def test_frontier_invariant_across_jobs(self, seed, tmp_path):
        space = _random_space(seed)
        digests = []
        for jobs in (1, 2, 4):
            result = _explore_local(
                space, tmp_path / f"jobs{jobs}", jobs=jobs
            )
            digests.append(result.frontier_digest())
        assert len(set(digests)) == 1

    def test_explore_via_serve_matches_local(self, tmp_path):
        space = _random_space(23)
        local = _explore_local(space, tmp_path / "local")

        loop = asyncio.new_event_loop()
        thread = threading.Thread(target=loop.run_forever, daemon=True)
        thread.start()
        holder = {}

        async def boot():
            server = SimServer(
                ServeConfig(
                    port=0,
                    cache=str(tmp_path / "serve"),
                    max_pending=64,
                    max_inflight_per_client=64,
                )
            )
            await server.start()
            holder["server"] = server

        try:
            asyncio.run_coroutine_threadsafe(boot(), loop).result(timeout=60)
            client = ServeClient(
                port=holder["server"].port, client_id="explore-test"
            )
            served = explore(
                space, 600, backend=ServeExploreBackend(client)
            )
        finally:
            if "server" in holder:
                asyncio.run_coroutine_threadsafe(
                    holder["server"].stop(), loop
                ).result(timeout=60)
            loop.call_soon_threadsafe(loop.stop)
            thread.join(timeout=10)
            loop.close()

        assert served.frontier_digest() == local.frontier_digest()
        assert served.frontier_ids == local.frontier_ids
        # Full RunStats round-trip the daemon's store bit-identically.
        assert [e.stats.to_dict() for e in served.frontier] == [
            e.stats.to_dict() for e in local.frontier
        ]


class TestSpaceProperties:
    @pytest.mark.parametrize("seed", [11, 23, 37])
    def test_space_roundtrips_through_dict(self, seed):
        space = _random_space(seed)
        assert ExploreSpace.from_dict(space.to_dict()) == space

    def test_family_expansion_enumerates_cross_product(self):
        space = ExploreSpace.from_dict(
            {
                "schemes": ["Hybrid"],
                "families": {"Select-<k>:<s>": {"k": [2, 4], "s": [1, 2]}},
            }
        )
        assert space.schemes == (
            "Hybrid",
            "Select-2:1",
            "Select-2:2",
            "Select-4:1",
            "Select-4:2",
        )

    @pytest.mark.parametrize("seed", [11, 23])
    def test_candidate_order_is_deterministic(self, seed):
        space = _random_space(seed)
        assert [c.cid for c in space.candidates()] == [
            c.cid for c in _random_space(seed).candidates()
        ]


class TestSpaceValidation:
    """Every malformed space document is an ExploreError, not a crash."""

    @pytest.mark.parametrize(
        "kwargs,match",
        [
            ({"schemes": ()}, "no schemes"),
            ({"schemes": ("NoSuchScheme",)}, "unknown schemes"),
            ({"ecc_strengths": ("eight",)}, "must be integers"),
            ({"ecc_strengths": (True,)}, "must be integers"),
            ({"ecc_strengths": (-1,)}, "must be >= 0"),
            ({"ecc_strengths": ()}, "no ECC strengths"),
            ({"scrub_intervals_s": ("soon",)}, "must be numbers"),
            ({"scrub_intervals_s": (0.0,)}, "must be positive"),
            ({"scrub_intervals_s": ()}, "no scrub intervals"),
            ({"configs": (("bad|label", {}),)}, "invalid config label"),
            ({"configs": (("a", {}), ("a", {}))}, "duplicate config label"),
            ({"configs": (("a", "not-a-mapping"),)}, "must be a mapping"),
            ({"configs": ("oops",)}, r"\(label, overrides\) pairs"),
            ({"configs": (("a", {"no_such_field": 1}),)}, "config 'a'"),
            ({"configs": ()}, "no configs"),
            ({"workload": "quake"}, "unknown workload"),
            ({"seed": "42"}, "seed must be an int"),
            ({"seed": True}, "seed must be an int"),
        ],
    )
    def test_invalid_spaces_rejected(self, kwargs, match):
        with pytest.raises(ExploreError, match=match):
            ExploreSpace(**kwargs)

    @pytest.mark.parametrize(
        "document,match",
        [
            ("not-a-mapping", "must be a mapping"),
            ({"budget": 100}, "unknown space keys"),
            ({"families": ["Select-<k>:<s>"]}, "families must be a mapping"),
            ({"families": {"Select-<k>:<s>": [2]}}, "values must be a mapping"),
            ({"families": {"No-<x>": {"x": [1]}}}, "cannot enumerate"),
            ({"configs": "base"}, "configs must be a mapping"),
        ],
    )
    def test_invalid_documents_rejected(self, document, match):
        with pytest.raises(ExploreError, match=match):
            ExploreSpace.from_dict(document)

    def test_configs_list_form_autolabels(self):
        space = ExploreSpace.from_dict(
            {"configs": [{}, {"num_cores": 2}]}
        )
        assert [label for label, _ in space.configs] == ["cfg0", "cfg1"]

    def test_duplicate_inputs_dedup(self):
        space = ExploreSpace(
            schemes=("Hybrid", "hybrid"),
            ecc_strengths=(8, 8, 4),
            scrub_intervals_s=(640.0, 640, 8.0),
        )
        assert space.schemes == ("Hybrid",)
        assert space.ecc_strengths == (8, 4)
        assert space.scrub_intervals_s == (640.0, 8.0)

    def test_space_file_errors(self, tmp_path):
        with pytest.raises(ExploreError, match="cannot read"):
            ExploreSpace.from_file(tmp_path / "absent.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        with pytest.raises(ExploreError, match="invalid JSON"):
            ExploreSpace.from_file(bad)
