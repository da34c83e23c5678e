"""Unit tests for JRS, Gao, and heuristic baselines."""

import networkx as nx
import pytest

from repro.baselines.gao import gao_mobile_centers
from repro.baselines.heuristics import (
    all_nodes_kmds,
    degree_heuristic_kmds,
    random_feasible_kmds,
)
from repro.baselines.jrs import ROUNDS_PER_PHASE, _round_up_pow2, jrs_kmds
from repro.core.verify import is_k_dominating_set
from repro.errors import GraphError, InfeasibleInstanceError
from repro.graphs.generators import gnp_graph
from repro.graphs.properties import feasible_coverage
from repro.graphs.udg import random_udg


class TestJRS:
    @pytest.mark.parametrize("convention", ["open", "closed"])
    @pytest.mark.parametrize("k", [1, 2])
    def test_output_valid(self, small_gnp, k, convention):
        cov = feasible_coverage(small_gnp, k)
        ds = jrs_kmds(small_gnp, cov, convention=convention, seed=0)
        assert is_k_dominating_set(small_gnp, ds.members, cov,
                                   convention=convention)

    def test_rounds_accounted(self, small_gnp):
        # Every phase takes ROUNDS_PER_PHASE rounds, and the closing
        # state + span exchange that finds no demand left takes 2.
        ds = jrs_kmds(small_gnp, 1, seed=0)
        assert ds.stats.rounds == ds.details["phases"] * ROUNDS_PER_PHASE + 2
        assert ds.details["phases"] >= 1
        assert ds.stats.messages_sent > 0
        idle = jrs_kmds(small_gnp, dict.fromkeys(small_gnp.nodes, 0), seed=0)
        assert (idle.details["phases"], idle.stats.rounds) == (0, 2)
        empty = jrs_kmds(nx.Graph(), 1, seed=0)
        assert (empty.details["phases"], empty.stats.rounds) == (0, 0)

    def test_deterministic_per_seed(self, small_gnp):
        a = jrs_kmds(small_gnp, 1, seed=4)
        b = jrs_kmds(small_gnp, 1, seed=4)
        assert a.members == b.members

    def test_quality_reasonable(self, small_gnp):
        from repro.baselines.greedy import greedy_kmds

        cov = feasible_coverage(small_gnp, 1)
        jrs = jrs_kmds(small_gnp, cov, convention="closed", seed=0)
        greedy = greedy_kmds(small_gnp, cov, convention="closed")
        assert len(jrs) <= 4 * len(greedy)

    def test_phases_logarithmic(self):
        g = gnp_graph(200, 0.05, seed=1)
        ds = jrs_kmds(g, 1, seed=0)
        assert ds.details["phases"] <= 40

    def test_closed_infeasible_raises(self, path4):
        with pytest.raises(InfeasibleInstanceError):
            jrs_kmds(path4, 3, convention="closed")

    def test_unknown_convention(self, triangle):
        with pytest.raises(GraphError):
            jrs_kmds(triangle, 1, convention="zigzag")

    def test_round_up_pow2(self):
        assert _round_up_pow2(0) == 0
        assert _round_up_pow2(1) == 1
        assert _round_up_pow2(3) == 4
        assert _round_up_pow2(8) == 8
        assert _round_up_pow2(9) == 16


class TestGao:
    def test_valid_dominating_set(self):
        udg = random_udg(150, density=10.0, seed=3)
        ds = gao_mobile_centers(udg, seed=0)
        assert is_k_dominating_set(udg, ds.members, 1)

    def test_details_labeled(self):
        udg = random_udg(60, density=8.0, seed=1)
        ds = gao_mobile_centers(udg, seed=0)
        assert ds.details["algorithm"] == "gao-dmc"
        assert "active_per_round" in ds.details

    def test_matches_part_one(self):
        from repro.core.udg import part_one_leaders

        udg = random_udg(100, density=10.0, seed=5)
        assert gao_mobile_centers(udg, seed=2).members == \
            part_one_leaders(udg, seed=2).members


class TestHeuristics:
    @pytest.mark.parametrize("k", [1, 2])
    def test_degree_heuristic_valid(self, small_gnp, k):
        cov = feasible_coverage(small_gnp, k)
        ds = degree_heuristic_kmds(small_gnp, cov)
        assert is_k_dominating_set(small_gnp, ds.members, cov)

    def test_degree_heuristic_star(self, star10):
        ds = degree_heuristic_kmds(star10, 1)
        assert len(ds) <= 2

    @pytest.mark.parametrize("seed", [0, 1])
    def test_random_feasible_valid(self, small_gnp, seed):
        ds = random_feasible_kmds(small_gnp, 2, seed=seed)
        assert is_k_dominating_set(small_gnp, ds.members, 2)

    def test_random_deterministic_per_seed(self, small_gnp):
        a = random_feasible_kmds(small_gnp, 1, seed=6)
        b = random_feasible_kmds(small_gnp, 1, seed=6)
        assert a.members == b.members

    def test_all_nodes(self, small_gnp):
        ds = all_nodes_kmds(small_gnp)
        assert ds.members == set(small_gnp.nodes)
        assert is_k_dominating_set(small_gnp, ds.members, 3)

    def test_closed_infeasible(self, path4):
        with pytest.raises(InfeasibleInstanceError):
            degree_heuristic_kmds(path4, 3, convention="closed")

    def test_unknown_convention(self, triangle):
        with pytest.raises(GraphError):
            degree_heuristic_kmds(triangle, 1, convention="bogus")
        with pytest.raises(GraphError):
            random_feasible_kmds(triangle, 1, convention="bogus")

    def test_degree_beats_random_usually(self):
        wins = 0
        for seed in range(5):
            g = gnp_graph(60, 0.1, seed=seed)
            d = degree_heuristic_kmds(g, 1)
            r = random_feasible_kmds(g, 1, seed=seed)
            if len(d) <= len(r):
                wins += 1
        assert wins >= 3
