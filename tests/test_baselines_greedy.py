"""Unit tests for the centralized greedy baseline."""

import math

import networkx as nx
import pytest

from repro.baselines.greedy import greedy_kmds
from repro.core.verify import is_k_dominating_set
from repro.errors import GraphError, InfeasibleInstanceError
from repro.graphs.generators import grid_graph
from repro.graphs.properties import feasible_coverage


class TestCorrectness:
    @pytest.mark.parametrize("convention", ["open", "closed"])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_output_valid(self, small_gnp, k, convention):
        cov = feasible_coverage(small_gnp, k)
        ds = greedy_kmds(small_gnp, cov, convention=convention)
        assert is_k_dominating_set(small_gnp, ds.members, cov,
                                   convention=convention)

    def test_star_picks_hub(self, star10):
        ds = greedy_kmds(star10, 1)
        hub = max(star10.nodes, key=lambda v: star10.degree[v])
        assert hub in ds.members
        assert len(ds) <= 2

    def test_grid_quality(self):
        # Greedy on a 6x6 grid should be close to the known optimum 10.
        g = grid_graph(6, 6)
        ds = greedy_kmds(g, 1)
        assert len(ds) <= 14

    def test_clique_k1(self, triangle):
        ds = greedy_kmds(triangle, 1)
        assert len(ds) == 1

    def test_clique_k2_open(self, triangle):
        ds = greedy_kmds(triangle, 2, convention="open")
        assert is_k_dominating_set(triangle, ds.members, 2)
        assert len(ds) == 2

    def test_k0_empty(self, small_gnp):
        ds = greedy_kmds(small_gnp, 0)
        assert ds.members == set()

    def test_empty_graph(self):
        ds = greedy_kmds(nx.Graph(), 1)
        assert ds.members == set()

    def test_isolated_nodes_open(self):
        g = nx.empty_graph(3)
        ds = greedy_kmds(g, 1, convention="open")
        # isolated nodes must self-select (exempt once in the set)
        assert ds.members == {0, 1, 2}


class TestApproximationQuality:
    def test_ln_delta_guarantee(self, tiny_gnp):
        from repro.baselines.exact import exact_kmds

        delta = max(d for _, d in tiny_gnp.degree)
        for k in (1, 2):
            cov = feasible_coverage(tiny_gnp, k)
            greedy = greedy_kmds(tiny_gnp, cov, convention="closed")
            opt = exact_kmds(tiny_gnp, cov, convention="closed")
            h_bound = math.log(delta + 1) + 1
            assert len(greedy) <= h_bound * len(opt) + 1e-9


class TestValidation:
    def test_unknown_convention(self, triangle):
        with pytest.raises(GraphError, match="convention"):
            greedy_kmds(triangle, 1, convention="sideways")

    def test_negative_k(self, triangle):
        with pytest.raises(GraphError):
            greedy_kmds(triangle, -1)

    def test_closed_infeasible_raises(self, path4):
        with pytest.raises(InfeasibleInstanceError):
            greedy_kmds(path4, 3, convention="closed")

    def test_open_never_infeasible(self, path4):
        # k larger than any degree: every node joins and is exempt.
        ds = greedy_kmds(path4, 5, convention="open")
        assert is_k_dominating_set(path4, ds.members, 5)

    def test_per_node_requirements(self, path4):
        ds = greedy_kmds(path4, {0: 1, 1: 2, 2: 0, 3: 1}, convention="closed")
        assert is_k_dominating_set(path4, ds.members,
                                   {0: 1, 1: 2, 2: 0, 3: 1},
                                   convention="closed")
