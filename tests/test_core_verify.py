"""Unit tests for the k-domination verification oracle."""

import networkx as nx
import pytest

from repro.core.verify import (
    coverage_counts,
    coverage_deficit,
    is_k_dominating_set,
    membership_mask,
    redundancy_profile,
    uncovered_nodes,
)
from repro.engine.artifacts import graph_artifacts
from repro.errors import GraphError


class TestCoverageCounts:
    def test_open_counts(self, path4):
        counts = coverage_counts(path4, {1}, convention="open")
        assert counts == {0: 1, 1: 0, 2: 1, 3: 0}

    def test_closed_counts_self(self, path4):
        counts = coverage_counts(path4, {1}, convention="closed")
        assert counts == {0: 1, 1: 1, 2: 1, 3: 0}

    def test_unknown_member_rejected(self, path4):
        with pytest.raises(GraphError, match="unknown node"):
            coverage_counts(path4, {99})

    def test_unknown_convention(self, path4):
        with pytest.raises(GraphError, match="convention"):
            coverage_counts(path4, {1}, convention="weird")

    def test_empty_set(self, triangle):
        counts = coverage_counts(triangle, set())
        assert all(c == 0 for c in counts.values())


class TestMembershipMask:
    def test_mask_is_index_aligned(self, path4):
        art = graph_artifacts(path4)
        assert membership_mask(art, [3, 1]).tolist() == \
            [False, True, False, True]
        assert membership_mask(art, ()).tolist() == [False] * 4

    def test_unknown_member_rejected(self, path4):
        with pytest.raises(GraphError, match="unknown node"):
            membership_mask(graph_artifacts(path4), {1, 99})


class TestIsKDominating:
    def test_open_single(self, path4):
        assert is_k_dominating_set(path4, {1, 3}, 1)
        assert not is_k_dominating_set(path4, {0}, 1)

    def test_open_members_exempt(self, path4):
        # {0, 3}: nodes 1 and 2 each have exactly one neighbor inside.
        assert is_k_dominating_set(path4, {0, 3}, 1)

    def test_closed_members_not_exempt(self):
        g = nx.path_graph(3)
        # Node 0 in the set covers itself once under closed convention.
        assert is_k_dominating_set(g, {0, 2}, 1, convention="closed")
        assert not is_k_dominating_set(g, {0}, 1, convention="closed")

    def test_k2_triangle(self, triangle):
        assert is_k_dominating_set(triangle, {0, 1}, 2)
        assert not is_k_dominating_set(triangle, {0}, 2)

    def test_all_nodes_always_valid_open(self, small_gnp):
        assert is_k_dominating_set(small_gnp, set(small_gnp.nodes), 10)

    def test_per_node_requirements(self, path4):
        # Ends need 1; middles need 2.
        k = {0: 1, 1: 2, 2: 2, 3: 1}
        assert is_k_dominating_set(path4, {0, 1, 2, 3}, k)
        assert not is_k_dominating_set(path4, {0, 3}, k)

    def test_closed_implies_open(self, small_gnp):
        from repro.baselines.greedy import greedy_kmds
        from repro.graphs.properties import feasible_coverage

        cov = feasible_coverage(small_gnp, 2)
        ds = greedy_kmds(small_gnp, cov, convention="closed")
        assert is_k_dominating_set(small_gnp, ds.members, cov,
                                   convention="closed")
        assert is_k_dominating_set(small_gnp, ds.members, cov,
                                   convention="open")

    def test_k_zero_trivially_valid(self, path4):
        assert is_k_dominating_set(path4, set(), 0)

    def test_negative_k_rejected(self, path4):
        with pytest.raises(GraphError):
            is_k_dominating_set(path4, set(), -1)


class TestDeficit:
    def test_deficit_values(self, path4):
        deficit = coverage_deficit(path4, {0}, 2)
        assert deficit[1] == 1  # one covered by 0, needs 2
        assert deficit[3] == 2
        assert deficit[0] == 0  # member, exempt under open

    def test_uncovered_nodes(self, path4):
        assert set(uncovered_nodes(path4, {0}, 1)) == {2, 3}

    def test_closed_member_deficit(self):
        g = nx.path_graph(3)
        deficit = coverage_deficit(g, {1}, 2, convention="closed")
        assert deficit[1] == 1  # member covers itself once, needs 2


class TestRedundancyProfile:
    def test_profile_open(self, path4):
        prof = redundancy_profile(path4, {1, 2})
        # non-members 0 and 3 have exactly one dominator each
        assert prof == {"min": 1.0, "mean": 1.0, "max": 1.0}

    def test_profile_all_members(self, triangle):
        prof = redundancy_profile(triangle, {0, 1, 2})
        assert prof == {"min": 0.0, "mean": 0.0, "max": 0.0}
