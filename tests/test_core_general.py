"""Unit tests for the end-to-end general-graph pipeline."""

import networkx as nx
import pytest

from repro.core.general import (
    expected_overall_ratio_bound,
    recommended_t,
    solve_kmds_general,
)
from repro.core.verify import is_k_dominating_set
from repro.graphs.generators import gnp_graph
from repro.graphs.properties import feasible_coverage


class TestPipeline:
    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_valid_output(self, small_gnp, k, t):
        cov = feasible_coverage(small_gnp, k)
        res = solve_kmds_general(small_gnp, coverage=cov, t=t, seed=0)
        assert is_k_dominating_set(small_gnp, res.members, cov,
                                   convention="closed")

    def test_result_structure(self, small_gnp):
        cov = feasible_coverage(small_gnp, 1)
        res = solve_kmds_general(small_gnp, coverage=cov, t=2, seed=0)
        assert res.size == len(res.members)
        assert res.fractional.objective > 0
        assert res.dominating_set.details["t"] == 2
        assert res.dominating_set.details["fractional_objective"] == \
            pytest.approx(res.fractional.objective)

    def test_stats_compose(self, small_gnp):
        res = solve_kmds_general(small_gnp, k=1, t=2, mode="message", seed=0)
        # 2t^2 rounds of Algorithm 1 + <=2 rounds of Algorithm 2.
        assert 8 <= res.stats.rounds <= 10
        assert res.stats.messages_sent > 0

    def test_message_mode_matches_direct(self):
        g = gnp_graph(20, 0.25, seed=8)
        cov = feasible_coverage(g, 2)
        d = solve_kmds_general(g, coverage=cov, t=2, mode="direct", seed=3)
        m = solve_kmds_general(g, coverage=cov, t=2, mode="message", seed=3)
        assert d.members == m.members

    def test_uniform_k_shortcut(self, triangle):
        res = solve_kmds_general(triangle, k=1, t=2, seed=0)
        assert is_k_dominating_set(triangle, res.members, 1,
                                   convention="closed")

    def test_star_efficient(self, star10):
        # On a star, k=1: hub + maybe little more; far below n.
        res = solve_kmds_general(star10, k=1, t=4, seed=0)
        assert res.size <= 4

    def test_empty_graph(self):
        res = solve_kmds_general(nx.Graph(), k=1, t=2)
        assert res.size == 0


class TestHelpers:
    def test_recommended_t(self, star10):
        assert recommended_t(star10) == 4  # ceil(log2(10+2))

    def test_recommended_t_min_one(self):
        assert recommended_t(nx.empty_graph(3)) >= 1

    def test_overall_bound_positive(self):
        assert expected_overall_ratio_bound(3, 16) > 0

    def test_overall_bound_composes(self):
        import math

        from repro.core.fractional import theorem_45_ratio_bound

        t, delta = 3, 16
        assert expected_overall_ratio_bound(t, delta) == pytest.approx(
            theorem_45_ratio_bound(t, delta) * math.log(delta + 1 + 1e-12))
