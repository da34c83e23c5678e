"""Unit tests for the unknown-Delta variant (2-hop local estimates)."""

import networkx as nx
import pytest

from repro.core.fractional import fractional_kmds
from repro.core.local_delta import (
    estimate_two_hop_max_message,
    two_hop_max_degree,
)
from repro.core.lp import CoveringLP
from repro.errors import GraphError
from repro.graphs.generators import path_graph
from repro.graphs.properties import feasible_coverage, max_degree


class TestTwoHopMax:
    def test_star_all_see_hub(self, star10):
        est = two_hop_max_degree(star10)
        assert all(v == 10 for v in est.values())

    def test_path_estimates(self):
        g = path_graph(7)
        est = two_hop_max_degree(g)
        # Interior nodes have degree 2 and see only degree-2 nodes at
        # distance <= 2; the ends see degree 2 within two hops.
        assert est[3] == 2
        assert est[0] == 2

    def test_two_stars_joined(self):
        # Two stars joined by a long path: far star's nodes shouldn't see
        # the big hub.
        g = nx.star_graph(10)                   # hub 0, leaves 1..10
        offset = 11
        g.add_edges_from((offset + i, offset + i + 1) for i in range(6))
        g.add_edge(1, offset)                   # bridge
        small_hub_end = offset + 6
        est = two_hop_max_degree(g)
        assert est[0] == 10
        assert est[small_hub_end] < 10

    def test_upper_bounded_by_global(self, small_gnp):
        est = two_hop_max_degree(small_gnp)
        assert max(est.values()) == max_degree(small_gnp)
        assert all(small_gnp.degree[v] <= est[v] for v in small_gnp.nodes)

    def test_message_protocol_agrees(self, small_gnp):
        central = two_hop_max_degree(small_gnp)
        distributed, stats = estimate_two_hop_max_message(small_gnp)
        assert central == distributed
        assert stats.rounds == 2
        assert stats.messages_sent == 4 * small_gnp.number_of_edges()

    def test_isolated_nodes(self):
        g = nx.empty_graph(3)
        est = two_hop_max_degree(g)
        assert est == {0: 0, 1: 0, 2: 0}


class TestLocalDeltaFractional:
    @pytest.mark.parametrize("k", [1, 2])
    def test_feasible(self, small_gnp, k):
        cov = feasible_coverage(small_gnp, k)
        est = two_hop_max_degree(small_gnp)
        sol = fractional_kmds(small_gnp, coverage=cov, t=3, local_delta=est)
        assert CoveringLP(small_gnp, cov).primal_feasible(sol.x, tol=1e-7)

    def test_matches_global_on_regular_graphs(self):
        from repro.graphs.generators import random_regular_graph

        g = random_regular_graph(20, 4, seed=1)
        est = two_hop_max_degree(g)
        assert set(est.values()) == {4}
        a = fractional_kmds(g, k=2, t=3, compute_duals=False)
        b = fractional_kmds(g, k=2, t=3, compute_duals=False,
                            local_delta=est)
        assert all(a.x[v] == pytest.approx(b.x[v]) for v in g.nodes)

    def test_modes_agree(self, small_gnp):
        cov = feasible_coverage(small_gnp, 2)
        est = two_hop_max_degree(small_gnp)
        d = fractional_kmds(small_gnp, coverage=cov, t=2,
                            compute_duals=False, local_delta=est)
        m = fractional_kmds(small_gnp, coverage=cov, t=2, mode="message",
                            compute_duals=False, local_delta=est)
        assert all(abs(d.x[v] - m.x[v]) < 1e-12 for v in small_gnp.nodes)

    def test_dual_identity_survives(self, small_gnp):
        # Lemma 4.3's identity is threshold-independent algebra.
        cov = feasible_coverage(small_gnp, 1)
        est = two_hop_max_degree(small_gnp)
        sol = fractional_kmds(small_gnp, coverage=cov, t=2, local_delta=est)
        lp = CoveringLP(small_gnp, cov)
        beta_sum = sum(sum(r.values()) for r in sol.beta.values())
        assert lp.dual_objective(sol.y, sol.z) == pytest.approx(
            beta_sum, abs=1e-7)

    def test_quality_not_catastrophic(self, small_gnp):
        from repro.baselines.lp_opt import lp_optimum

        cov = feasible_coverage(small_gnp, 2)
        est = two_hop_max_degree(small_gnp)
        sol = fractional_kmds(small_gnp, coverage=cov, t=3,
                              compute_duals=False, local_delta=est)
        opt = lp_optimum(small_gnp, cov, convention="closed").objective
        assert sol.objective <= 10 * opt

    def test_missing_entries_rejected(self, triangle):
        with pytest.raises(GraphError, match="local_delta missing"):
            fractional_kmds(triangle, k=1, t=2, local_delta={0: 2})
