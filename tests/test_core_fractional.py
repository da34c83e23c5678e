"""Unit tests for Algorithm 1 (distributed LP approximation)."""

import networkx as nx
import pytest

from repro.core.fractional import (
    fractional_kmds,
    lemma_44_dual_violation_bound,
    theorem_45_ratio_bound,
)
from repro.core.lp import CoveringLP
from repro.engine import BACKENDS
from repro.errors import GraphError, InfeasibleInstanceError
from repro.graphs.generators import gnp_graph
from repro.graphs.properties import feasible_coverage, max_degree
from repro.types import uniform_coverage


class TestBounds:
    def test_theorem_45_formula(self):
        assert theorem_45_ratio_bound(1, 3) == pytest.approx(1 * (16 + 4))

    def test_theorem_45_decreases_then_grows(self):
        values = [theorem_45_ratio_bound(t, 1000) for t in range(1, 40)]
        assert min(values) < values[0]

    def test_invalid_t(self):
        with pytest.raises(GraphError):
            theorem_45_ratio_bound(0, 5)
        with pytest.raises(GraphError):
            lemma_44_dual_violation_bound(-1, 5)


class TestPrimalGuarantees:
    @pytest.mark.parametrize("t", [1, 2, 3, 5])
    def test_primal_feasible(self, small_gnp, t):
        cov = feasible_coverage(small_gnp, 2)
        sol = fractional_kmds(small_gnp, coverage=cov, t=t)
        lp = CoveringLP(small_gnp, cov)
        assert lp.primal_feasible(sol.x, tol=1e-9)

    @pytest.mark.parametrize("t", [1, 2, 4])
    def test_ratio_within_theorem_bound(self, small_gnp, t):
        from repro.baselines.lp_opt import lp_optimum

        cov = feasible_coverage(small_gnp, 1)
        sol = fractional_kmds(small_gnp, coverage=cov, t=t)
        opt = lp_optimum(small_gnp, cov, convention="closed").objective
        bound = theorem_45_ratio_bound(t, max_degree(small_gnp))
        assert sol.objective <= bound * opt + 1e-9

    def test_x_in_unit_box(self, small_gnp):
        sol = fractional_kmds(small_gnp, k=1, t=3)
        assert all(0.0 <= x <= 1.0 for x in sol.x.values())

    def test_t1_saturates(self, triangle):
        # With t = 1 the threshold is (Delta+1)^0 = 1 and the increment is
        # 1, so every node jumps straight to x = 1.
        sol = fractional_kmds(triangle, k=1, t=1)
        assert all(x == 1.0 for x in sol.x.values())

    def test_k0_gives_zero(self, triangle):
        sol = fractional_kmds(triangle, k=0, t=2)
        # Nothing requires coverage, but the algorithm may still raise x of
        # nodes with white neighbors in early iterations; with k=0 all
        # nodes turn gray in the first inner iteration, so the dynamic
        # degree collapses to 0 and only the first iteration's increment
        # survives.
        lp = CoveringLP(triangle, uniform_coverage([0, 1, 2], 0))
        assert lp.primal_feasible(sol.x)

    def test_isolated_nodes(self):
        g = nx.empty_graph(5)
        sol = fractional_kmds(g, k=1, t=2)
        assert all(x == 1.0 for x in sol.x.values())

    def test_star_graph(self, star10):
        sol = fractional_kmds(star10, k=1, t=3)
        lp = CoveringLP(star10, uniform_coverage(list(star10.nodes), 1))
        assert lp.primal_feasible(sol.x)
        # The fractional solution should concentrate weight on the hub
        # (node 0 after normalization has the highest degree).
        hub = max(star10.nodes, key=lambda v: star10.degree[v])
        assert sol.x[hub] >= max(x for v, x in sol.x.items() if v != hub) - 1e-9


class TestDualGuarantees:
    @pytest.mark.parametrize("t", [1, 2, 3])
    @pytest.mark.parametrize("k", [1, 2])
    def test_lemma_43_identity(self, small_gnp, t, k):
        cov = feasible_coverage(small_gnp, k)
        sol = fractional_kmds(small_gnp, coverage=cov, t=t)
        lp = CoveringLP(small_gnp, cov)
        dual_obj = lp.dual_objective(sol.y, sol.z)
        beta_sum = sum(sum(row.values()) for row in sol.beta.values())
        assert dual_obj == pytest.approx(beta_sum, abs=1e-7)

    @pytest.mark.parametrize("t", [1, 2, 3, 5])
    def test_lemma_44_violation_bound(self, small_gnp, t):
        cov = feasible_coverage(small_gnp, 2)
        sol = fractional_kmds(small_gnp, coverage=cov, t=t)
        lp = CoveringLP(small_gnp, cov)
        bound = lemma_44_dual_violation_bound(t, lp.delta)
        assert lp.dual_infeasibility_factor(sol.y, sol.z) <= bound + 1e-9

    def test_scaled_dual_feasible(self, small_gnp):
        # Dividing the duals by the Lemma 4.4 factor restores feasibility.
        cov = feasible_coverage(small_gnp, 1)
        sol = fractional_kmds(small_gnp, coverage=cov, t=2)
        lp = CoveringLP(small_gnp, cov)
        kappa = lemma_44_dual_violation_bound(2, lp.delta)
        y = {v: val / kappa for v, val in sol.y.items()}
        z = {v: val / kappa for v, val in sol.z.items()}
        assert lp.dual_feasible(y, z, tol=1e-9)

    def test_alpha_sums_to_k(self, small_gnp):
        # Lemma 4.3's engine: sum_j alpha_{j,i} = k_i for every i.
        cov = feasible_coverage(small_gnp, 2)
        sol = fractional_kmds(small_gnp, coverage=cov, t=3)
        for v in small_gnp.nodes:
            assert sum(sol.alpha[v].values()) == pytest.approx(cov[v])

    def test_alpha_beta_nonnegative(self, small_gnp):
        sol = fractional_kmds(small_gnp, k=1, t=2)
        assert all(a >= 0 for row in sol.alpha.values() for a in row.values())
        assert all(b >= 0 for row in sol.beta.values() for b in row.values())

    @pytest.mark.parametrize("mode", BACKENDS)
    def test_duals_skipped_when_disabled(self, small_gnp, mode):
        sol = fractional_kmds(small_gnp, k=1, t=2, compute_duals=False,
                              mode=mode, seed=0)
        assert all(not row for row in sol.alpha.values())
        assert all(not row for row in sol.beta.values())
        assert all(z == 0 for z in sol.z.values())
        with_duals = fractional_kmds(small_gnp, k=1, t=2, mode=mode, seed=0)
        assert sol.x == with_duals.x
        assert sol.y == with_duals.y


class TestModes:
    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_message_equals_direct(self, t):
        g = gnp_graph(25, 0.2, seed=3)
        cov = feasible_coverage(g, 2)
        direct = fractional_kmds(g, coverage=cov, t=t, mode="direct")
        message = fractional_kmds(g, coverage=cov, t=t, mode="message")
        for v in g.nodes:
            assert direct.x[v] == pytest.approx(message.x[v], abs=1e-9)
            assert direct.y[v] == pytest.approx(message.y[v], abs=1e-9)
            assert direct.z[v] == pytest.approx(message.z[v], abs=1e-9)

    def test_message_round_count(self):
        g = gnp_graph(20, 0.2, seed=1)
        for t in (1, 2, 4):
            sol = fractional_kmds(g, k=1, t=t, mode="message",
                                  compute_duals=False)
            assert sol.stats.rounds == 2 * t * t
            sol_d = fractional_kmds(g, k=1, t=t, mode="message",
                                    compute_duals=True)
            assert sol_d.stats.rounds == 2 * t * t + 1

    def test_direct_analytic_stats_match_message(self):
        g = gnp_graph(20, 0.25, seed=2)
        d = fractional_kmds(g, k=1, t=2, mode="direct")
        m = fractional_kmds(g, k=1, t=2, mode="message")
        assert d.stats.rounds == m.stats.rounds
        assert d.stats.messages_sent == m.stats.messages_sent
        assert d.stats.bits_sent == m.stats.bits_sent
        assert d.stats.max_message_bits == m.stats.max_message_bits

    def test_unknown_mode(self, triangle):
        with pytest.raises(GraphError, match="unknown mode"):
            fractional_kmds(triangle, k=1, t=1, mode="quantum")


class TestValidation:
    def test_infeasible_raises(self, path4):
        with pytest.raises(InfeasibleInstanceError) as exc:
            fractional_kmds(path4, k=3, t=2)
        assert exc.value.witness in (0, 3)

    def test_invalid_t(self, triangle):
        with pytest.raises(GraphError, match="t must be"):
            fractional_kmds(triangle, k=1, t=0)

    def test_neither_k_nor_coverage(self, triangle):
        with pytest.raises(GraphError, match="either k"):
            fractional_kmds(triangle, k=None)

    def test_empty_graph(self):
        sol = fractional_kmds(nx.Graph(), k=1, t=2)
        assert sol.x == {}
        assert sol.objective == 0.0

    def test_coverage_overrides_k(self, triangle):
        sol = fractional_kmds(triangle, k=99, coverage={0: 1, 1: 1, 2: 1},
                              t=2)
        assert sol.objective <= 3.0
