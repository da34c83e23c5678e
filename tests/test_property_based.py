"""Property-based tests (hypothesis) for the core invariants.

Strategies generate arbitrary small graphs and coverage requirements; the
properties are the paper's structural guarantees, which must hold on
*every* input, not just the benchmark suite.
"""

import networkx as nx
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.baselines.greedy import greedy_kmds
from repro.baselines.lp_opt import lp_optimum
from repro.core.fractional import (
    fractional_kmds,
    lemma_44_dual_violation_bound,
)
from repro.core.lp import CoveringLP
from repro.core.rounding import randomized_rounding
from repro.core.udg import (SELECTION_POLICIES, UDGProgram, solve_kmds_udg,
                            theta_schedule)
from repro.core.verify import coverage_counts, is_k_dominating_set
from repro.engine import execute
from repro.graphs.properties import feasible_coverage
from repro.graphs.udg import UnitDiskGraph, random_udg

COMMON = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def graphs(draw, max_n=14):
    """Arbitrary simple graphs with integer nodes."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    mask = draw(st.lists(st.booleans(), min_size=len(pairs),
                         max_size=len(pairs)))
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(p for p, keep in zip(pairs, mask) if keep)
    return g


@st.composite
def udgs(draw, max_n=12):
    """Arbitrary small unit disk graphs of radius 0.2, 1 or 3 (points
    scale with the radius, so every radius sees the same shapes)."""
    radius = draw(st.sampled_from((0.2, 1.0, 3.0)))
    n = draw(st.integers(min_value=1, max_value=max_n))
    coords = draw(st.lists(
        st.tuples(st.floats(0, 4, allow_nan=False, allow_infinity=False),
                  st.floats(0, 4, allow_nan=False, allow_infinity=False)),
        min_size=n, max_size=n))
    return UnitDiskGraph([(x * radius, y * radius) for x, y in coords],
                         radius=radius)


class TestAlgorithm1Properties:
    @given(g=graphs(), k=st.integers(1, 3), t=st.integers(1, 4))
    @settings(max_examples=40, **COMMON)
    def test_primal_always_feasible(self, g, k, t):
        cov = feasible_coverage(g, k)
        sol = fractional_kmds(g, coverage=cov, t=t)
        lp = CoveringLP(g, cov)
        assert lp.primal_feasible(sol.x, tol=1e-7)

    @given(g=graphs(), k=st.integers(1, 2), t=st.integers(1, 3))
    @settings(max_examples=30, **COMMON)
    def test_lemma_43_dual_identity(self, g, k, t):
        cov = feasible_coverage(g, k)
        sol = fractional_kmds(g, coverage=cov, t=t)
        lp = CoveringLP(g, cov)
        beta_sum = sum(sum(row.values()) for row in sol.beta.values())
        assert lp.dual_objective(sol.y, sol.z) == pytest.approx(
            beta_sum, abs=1e-6)

    @given(g=graphs(), t=st.integers(1, 4))
    @settings(max_examples=30, **COMMON)
    def test_lemma_44_dual_violation(self, g, t):
        cov = feasible_coverage(g, 1)
        sol = fractional_kmds(g, coverage=cov, t=t)
        lp = CoveringLP(g, cov)
        bound = lemma_44_dual_violation_bound(t, lp.delta)
        assert lp.dual_infeasibility_factor(sol.y, sol.z) <= bound + 1e-7

    @given(g=graphs(), k=st.integers(1, 2), t=st.integers(1, 3))
    @settings(max_examples=25, **COMMON)
    def test_x_bounded(self, g, k, t):
        cov = feasible_coverage(g, k)
        sol = fractional_kmds(g, coverage=cov, t=t)
        assert all(-1e-12 <= x <= 1 + 1e-12 for x in sol.x.values())


class TestRoundingProperties:
    @given(g=graphs(), k=st.integers(1, 3), seed=st.integers(0, 1000))
    @settings(max_examples=40, **COMMON)
    def test_rounded_always_feasible(self, g, k, seed):
        cov = feasible_coverage(g, k)
        frac = fractional_kmds(g, coverage=cov, t=2, compute_duals=False)
        ds = randomized_rounding(g, frac.x, coverage=cov, seed=seed)
        assert is_k_dominating_set(g, ds.members, cov, convention="closed")

    @given(g=graphs(), seed=st.integers(0, 100))
    @settings(max_examples=20, **COMMON)
    def test_member_set_subset_of_nodes(self, g, seed):
        frac = fractional_kmds(g, k=1, t=2, compute_duals=False)
        ds = randomized_rounding(g, frac.x, k=1, seed=seed)
        assert ds.members <= set(g.nodes)


class TestUDGProperties:
    @given(udg=udgs(), k=st.integers(1, 3), seed=st.integers(0, 500),
           policy=st.sampled_from(SELECTION_POLICIES))
    @example(udg=random_udg(100, radius=0.2, density=8, seed=0), k=1,
             seed=0, policy="random")
    @settings(max_examples=40, **COMMON)
    def test_udg_always_valid(self, udg, k, seed, policy):
        # The kernels, the per-node oracle (the generator loop) and the
        # lane run agree on one k-dominating set.
        ds = solve_kmds_udg(udg, k=k, seed=seed, selection_policy=policy)
        assert is_k_dominating_set(udg, ds.members, k, convention="open")
        program = UDGProgram(udg, k, policy, seed)
        ref = execute(program, "direct", seed=seed, reference=True)
        msg = execute(program, "message", seed=seed)
        assert ds.members == ref.members == msg.members

    @given(n=st.integers(1, 10 ** 7))
    @settings(max_examples=60, **COMMON)
    def test_theta_schedule_invariants(self, n):
        sched = theta_schedule(n)
        assert sched[-1] == pytest.approx(0.5)
        assert all(b == pytest.approx(2 * a)
                   for a, b in zip(sched, sched[1:]))
        assert all(0 < t <= 0.5 for t in sched)


class TestBaselineProperties:
    @given(g=graphs(), k=st.integers(0, 3))
    @settings(max_examples=30, **COMMON)
    def test_greedy_open_always_valid(self, g, k):
        ds = greedy_kmds(g, k, convention="open")
        assert is_k_dominating_set(g, ds.members, k, convention="open")

    @given(g=graphs(), k=st.integers(1, 2))
    @settings(max_examples=25, **COMMON)
    def test_lp_sandwich(self, g, k):
        cov = feasible_coverage(g, k)
        lp = lp_optimum(g, cov, convention="closed")
        greedy = greedy_kmds(g, cov, convention="closed")
        assert lp.objective <= len(greedy) + 1e-6
        # The LP optimum of a covering LP with all k_i <= |N_i| is at most n.
        assert lp.objective <= g.number_of_nodes() + 1e-6


class TestVerifyProperties:
    @given(g=graphs(), k=st.integers(0, 3),
           bits=st.lists(st.booleans(), min_size=14, max_size=14))
    @settings(max_examples=40, **COMMON)
    def test_closed_implies_open(self, g, k, bits):
        members = {v for v in g.nodes if bits[v]}
        if is_k_dominating_set(g, members, k, convention="closed"):
            assert is_k_dominating_set(g, members, k, convention="open")

    @given(g=graphs(),
           bits=st.lists(st.booleans(), min_size=14, max_size=14))
    @settings(max_examples=30, **COMMON)
    def test_counts_match_bruteforce(self, g, bits):
        members = {v for v in g.nodes if bits[v]}
        counts = coverage_counts(g, members, convention="open")
        for v in g.nodes:
            assert counts[v] == len(set(g.neighbors(v)) & members)
