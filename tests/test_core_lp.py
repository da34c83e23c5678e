"""Unit tests for the (PP)/(DP) LP machinery."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.lp import CoveringLP
from repro.errors import GraphError
from repro.types import uniform_coverage


def _lp(graph, k=1):
    return CoveringLP(graph, uniform_coverage(list(graph.nodes), k))


class TestConstruction:
    def test_basic(self, triangle):
        lp = _lp(triangle, 2)
        assert lp.n == 3
        assert lp.delta == 2
        assert lp.coverage == {0: 2, 1: 2, 2: 2}

    def test_closed_neighborhoods_include_self(self, path4):
        lp = _lp(path4)
        assert 0 in lp.closed_nbrs[lp.index[0]]
        assert set(lp.closed_nbrs[lp.index[1]].tolist()) == {0, 1, 2}

    def test_missing_coverage(self, triangle):
        with pytest.raises(GraphError, match="missing"):
            CoveringLP(triangle, {0: 1})

    def test_negative_coverage(self, triangle):
        with pytest.raises(GraphError, match="non-negative"):
            CoveringLP(triangle, {0: -1, 1: 1, 2: 1})

    def test_feasibility_check(self, path4):
        assert _lp(path4, 2).is_feasible()
        assert not _lp(path4, 3).is_feasible()
        assert _lp(path4, 3).infeasible_witness() in (0, 3)
        assert _lp(path4, 2).infeasible_witness() is None


class TestPrimalOracles:
    def test_objective(self, triangle):
        lp = _lp(triangle)
        assert lp.primal_objective({0: 0.5, 1: 0.25, 2: 0.0}) == 0.75

    def test_all_ones_feasible(self, path4):
        lp = _lp(path4, 2)
        x = {v: 1.0 for v in path4.nodes}
        assert lp.primal_feasible(x)

    def test_zero_infeasible(self, triangle):
        lp = _lp(triangle)
        x = {v: 0.0 for v in triangle.nodes}
        violations = lp.primal_violations(x)
        assert len(violations) == 3
        assert all(short == pytest.approx(1.0) for _, short in violations)

    def test_fractional_feasible(self, triangle):
        lp = _lp(triangle)
        # Each node sums over all 3 nodes (clique): 3 * 1/3 = 1.
        x = {v: 1.0 / 3.0 for v in triangle.nodes}
        assert lp.primal_feasible(x, tol=1e-9)

    def test_box_violation_detected(self, triangle):
        lp = _lp(triangle)
        x = {0: 2.0, 1: 0.0, 2: 0.0}
        assert not lp.primal_feasible(x)


class TestDualOracles:
    def test_zero_dual_feasible(self, triangle):
        lp = _lp(triangle)
        zeros = {v: 0.0 for v in triangle.nodes}
        assert lp.dual_feasible(zeros, zeros)
        assert lp.dual_objective(zeros, zeros) == 0.0

    def test_uniform_y_slack(self, triangle):
        lp = _lp(triangle)
        y = {v: 1.0 / 3.0 for v in triangle.nodes}
        z = {v: 0.0 for v in triangle.nodes}
        slacks = lp.dual_slacks(y, z)
        assert all(s == pytest.approx(1.0) for s in slacks)
        assert lp.dual_feasible(y, z, tol=1e-9)

    def test_infeasibility_factor(self, triangle):
        lp = _lp(triangle)
        y = {v: 1.0 for v in triangle.nodes}
        z = {v: 0.0 for v in triangle.nodes}
        assert lp.dual_infeasibility_factor(y, z) == pytest.approx(3.0)

    def test_negative_dual_infeasible(self, triangle):
        lp = _lp(triangle)
        y = {0: -0.1, 1: 0.0, 2: 0.0}
        z = {v: 0.0 for v in triangle.nodes}
        assert not lp.dual_feasible(y, z)

    def test_weak_duality(self, small_gnp):
        # Any feasible primal's objective >= any feasible dual's objective.
        lp = _lp(small_gnp, 1)
        x = {v: 1.0 for v in small_gnp.nodes}
        deg_plus = {v: small_gnp.degree[v] + 1 for v in small_gnp.nodes}
        y = {v: 1.0 / (max(deg_plus.values())) for v in small_gnp.nodes}
        z = {v: 0.0 for v in small_gnp.nodes}
        if lp.dual_feasible(y, z):
            assert lp.dual_objective(y, z) <= lp.primal_objective(x) + 1e-9


class TestVectorHelpers:
    def test_k_vector_order(self, path4):
        lp = CoveringLP(path4, {0: 1, 1: 2, 2: 3, 3: 1})
        assert lp.k_vector().tolist() == [1.0, 2.0, 3.0, 1.0]

    def test_neighborhood_sums(self, path4):
        lp = _lp(path4)
        sums = lp.neighborhood_sums(lp.x_vector({0: 1.0, 1: 0.0, 2: 1.0, 3: 0.0}))
        assert sums.tolist() == [1.0, 2.0, 1.0, 1.0]


# ----------------------------------------------------------------------
# The requirement array against the per-node loops it replaced
# ----------------------------------------------------------------------

def _loop_oracle(lp, coverage):
    """``(requirements, feasible, witness, k_vector)`` computed node by
    node over ``lp.nodes``."""
    req = [int(coverage[v]) for v in lp.nodes]
    sizes = [len(lp.closed_nbrs[lp.index[v]]) for v in lp.nodes]
    witness = next((v for v, k, s in zip(lp.nodes, req, sizes) if k > s),
                   None)
    return req, all(k <= s for k, s in zip(req, sizes)), witness, \
        np.asarray(req, dtype=float)


@st.composite
def lp_cases(draw):
    """A gnp graph relabelled to int, shuffled-int or string ids, and a
    requirement map that is sometimes infeasible."""
    n = draw(st.integers(0, 25))
    g = nx.gnp_random_graph(n, draw(st.sampled_from((0.0, 0.15, 0.4))),
                            seed=draw(st.integers(0, 1000)))
    labels = draw(st.sampled_from(("int", "shuffled", "str")))
    if labels == "shuffled":
        perm = draw(st.permutations(range(n)))
        g = nx.relabel_nodes(g, dict(zip(range(n), perm)))
    elif labels == "str":
        g = nx.relabel_nodes(g, {v: f"n{v}" for v in range(n)})
    coverage = {v: draw(st.integers(0, g.degree[v] + 2)) for v in g}
    if draw(st.booleans()):
        items = list(coverage.items())
        coverage = dict(draw(st.permutations(items)))
    return g, coverage


class TestRequirementArray:
    @given(case=lp_cases())
    @settings(max_examples=150, deadline=None)
    def test_matches_per_node_loops(self, case):
        g, coverage = case
        lp = CoveringLP(g, coverage)
        req, feasible, witness, k_vec = _loop_oracle(lp, coverage)
        assert lp.requirements.dtype == np.int64
        assert lp.requirements.tolist() == req
        assert not lp.requirements.flags.writeable
        assert list(lp.coverage.items()) == list(zip(lp.nodes, req))
        assert all(type(k) is int for k in lp.coverage.values())
        assert lp.is_feasible() is feasible
        assert lp.infeasible_witness() == witness
        got = lp.k_vector()
        assert got.dtype == k_vec.dtype and np.array_equal(got, k_vec)
        got[:] = -1  # a fresh array each call
        assert lp.k_vector().tolist() == k_vec.tolist()

    @given(case=lp_cases(), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_errors_match_per_node_checks(self, case, data):
        g, coverage = case
        if not coverage:
            return
        nodes = list(g.nodes)
        dropped = data.draw(st.sets(st.sampled_from(nodes), min_size=1))
        partial = {v: k for v, k in coverage.items() if v not in dropped}
        missing = [v for v in nodes if v not in partial]
        with pytest.raises(GraphError) as err:
            CoveringLP(g, partial)
        assert str(err.value) == (f"coverage map missing {len(missing)} "
                                  f"node(s), e.g. {missing[0]!r}")
        negative = dict(coverage)
        negative[data.draw(st.sampled_from(nodes))] = -1
        with pytest.raises(GraphError,
                           match="^coverage requirements must be "
                                 "non-negative$"):
            CoveringLP(g, negative)

    def test_float_requirements_truncate_like_int(self, path4):
        lp = CoveringLP(path4, {0: 1.9, 1: 2.0, 2: True, 3: -0.5})
        assert lp.coverage == {0: 1, 1: 2, 2: 1, 3: 0}
        assert lp.requirements.tolist() == [1, 2, 1, 0]
