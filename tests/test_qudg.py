"""Unit tests for the quasi unit disk graph model."""

import pytest

from repro.core.udg import solve_kmds_udg
from repro.core.verify import is_k_dominating_set
from repro.errors import GraphError
from repro.graphs.udg import QuasiUnitDiskGraph, UnitDiskGraph, random_udg


@pytest.fixture
def pts():
    return random_udg(150, density=10.0, seed=12).points


class TestConstruction:
    def test_alpha_one_is_plain_udg(self, pts):
        qudg = QuasiUnitDiskGraph(pts, alpha=1.0, p_gray=0.0, seed=0)
        udg = UnitDiskGraph(pts)
        assert set(qudg.nx.edges) == set(udg.nx.edges)

    def test_short_edges_always_kept(self, pts):
        qudg = QuasiUnitDiskGraph(pts, alpha=0.6, p_gray=0.0, seed=1)
        udg = UnitDiskGraph(pts)
        for u, v, data in udg.nx.edges(data=True):
            if data["dist"] <= 0.6:
                assert qudg.nx.has_edge(u, v), (u, v)

    def test_gray_zone_thinned(self, pts):
        full = UnitDiskGraph(pts)
        qudg = QuasiUnitDiskGraph(pts, alpha=0.5, p_gray=0.3, seed=2)
        gray_full = sum(1 for _, _, d in full.nx.edges(data=True)
                        if d["dist"] > 0.5)
        gray_kept = sum(1 for _, _, d in qudg.nx.edges(data=True)
                        if d["dist"] > 0.5)
        assert gray_kept < gray_full
        assert gray_kept > 0  # p_gray 0.3 on hundreds of edges

    def test_p_gray_one_keeps_everything(self, pts):
        qudg = QuasiUnitDiskGraph(pts, alpha=0.4, p_gray=1.0, seed=3)
        assert set(qudg.nx.edges) == set(UnitDiskGraph(pts).nx.edges)

    def test_neighbor_index_consistent_after_thinning(self, pts):
        qudg = QuasiUnitDiskGraph(pts, alpha=0.5, p_gray=0.4, seed=4)
        for v in range(0, 150, 15):
            got = set(qudg.neighbors_within(v, 1.0))
            assert got == set(qudg.nx.neighbors(v))

    def test_deterministic(self, pts):
        a = QuasiUnitDiskGraph(pts, alpha=0.6, p_gray=0.5, seed=5)
        b = QuasiUnitDiskGraph(pts, alpha=0.6, p_gray=0.5, seed=5)
        assert set(a.nx.edges) == set(b.nx.edges)

    def test_validation(self, pts):
        with pytest.raises(GraphError, match="alpha"):
            QuasiUnitDiskGraph(pts, alpha=0.0)
        with pytest.raises(GraphError, match="alpha"):
            QuasiUnitDiskGraph(pts, alpha=1.5)
        with pytest.raises(GraphError, match="p_gray"):
            QuasiUnitDiskGraph(pts, alpha=0.5, p_gray=2.0)


class TestAlgorithmsOnQudg:
    @pytest.mark.parametrize("alpha", [0.8, 0.4])
    def test_algorithm3_valid(self, pts, alpha):
        qudg = QuasiUnitDiskGraph(pts, alpha=alpha, p_gray=0.4, seed=6)
        ds = solve_kmds_udg(qudg, k=2, seed=0)
        assert is_k_dominating_set(qudg, ds.members, 2)

    def test_modes_agree(self, pts):
        qudg = QuasiUnitDiskGraph(pts, alpha=0.6, p_gray=0.4, seed=7)
        d = solve_kmds_udg(qudg, k=2, mode="direct", seed=1)
        m = solve_kmds_udg(qudg, k=2, mode="message", seed=1)
        assert d.members == m.members

    def test_general_pipeline_valid(self, pts):
        from repro.core.general import solve_kmds_general
        from repro.graphs.properties import feasible_coverage

        qudg = QuasiUnitDiskGraph(pts, alpha=0.5, p_gray=0.3, seed=8)
        cov = feasible_coverage(qudg.nx, 2)
        res = solve_kmds_general(qudg.nx, coverage=cov, t=3, seed=0)
        assert is_k_dominating_set(qudg.nx, res.members, cov,
                                   convention="closed")
