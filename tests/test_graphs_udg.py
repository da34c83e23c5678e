"""Unit tests for the unit disk graph substrate.

:func:`reference_build` is the one oracle of ``UnitDiskGraph``'s
vectorized construction: the per-cell loop (one ``add_edge`` per pair)
and per-node distance sort that ``UnitDiskGraph`` ran before it was
vectorized.  Construction must match it bit for bit: node order,
adjacency order, edge order, every ``dist`` float, ``neighbors_within``,
the distance CSR, and the per-edge randomness of the quasi and noisy
subclasses.
"""

import bisect
import math
import time

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.engine.kernels import udg_distance_csr
from repro.errors import GraphError
from repro.graphs.udg import (NoisySensingUDG, QuasiUnitDiskGraph,
                              UnitDiskGraph, random_udg, udg_from_points)


# ----------------------------------------------------------------------
# The oracle
# ----------------------------------------------------------------------

def reference_build(points, radius):
    """The UDG of ``points`` built pair by pair over a cell hash."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    g = nx.Graph()
    for i, (x, y) in enumerate(pts):
        g.add_node(i, pos=(float(x), float(y)))
    # Uniform grid spatial hash with cell size = radius: all neighbors
    # of a point lie in its 3x3 cell block.
    buckets = {}
    for i, (x, y) in enumerate(pts):
        key = (int(math.floor(x / radius)), int(math.floor(y / radius)))
        buckets.setdefault(key, []).append(i)
    r2 = radius * radius
    for (cx, cy), members in buckets.items():
        neighbor_cells = [buckets.get((cx + dx, cy + dy), [])
                          for dx in (-1, 0, 1) for dy in (-1, 0, 1)]
        for i in members:
            xi, yi = pts[i]
            for other_members in neighbor_cells:
                for j in other_members:
                    if j <= i:
                        continue
                    dx = xi - pts[j][0]
                    dy = yi - pts[j][1]
                    d2 = dx * dx + dy * dy
                    if d2 <= r2:
                        g.add_edge(i, j, dist=math.sqrt(d2))
    return g


def reference_sorted(g):
    """Per node: ``(dists, nbrs)`` sorted by ``(dist, nbr)``."""
    out = {}
    for v in g:
        pairs = sorted((g.edges[v, w]["dist"], w) for w in g.neighbors(v))
        out[v] = ([d for d, _ in pairs], [w for _, w in pairs])
    return out


def reference_doomed(g, alpha, p_gray, seed):
    """The gray-zone edges a QUDG removes: one draw per gray edge, in
    sorted edge order."""
    rng = np.random.default_rng(seed)
    return [(u, v) for u, v in sorted(g.edges)
            if g.edges[u, v]["dist"] > alpha and rng.random() >= p_gray]


def reference_sensing(points, g, sigma, seed):
    """``sensed(u, v)``: true distance times one factor per edge, drawn
    in sorted edge order (1 for unlinked pairs)."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    rng = np.random.default_rng(seed)
    noise = {e: 1.0 + float(rng.uniform(-sigma, sigma))
             for e in sorted(g.edges)}

    def sensed(u, v):
        du = pts[u] - pts[v]
        return float(math.hypot(du[0], du[1])) * noise.get(
            (min(u, v), max(u, v)), 1.0)
    return sensed


def assert_matches_reference(udg, ref, sensed=None):
    """``udg`` equals the reference graph ``ref`` in every observable
    order and float; ``sensed`` is the noisy model's reference."""
    assert list(udg.nx.nodes(data=True)) == list(ref.nodes(data=True))
    for v in ref:
        assert list(udg.nx.adj[v]) == list(ref.adj[v]), v
    assert list(udg.nx.edges(data="dist")) == list(ref.edges(data="dist"))
    assert all(udg.nx.adj[u][v] is udg.nx.adj[v][u] for u, v in ref.edges)

    lists = reference_sorted(ref)
    nbr = [w for v in ref for w in lists[v][1]]
    dist = [d for v in ref for d in lists[v][0]]
    if sensed is not None:
        dist = [sensed(v, w) for v in ref for w in lists[v][1]]
        for u, v in ref.edges:
            assert udg.sensed_distance(u, v) == sensed(u, v)
            assert udg.sensed_distance(v, u) == sensed(u, v)
    degs = [len(lists[v][1]) for v in ref]
    indptr, src, got_nbr, got_dist = udg_distance_csr(udg)
    assert indptr.tolist() == np.concatenate([[0], np.cumsum(degs)]).tolist()
    assert src.tolist() == [v for v in ref for _ in lists[v][1]]
    assert got_nbr.tolist() == nbr
    assert got_dist.tolist() == dist
    assert not any(a.flags.writeable for a in (indptr, src, got_nbr,
                                               got_dist))

    # N_v(tau) at fixed fractions of the radius and at edge distances.
    edge_dists = sorted({d for _, _, d in ref.edges(data="dist")})
    taus = [0.0, 0.3 * udg.radius, udg.radius, 2 * udg.radius]
    taus += edge_dists[::max(1, len(edge_dists) // 5)]
    for v in ref:
        dists, nbrs = lists[v]
        for tau in taus:
            if sensed is None:
                want = nbrs[:bisect.bisect_right(dists, tau)]
            else:
                cap = min(udg.radius, tau / max(1e-12, 1.0 - udg.sigma))
                want = [w for w in nbrs[:bisect.bisect_right(dists, cap)]
                        if sensed(v, w) <= tau]
            assert udg.neighbors_within(v, tau) == want, (v, tau)


RADII = (0.05, 0.2, 1.0, 3.0)


@st.composite
def point_sets(draw, max_n=30):
    """``(points, radius)``: coordinates in units of the radius, negative
    ones and cell-boundary multiples included, plus derived duplicates
    and partners exactly one radius away along an axis."""
    radius = draw(st.sampled_from(RADII))
    unit = st.one_of(st.floats(-3, 3, allow_nan=False),
                     st.integers(-3, 3).map(float))
    coord = unit.map(lambda c: c * radius)
    pts = draw(st.lists(st.tuples(coord, coord), max_size=max_n))
    derived = draw(st.lists(
        st.tuples(st.integers(0, max_n), st.sampled_from((0, 1, 2))),
        max_size=6))
    for k, kind in derived if pts else ():
        x, y = pts[k % len(pts)]
        pts.append([(x, y), (x + radius, y), (x, y + radius)][kind])
    return pts, radius


class TestConstruction:
    def test_edges_match_brute_force(self):
        udg = random_udg(80, seed=1)
        pts = udg.points
        for i in range(80):
            for j in range(i + 1, 80):
                d = math.hypot(*(pts[i] - pts[j]))
                assert udg.nx.has_edge(i, j) == (d <= 1.0), (i, j, d)

    def test_custom_radius(self):
        pts = [(0, 0), (0, 1.5), (0, 3.5)]
        udg = UnitDiskGraph(pts, radius=2.0)
        assert udg.nx.has_edge(0, 1)
        assert udg.nx.has_edge(1, 2)
        assert not udg.nx.has_edge(0, 2)

    def test_positions_stored(self):
        udg = udg_from_points([(1.0, 2.0), (3.0, 4.0)])
        assert udg.nx.nodes[0]["pos"] == (1.0, 2.0)

    def test_edge_distances_stored(self):
        udg = udg_from_points([(0, 0), (0.6, 0)])
        assert udg.nx.edges[0, 1]["dist"] == pytest.approx(0.6)

    def test_empty(self):
        udg = udg_from_points([])
        assert len(udg) == 0
        assert udg.number_of_edges() == 0

    def test_single_node(self):
        udg = udg_from_points([(0, 0)])
        assert len(udg) == 1
        assert udg.degree(0) == 0

    def test_coincident_points_connected(self):
        udg = udg_from_points([(1, 1), (1, 1)])
        assert udg.nx.has_edge(0, 1)

    def test_bad_radius(self):
        with pytest.raises(GraphError, match="radius"):
            UnitDiskGraph([(0, 0)], radius=0)

    def test_bad_shape(self):
        with pytest.raises(GraphError, match="\\(n, 2\\)"):
            UnitDiskGraph([(0, 0, 0)])


class TestQueries:
    def test_distance_symmetric(self):
        udg = random_udg(30, seed=2)
        assert udg.distance(3, 7) == pytest.approx(udg.distance(7, 3))

    def test_neighbors_within_prefix_property(self):
        udg = random_udg(100, seed=3)
        for v in range(20):
            inner = set(udg.neighbors_within(v, 0.3))
            outer = set(udg.neighbors_within(v, 0.8))
            assert inner <= outer

    def test_neighbors_within_exact(self):
        udg = random_udg(100, seed=4)
        for v in range(10):
            got = set(udg.neighbors_within(v, 0.5))
            want = {w for w in udg.nx.neighbors(v)
                    if udg.distance(v, w) <= 0.5}
            assert got == want

    def test_closed_neighbors_within_includes_self(self):
        udg = random_udg(20, seed=5)
        assert udg.closed_neighbors_within(0, 0.5)[0] == 0

    def test_full_radius_equals_graph_neighbors(self):
        udg = random_udg(60, seed=6)
        for v in range(10):
            assert set(udg.neighbors_within(v, 1.0)) == set(udg.nx.neighbors(v))


class TestRandomUdg:
    def test_deterministic(self):
        a = random_udg(50, seed=9)
        b = random_udg(50, seed=9)
        assert np.allclose(a.points, b.points)

    def test_density_controls_degree(self):
        sparse = random_udg(300, density=3.0, seed=1)
        dense = random_udg(300, density=20.0, seed=1)
        mean_deg = lambda u: 2 * u.number_of_edges() / len(u)
        assert mean_deg(dense) > 2 * mean_deg(sparse)

    def test_density_approximation(self):
        # Mean degree should be close to density - 1 (boundary effects
        # pull it down somewhat).
        udg = random_udg(2000, density=12.0, seed=2)
        mean_deg = 2 * udg.number_of_edges() / len(udg)
        assert 7.0 <= mean_deg <= 12.5

    def test_area_side_explicit(self):
        udg = random_udg(100, area_side=5.0, seed=3)
        assert udg.points.max() <= 5.0
        assert udg.points.min() >= 0.0

    def test_mutually_exclusive_args(self):
        with pytest.raises(GraphError, match="at most one"):
            random_udg(10, area_side=5.0, density=10.0)

    def test_invalid_args(self):
        with pytest.raises(GraphError):
            random_udg(-1)
        with pytest.raises(GraphError):
            random_udg(10, density=-1.0)
        with pytest.raises(GraphError):
            random_udg(10, area_side=0.0)

    def test_zero_nodes(self):
        assert len(random_udg(0, seed=0)) == 0


class TestReferenceOracle:
    @given(case=point_sets(), seed=st.integers(0, 2**32 - 1))
    @example(case=([], 1.0), seed=0)
    @example(case=([(0.5, 0.5)], 0.2), seed=0)
    @example(case=([(-1.0, 0.0), (0.0, 0.0), (0.0, 0.0), (1.0, 0.0),
                    (0.0, -1.0)], 1.0), seed=0)
    @settings(max_examples=150, deadline=None)
    def test_builds_match_reference(self, case, seed):
        points, radius = case
        ref = reference_build(points, radius)
        assert_matches_reference(UnitDiskGraph(points, radius=radius), ref)

        alpha = 0.5 * radius
        qudg = QuasiUnitDiskGraph(points, alpha=alpha, p_gray=0.4,
                                  radius=radius, seed=seed)
        doomed = reference_doomed(ref, alpha, 0.4, seed)
        thinned = reference_build(points, radius)  # copy() reorders adj
        thinned.remove_edges_from(doomed)
        assert sorted(set(ref.edges) - set(qudg.nx.edges)) == doomed
        assert_matches_reference(qudg, thinned)

        noisy = NoisySensingUDG(points, sigma=0.3, radius=radius,
                                noise_seed=seed)
        assert_matches_reference(
            noisy, ref, sensed=reference_sensing(points, ref, 0.3, seed))

    def test_exact_radius_pairs_are_edges(self):
        for radius in RADII:
            pts = [(0.0, 0.0), (radius, 0.0), (0.0, radius),
                   (radius, radius)]
            udg = UnitDiskGraph(pts, radius=radius)
            assert sorted(udg.nx.edges) == [(0, 1), (0, 2), (1, 3), (2, 3)]
            assert_matches_reference(udg, reference_build(pts, radius))

    def test_random_deployment_matches_reference(self):
        udg = random_udg(600, density=10.0, seed=5)
        assert_matches_reference(udg, reference_build(udg.points, 1.0))

    # A dense W x H grid over either deployment would have ~1e18+ cells.
    def test_points_far_apart_build_in_milliseconds(self):
        # Past 2**53 a cell's +-1 neighbors are not floats: no point
        # can sit there, and the lookup must not round onto a cell.
        pts = [(0.0, 0.0), (1e12, 0.0), (0.0, 1e12), (1e12, 1e12),
               (1e12 + 0.5, 1e12), (-1e12, -1e12), (2.0**60, 0.0),
               (2.0**60, 0.5), (2.0**60 + 256, 0.0)]
        start = time.perf_counter()
        udg = UnitDiskGraph(pts)
        assert time.perf_counter() - start < 1.0
        assert sorted(udg.nx.edges) == [(3, 4), (6, 7)]
        assert_matches_reference(udg, reference_build(pts, 1.0))

    def test_tiny_radius_builds_in_milliseconds(self):
        pts = np.random.default_rng(0).uniform(0.0, 1.0, size=(300, 2))
        pts[1] = pts[0]
        pts[2] = pts[0] + [1e-9, 0.0]
        start = time.perf_counter()
        udg = UnitDiskGraph(pts, radius=1e-9)
        assert time.perf_counter() - start < 1.0
        assert_matches_reference(udg, reference_build(pts, 1e-9))


    def test_cell_overflow_keeps_exact_edges(self):
        # x / radius overflows to inf; the reference loop raised here.
        pts = [(1e300, 0.0), (1e300, 0.0), (-1e300, 5.0), (1e300, 1e-11)]
        udg = UnitDiskGraph(pts, radius=1e-10)
        assert list(udg.nx.edges(data="dist")) == [
            (0, 1, 0.0), (0, 3, 1e-11), (1, 3, 1e-11)]


class TestValidation:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_point_raises_graph_error(self, bad):
        with pytest.raises(GraphError, match="point 2 is not finite"):
            UnitDiskGraph([(0.0, 0.0), (1.0, 1.0), (bad, 0.5), (bad, bad)])

    def test_nan_radius_raises_graph_error(self):
        with pytest.raises(GraphError, match="radius"):
            UnitDiskGraph([(0.0, 0.0)], radius=math.nan)
