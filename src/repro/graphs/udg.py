"""Unit disk graphs with spatial indexing and distance sensing.

A unit disk graph (UDG) has nodes at points in the Euclidean plane and an
edge between every pair at distance at most ``radius`` (the paper fixes the
radius to 1).  :class:`UnitDiskGraph` builds the graph in numpy: points
are hashed to square cells of side ``radius`` through a sparse cell index
(sorted cell keys, so the cost does not depend on how far apart the
points lie), and candidate pairs come from each point's 3x3 cell block one
offset at a time.

The graph is array-primary.  It keeps the points, the kept edges as
arrays ``(i, j, dist)`` and the distance-sorted CSR
(:attr:`UnitDiskGraph.dist_csr`), which answers the distance-restricted
neighborhood queries :math:`N_v(\\tau)` that Algorithm 3 needs ("nodes
can sense the distance between themselves and their neighbors",
Section 3) and is the operand of the election kernels.  Its
:class:`~repro.engine.artifacts.GraphArtifacts` bundle builds straight
from the edge arrays.  The ``networkx`` graph (:attr:`UnitDiskGraph.nx`)
is filled on first access only; the edge arrays are released then, and
from that point the networkx graph is the one mutable form (mutating it
in place follows :func:`repro.engine.artifacts.touch`).

The build is deterministic.  Edges are listed cell by cell, cells in the
order of their first point, then by node, 3x3 offset (x outer) and
neighbor, and the networkx graph adds them in that order, so node order,
each node's adjacency order, ``list(g.nx.edges)`` and every ``dist``
float depend only on the points and the radius.  A per-cell reference
loop in ``tests/test_graphs_udg.py`` pins all of them.
"""

from __future__ import annotations

import bisect
import math
import numbers
from typing import List, Optional, Sequence, Tuple

import networkx as nx
import numpy as np

from repro.errors import GraphError

Point = Tuple[float, float]

#: The 3x3 cell block in the order edges are added (x offset outer).
_OFFSETS = tuple((dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1))


def _find(table: np.ndarray, values: np.ndarray
          ) -> Tuple[np.ndarray, np.ndarray]:
    """Position of each of ``values`` in the sorted ``table`` (clamped to
    a valid index) and whether it is there."""
    idx = np.minimum(np.searchsorted(table, values), len(table) - 1)
    return idx, table[idx] == values


# A coordinate too large for ``coordinate / radius`` to stay finite
# lands in an infinite cell, and one too large to square gives an
# infinite distance.  Both are exact: float spacing there dwarfs the
# radius, so points within range of each other share a cell.
@np.errstate(over="ignore", invalid="ignore")
def _udg_edges(points: np.ndarray, radius: float
               ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every pair at distance <= ``radius`` as ``(i, j, dist)`` with
    ``i < j``, ordered by the cell of ``i`` (cells by first point), then
    ``i``, then the 3x3 offset of ``j``'s cell, then ``j``.

    ``dist`` is ``sqrt(dx*dx + dy*dy)``, the same float the pairwise
    test compares against ``radius * radius``.
    """
    if len(points) == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, np.zeros(0, dtype=np.float64)
    xs = np.ascontiguousarray(points[:, 0])
    ys = np.ascontiguousarray(points[:, 1])
    # Cell coordinates as floats (exact integers); +0.0 folds -0.0 into 0.
    cx = np.floor(xs / radius) + 0.0
    cy = np.floor(ys / radius) + 0.0
    # Sparse cell index: rank each axis, then pack the two ranks.
    ux, rx = np.unique(cx, return_inverse=True)
    uy, ry = np.unique(cy, return_inverse=True)
    keys, first, cell_of = np.unique(rx * len(uy) + ry, return_index=True,
                                     return_inverse=True)
    members = np.argsort(cell_of, kind="stable")
    count = np.bincount(cell_of)
    start = np.cumsum(count) - count
    # Points in visit order: cells by first appearance, nodes ascending.
    appearance = np.empty(len(keys), dtype=np.int64)
    appearance[np.argsort(first)] = np.arange(len(keys))
    visit = np.argsort(appearance[cell_of], kind="stable")
    visit_cell = cell_of[visit]
    kx, ky = np.divmod(keys, len(uy))
    cell_x, cell_y = ux[kx], uy[ky]

    r2 = radius * radius
    pos_parts, i_parts, j_parts, d2_parts = [], [], [], []
    for ox, oy in _OFFSETS:
        # The neighbor cell of every occupied cell, or -1 when empty.
        # ``tx - cell_x == ox`` rejects an offset that rounds away (cell
        # coordinates past 2**53), whose exact target no point can hit.
        tx, ty = cell_x + ox, cell_y + oy
        ix, hit_x = _find(ux, tx)
        iy, hit_y = _find(uy, ty)
        tc, hit = _find(keys, ix * len(uy) + iy)
        hit &= hit_x & hit_y
        if ox:
            hit &= tx - cell_x == ox
        if oy:
            hit &= ty - cell_y == oy
        target = np.where(hit, tc, -1)[visit_cell]
        # Expand every visited point against its neighbor cell's members.
        pos = np.flatnonzero(target >= 0)
        tcell = target[pos]
        cnt = count[tcell]
        skip = np.cumsum(cnt) - cnt
        jj = members[np.repeat(start[tcell] - skip, cnt)
                     + np.arange(int(cnt.sum()))]
        pos = np.repeat(pos, cnt)
        ii = visit[pos]
        up = jj > ii
        pos, ii, jj = pos[up], ii[up], jj[up]
        dx = xs[ii] - xs[jj]
        dy = ys[ii] - ys[jj]
        d2 = dx * dx + dy * dy
        near = d2 <= r2
        pos_parts.append(pos[near])
        i_parts.append(ii[near])
        j_parts.append(jj[near])
        d2_parts.append(d2[near])
    # Offsets were generated in order, so a stable sort on the visit
    # position yields (cell, i, offset, j).
    order = np.argsort(np.concatenate(pos_parts), kind="stable")
    return (np.concatenate(i_parts)[order], np.concatenate(j_parts)[order],
            np.sqrt(np.concatenate(d2_parts)[order]))


def _networkx_graph(points: np.ndarray, i: np.ndarray, j: np.ndarray,
                    dist: np.ndarray) -> nx.Graph:
    """The networkx graph of the edge list ``(i, j, dist)``, filled
    exactly as ``add_edge`` called edge by edge in list order fills it:
    each node's adjacency lists its edges in list order, and the two
    directions of an edge share one data dict."""
    g = nx.Graph()
    g.add_nodes_from(range(len(points)))
    # Written straight into the new graph's dicts: add_edges_from does
    # the same per edge, plus node and tuple-shape checks.
    for attrs, p in zip(g._node.values(), map(tuple, points.tolist())):
        attrs["pos"] = p
    adj = g._adj
    for u, v, d in zip(i.tolist(), j.tolist(), dist.tolist()):
        adj[u][v] = adj[v][u] = {"dist": d}
    return g


def _row_order(n: int, src: np.ndarray, nbr: np.ndarray,
               dist: np.ndarray) -> np.ndarray:
    """The permutation that sorts the entries by ``(src, dist, nbr)``.

    One float sort ranks the distances (equal distances share a rank);
    ``(src, rank, nbr)`` then packs into one int64 key, whose sort is
    the three-key ``lexsort`` at a fraction of its cost.  Sizes whose
    key would not fit 63 bits take the ``lexsort``."""
    total = len(dist)
    node_bits = max(1, (n - 1).bit_length())
    rank_bits = max(1, total.bit_length())
    if 2 * node_bits + rank_bits > 63:
        return np.lexsort((nbr, dist, src))
    by_dist = np.argsort(dist)
    step = np.zeros(total, dtype=np.int64)
    ordered = dist[by_dist]
    np.not_equal(ordered[1:], ordered[:-1], out=step[1:])
    rank = np.empty(total, dtype=np.int64)
    rank[by_dist] = np.cumsum(step)
    return np.argsort((src << (rank_bits + node_bits))
                      | (rank << node_bits) | nbr)


def _distance_csr(n: int, src: np.ndarray, nbr: np.ndarray,
                  dist: np.ndarray) -> Tuple[np.ndarray, ...]:
    """Read-only ``(indptr, src, nbr, dist)`` with each row sorted by
    ``(dist, nbr)``."""
    order = _row_order(n, src, nbr, dist)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    csr = (indptr, src[order], nbr[order], dist[order])
    for arr in csr:
        arr.flags.writeable = False
    return csr


class UnitDiskGraph:
    """A unit disk graph over explicit points.

    Parameters
    ----------
    points:
        Sequence of ``(x, y)`` coordinates; node ``i`` sits at
        ``points[i]``.  Every coordinate must be finite.
    radius:
        Communication radius (edge iff distance <= radius).  Default 1.0,
        matching the paper.

    Attributes
    ----------
    nx:
        The ``networkx.Graph`` with integer nodes ``0..n-1``, ``pos``
        node attributes, and ``dist`` edge attributes, built on first
        access.  Its node order, adjacency order and edge order are
        fixed by the points and the radius (see the module docstring).
    dist_csr:
        ``(indptr, src, nbr, dist)``, read-only numpy arrays: row ``v``
        (``indptr[v]:indptr[v + 1]``) lists ``v``'s neighbors by
        ascending ``(dist, nbr)``, with ``src`` repeating ``v`` and
        ``dist`` the stored edge distance.  :meth:`neighbors_within`
        bisects a row.
    edge_arrays:
        The kept edges ``(i, j, dist)`` in build order until :attr:`nx`
        is built, then ``None``.
    """

    def __init__(self, points: Sequence[Point], radius: float = 1.0):
        if not radius > 0:
            raise GraphError(f"UDG radius must be positive, got {radius}")
        self.points = np.asarray(points, dtype=float)
        if len(self.points) == 0:
            self.points = self.points.reshape(0, 2)
        if self.points.ndim != 2 or self.points.shape[1] != 2:
            raise GraphError(
                f"points must be an (n, 2) array, got shape {self.points.shape}"
            )
        finite = np.isfinite(self.points).all(axis=1)
        if not finite.all():
            bad = int(np.argmin(finite))
            raise GraphError(f"point {bad} is not finite: "
                             f"{self.points[bad].tolist()}")
        self.radius = float(radius)
        self.n = len(self.points)
        i, j, dist = self._kept_edges(*_udg_edges(self.points, self.radius))
        self._edges: Optional[Tuple[np.ndarray, ...]] = (i, j, dist)
        self._nx: Optional[nx.Graph] = None
        self.dist_csr = _distance_csr(self.n, np.concatenate([i, j]),
                                      np.concatenate([j, i]),
                                      np.concatenate([dist, dist]))

    def _kept_edges(self, i: np.ndarray, j: np.ndarray, dist: np.ndarray
                    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The edges of the graph, given every pair within the radius
        in build order (subclasses thin them; order is kept)."""
        return i, j, dist

    @property
    def edge_arrays(self) -> Optional[Tuple[np.ndarray, ...]]:
        """The kept edges ``(i, j, dist)`` (``i < j``) in build order, or
        ``None`` once :attr:`nx` has been built (the arrays are released
        then, and the networkx graph is the topology)."""
        return self._edges

    @property
    def nx(self) -> nx.Graph:
        """The networkx graph, filled from the edge arrays on first
        access.  Cached artifacts move onto it (see
        :func:`repro.engine.artifacts.graph_artifacts`)."""
        g = self._nx
        if g is None:
            i, j, dist = self._edges
            g = self._nx = _networkx_graph(self.points, i, j, dist)
            self._edges = None
            from repro.engine.artifacts import rekey  # deferred: avoids cycle
            rekey(self, g)
        return g

    # ------------------------------------------------------------------
    def _edge_index(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(keys, eid)``: ``keys`` encodes the sorted edge list as
        ``u * n + v`` (``u < v``), and ``eid`` maps every CSR entry to
        its edge's position in that list."""
        _, src, nbr, _ = self.dist_csr
        return np.unique(np.minimum(src, nbr) * self.n + np.maximum(src, nbr),
                         return_inverse=True)

    def _row_cut(self, v: int, tau: float) -> Tuple[int, int]:
        """Row ``v``'s CSR span ``[start, cut)`` of neighbors at stored
        distance at most ``tau``."""
        indptr, _, _, dist = self.dist_csr
        start, end = indptr[v:v + 2].tolist()
        return start, start + bisect.bisect_right(dist[start:end].tolist(), tau)

    # ------------------------------------------------------------------
    def distance(self, u: int, v: int) -> float:
        """Euclidean distance between two nodes (not just neighbors).

        Computed with ``math.hypot``, whereas the stored edge ``dist``
        (and so :meth:`neighbors_within`) uses ``sqrt(dx*dx + dy*dy)``.
        The two differ in the last bit on about 17% of pairs; both are
        part of the reproducible output and neither may change.
        """
        du = self.points[u] - self.points[v]
        return float(math.hypot(du[0], du[1]))

    def neighbors_within(self, v: int, tau: float) -> List[int]:
        """The paper's :math:`N_v(\\tau)` minus ``v`` itself: graph
        neighbors at distance at most ``tau`` (``tau`` is capped by the
        communication radius since farther nodes are not neighbors),
        nearest first."""
        start, cut = self._row_cut(v, tau)
        return self.dist_csr[2][start:cut].tolist()

    def closed_neighbors_within(self, v: int, tau: float) -> List[int]:
        """:math:`N_v(\\tau)` including ``v`` itself."""
        return [v] + self.neighbors_within(v, tau)

    # Convenience pass-throughs (the networkx graph once it exists) ----
    def degree(self, v: int) -> int:
        if self._nx is not None:
            return self._nx.degree[v]
        # Resolve ``v`` as the networkx node dict would (``5.0`` names
        # node 5), without building it; any other label is unknown.
        integral = isinstance(v, numbers.Integral) or (
            isinstance(v, numbers.Real) and float(v).is_integer())
        if not (integral and 0 <= v < self.n):
            raise KeyError(v)
        indptr = self.dist_csr[0]
        return int(indptr[int(v) + 1] - indptr[int(v)])

    def number_of_nodes(self) -> int:
        return self.n

    def number_of_edges(self) -> int:
        if self._nx is not None:
            return self._nx.number_of_edges()
        return len(self._edges[0])

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:  # pragma: no cover — debugging aid
        return (f"UnitDiskGraph(n={self.n}, m={self.number_of_edges()}, "
                f"radius={self.radius})")


class QuasiUnitDiskGraph(UnitDiskGraph):
    """A quasi unit disk graph — the standard "no clear-cut disks" model.

    Section 1 concedes that "in reality, signal propagation does often
    not form clear-cut disks".  The QUDG formalizes that: pairs at
    distance <= ``alpha`` are always connected, pairs beyond ``radius``
    never, and pairs in the gray zone ``(alpha, radius]`` are connected
    independently with probability ``p_gray`` (fading, obstacles,
    antenna anisotropy).

    Distance sensing stays exact; only the edge set is degraded.  Note
    that Lemma 5.1's coverage argument is specific to the clean-disk
    model: it delivers a covering leader within *distance* 1 of every
    node, which is only guaranteed to be a *neighbor* when every
    distance-<=1 pair has an edge (alpha = 1).  On a QUDG, Part I alone
    can therefore leave nodes uncovered, and Part II's adoption loop is
    what restores end-to-end correctness — experiment E21 quantifies the
    degradation across alpha.
    """

    def __init__(self, points: Sequence[Point], *, alpha: float = 0.75,
                 p_gray: float = 0.5, radius: float = 1.0,
                 seed: int | None = None):
        if not 0.0 < alpha <= radius:
            raise GraphError(
                f"alpha must be in (0, radius], got alpha={alpha}, "
                f"radius={radius}")
        if not 0.0 <= p_gray <= 1.0:
            raise GraphError(f"p_gray must be in [0, 1], got {p_gray}")
        self.alpha = float(alpha)
        self.p_gray = float(p_gray)
        self._seed = seed
        super().__init__(points, radius=radius)

    def _kept_edges(self, i: np.ndarray, j: np.ndarray, dist: np.ndarray
                    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Remove each gray-zone edge independently with prob 1 - p_gray:
        one uniform per gray edge, in sorted edge order."""
        by_key = np.argsort(i * self.n + j)
        gray = by_key[dist[by_key] > self.alpha]
        doomed = np.zeros(len(dist), dtype=bool)
        rng = np.random.default_rng(self._seed)
        doomed[gray] = rng.random(len(gray)) >= self.p_gray
        keep = ~doomed
        return i[keep], j[keep], dist[keep]


class NoisySensingUDG(UnitDiskGraph):
    """A unit disk graph whose *distance sensing* is imperfect.

    The paper (following [7]) assumes "nodes can sense the distance
    between themselves and their neighbors" exactly.  Real ranging (RSSI,
    time-of-flight) is noisy.  This subclass keeps the communication
    graph exact (edges are still true-distance <= radius) but perturbs
    every *sensed* distance by a symmetric multiplicative factor
    ``1 + eps_uv`` with ``eps_uv ~ U(-sigma, +sigma)``, fixed per node
    pair (both endpoints sense the same wrong value, as with RSSI).

    Distance-restricted queries (:meth:`neighbors_within`, hence
    Algorithm 3's ``N_v(theta)``) use the noisy values; experiment E20
    measures the effect on Part I's guarantees.

    Attributes
    ----------
    sensed_dist:
        Read-only sensed distance of every :attr:`dist_csr` entry.
    """

    def __init__(self, points: Sequence[Point], *, sigma: float,
                 radius: float = 1.0, noise_seed: int | None = None):
        if not 0.0 <= sigma < 1.0:
            raise GraphError(
                f"sensing noise sigma must be in [0, 1), got {sigma}")
        super().__init__(points, radius=radius)
        self.sigma = float(sigma)
        keys, eid = self._edge_index()
        # One symmetric factor per edge, drawn in sorted edge order.
        rng = np.random.default_rng(noise_seed)
        factor = 1.0 + rng.uniform(-sigma, sigma, size=len(keys))
        # math.hypot, as distance() computes it; hypot(-a, -b) equals
        # hypot(a, b), so one value per edge serves both directions.
        u, v = np.divmod(keys, self.n)
        du = self.points[u] - self.points[v]
        true = np.fromiter(map(math.hypot, du[:, 0].tolist(),
                               du[:, 1].tolist()),
                           dtype=np.float64, count=len(keys))
        self.sensed_dist = (true * factor)[eid]
        self.sensed_dist.flags.writeable = False

    def sensed_distance(self, u: int, v: int) -> float:
        """The (noisy) distance the radios report for a linked pair; the
        true distance for any other pair."""
        indptr, _, nbr, _ = self.dist_csr
        start = indptr[u]
        hit = np.flatnonzero(nbr[start:indptr[u + 1]] == v)
        if hit.size:
            return float(self.sensed_dist[start + hit[0]])
        return self.distance(u, v)

    def neighbors_within(self, v: int, tau: float) -> List[int]:
        """Graph neighbors whose *sensed* distance is at most ``tau``."""
        # Superset by true distance (noise can only inflate by 1+sigma),
        # then filter by the sensed value.
        start, cut = self._row_cut(
            v, min(self.radius, tau / max(1e-12, 1.0 - self.sigma)))
        keep = self.sensed_dist[start:cut] <= tau
        return self.dist_csr[2][start:cut][keep].tolist()


def udg_from_points(points: Sequence[Point], radius: float = 1.0) -> UnitDiskGraph:
    """Build a :class:`UnitDiskGraph` from explicit coordinates."""
    return UnitDiskGraph(points, radius=radius)


def random_udg(n: int, *, area_side: float | None = None,
               density: float | None = None, radius: float = 1.0,
               seed: int | None = None) -> UnitDiskGraph:
    """Sample ``n`` points uniformly in a square and build the UDG.

    Exactly one of ``area_side`` and ``density`` may be given:

    - ``area_side``: side length ``L`` of the deployment square ``[0, L]^2``;
    - ``density``: expected number of nodes per unit-disk area
      (``pi * radius^2``); the side length is derived as
      ``sqrt(n * pi * radius^2 / density)``.

    The default (neither given) targets density 10 — a well-connected
    sensor-network regime.
    """
    if n < 0:
        raise GraphError(f"n must be non-negative, got {n}")
    if area_side is not None and density is not None:
        raise GraphError("give at most one of area_side and density")
    if density is not None and density <= 0:
        raise GraphError(f"density must be positive, got {density}")
    if area_side is not None and area_side <= 0:
        raise GraphError(f"area_side must be positive, got {area_side}")

    if area_side is None:
        target_density = density if density is not None else 10.0
        disk_area = math.pi * radius * radius
        area_side = math.sqrt(max(n, 1) * disk_area / target_density)

    rng = np.random.default_rng(seed)
    pts = rng.uniform(0.0, area_side, size=(n, 2))
    return UnitDiskGraph(pts, radius=radius)
