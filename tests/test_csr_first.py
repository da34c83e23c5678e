"""CSR-first unit disk graphs against the eager builder they replaced.

``UnitDiskGraph`` keeps its edge arrays and distance CSR as its primary
form and fills networkx only when ``.nx`` is first read; its artifacts
build straight from the edge arrays.  The oracles below are the code it
ran while it filled networkx in its constructor:

- :func:`eager_udg` -- the numpy edge search, the networkx fill, and a
  three-key ``lexsort`` for the distance CSR;
- :func:`eager_qudg` -- gray-zone removal on the filled graph
  (``remove_edges_from``), one draw per gray edge in sorted edge order;
- :func:`eager_sensed` -- the noisy model's sensed distances over the
  eager CSR;
- ``GraphArtifacts`` built from the eager graph's adjacency;
- :func:`eager_from_udg` -- ``NetworkState.from_udg`` adopting the
  deployment's networkx graph at once;
- :class:`RebuildState` -- ``NetworkState`` building its live artifacts
  from its networkx graph whenever no base graph exists (a fresh state,
  or one after a bulk move), instead of from a unit disk graph's edge
  arrays.

Generated cases (plain, quasi and noisy UDGs, including n = 0, n = 1,
duplicate points and far-apart coordinates) pin the lazy graph, its
artifacts, the degree-only property helpers and the deferred adoption
against them.  The guard tests make the networkx fill raise and run the
solvers (direct and message mode, lane and process runs) and the
maintenance loop, which must never need it.
"""

import copy
import math
import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.baselines.jrs import jrs_kmds
from repro.core.fractional import fractional_kmds
from repro.core.general import recommended_t, solve_kmds_general
from repro.core.rounding import randomized_rounding
from repro.core.udg import (UDGNode, UDGProgram, solve_kmds_udg,
                            solve_kmds_udg_batch, solve_kmds_udg_grid,
                            theta_schedule)
from repro.core.verify import is_k_dominating_set
from repro.dynamics.events import (BatteryDecay, CrashEvent, DrainEvent,
                                   EventStream, JoinEvent, MobilityRewiring,
                                   MoveEvent, PoissonJoins, RandomCrashes)
from repro.dynamics.loop import MaintenanceLoop
from repro.dynamics.repair import LocalPatchRepair
from repro.dynamics.scenario import Scenario, crash_scenario
from repro.dynamics.state import NetworkState
from repro.engine import execute
from repro.engine.artifacts import GraphArtifacts, graph_artifacts, touch
from repro.engine.kernels import udg_distance_csr
from repro.errors import (GraphError, InfeasibleInstanceError,
                          SimulationError)
from repro.graphs import udg as udg_module
from repro.graphs.mobility import GaussianDrift
from repro.graphs.properties import (degree_histogram, feasible_coverage,
                                     max_degree, max_feasible_k, min_degree,
                                     validate_coverage)
from repro.graphs.udg import (NoisySensingUDG, QuasiUnitDiskGraph,
                              UnitDiskGraph, random_udg)
from repro.service import queries
from repro.service.server import CoverageService
from repro.simulation.faults import MessageLossInjector
from repro.simulation.network import SynchronousNetwork
from repro.simulation.runner import run_protocol
from tests.test_graphs_udg import point_sets


# ----------------------------------------------------------------------
# The oracles
# ----------------------------------------------------------------------

def eager_csr(n, src, nbr, dist):
    """``(indptr, src, nbr, dist)`` rows sorted by a three-key lexsort."""
    order = np.lexsort((nbr, dist, src))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return indptr, src[order], nbr[order], dist[order]


def eager_udg(points, radius):
    """The eager build: ``(networkx graph, distance CSR)``."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    i, j, dist = udg_module._udg_edges(pts, radius)
    g = udg_module._networkx_graph(pts, i, j, dist)
    return g, eager_csr(len(pts), np.concatenate([i, j]),
                        np.concatenate([j, i]), np.concatenate([dist, dist]))


def eager_qudg(points, radius, alpha, p_gray, seed):
    """The eager quasi build: thin the filled graph and the CSR."""
    g, (_, src, nbr, dist) = eager_udg(points, radius)
    n = g.number_of_nodes()
    keys, eid = np.unique(np.minimum(src, nbr) * n + np.maximum(src, nbr),
                          return_inverse=True)
    edge_dist = np.empty(len(keys))
    edge_dist[eid] = dist
    gray = np.flatnonzero(edge_dist > alpha)
    doomed = np.zeros(len(keys), dtype=bool)
    doomed[gray] = np.random.default_rng(seed).random(len(gray)) >= p_gray
    u, v = np.divmod(keys[doomed], n)
    g.remove_edges_from(zip(u.tolist(), v.tolist()))
    keep = ~doomed[eid]
    return g, eager_csr(n, src[keep], nbr[keep], dist[keep])


def eager_sensed(points, csr, sigma, seed):
    """The sensed distance of every CSR entry (one factor per edge,
    drawn in sorted edge order, times the ``math.hypot`` distance)."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    n = len(pts)
    _, src, nbr, _ = csr
    keys, eid = np.unique(np.minimum(src, nbr) * n + np.maximum(src, nbr),
                          return_inverse=True)
    factor = 1.0 + np.random.default_rng(seed).uniform(-sigma, sigma,
                                                       size=len(keys))
    u, v = np.divmod(keys, n)
    du = pts[u] - pts[v]
    true = np.array([math.hypot(a, b) for a, b in du.tolist()])
    return (true * factor)[eid]


def eager_from_udg(udg, **kwargs):
    """``NetworkState.from_udg`` as it adopted the deployment's graph at
    once (the artifacts then build from that graph's adjacency)."""
    positions = {i: (float(x), float(y)) for i, (x, y) in enumerate(udg.points)}
    state = NetworkState(positions, udg.radius, **kwargs)
    state._base_nx = udg.nx
    state._base_shared = True
    return state


class RebuildState(NetworkState):
    """``NetworkState`` whose live artifacts, when no base graph exists,
    build from :meth:`graph` (a relabelled copy of a fresh unit disk
    graph's networkx graph, then its live view)."""

    def artifacts(self):
        if not self.incremental:
            self.artifact_rebuilds += 1
            return GraphArtifacts(self.graph())
        if self._live_art is None:
            pristine = (not self._base_dirty
                        and len(self.alive) == len(self.positions))
            if pristine and self._base_udg is not None:
                self._live_art = graph_artifacts(self._base_udg).copy()
            else:
                source = (self._base_nx
                          if pristine and self._base_nx is not None
                          else self.graph())
                self._live_art = GraphArtifacts(source)
            self._live_delta = self._live_art.delta_patcher()
            self.artifact_rebuilds += 1
        return self._live_art


def rebuild_from_udg(udg, **kwargs):
    """``NetworkState.from_udg`` for a :class:`RebuildState`."""
    state = RebuildState(dict(enumerate(map(tuple, udg.points.tolist()))),
                         udg.radius, **kwargs)
    state._base_udg = udg
    return state


# ----------------------------------------------------------------------
# Comparisons
# ----------------------------------------------------------------------

def assert_same_nx(got, want):
    """Node order and data, adjacency order, edge order, ``dist``."""
    assert list(got.nodes(data=True)) == list(want.nodes(data=True))
    for v in want:
        assert list(got.adj[v]) == list(want.adj[v]), v
    assert list(got.edges(data=True)) == list(want.edges(data=True))
    assert all(got.adj[u][v] is got.adj[v][u] for u, v in got.edges)


def assert_same_arrays(got, want):
    for a, b in zip(got, want, strict=True):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)


def assert_same_artifacts(art, ref):
    """Every field of the bundle, orders included."""
    assert art.nodes == ref.nodes
    assert list(art.index.items()) == list(ref.index.items())
    assert (art.n, art.m, art.delta) == (ref.n, ref.m, ref.delta)
    assert_same_arrays((art.indptr, art.indices, art.degrees,
                        art.nodes_array()),
                       (ref.indptr, ref.indices, ref.degrees,
                        ref.nodes_array()))


def families(points, radius, seed):
    """``(lazy graph, eager graph, eager distance CSR, eager sensed)``
    for the plain, quasi and noisy models over one point set."""
    g, csr = eager_udg(points, radius)
    yield UnitDiskGraph(points, radius=radius), g, csr, None
    alpha = 0.5 * radius
    qg, qcsr = eager_qudg(points, radius, alpha, 0.4, seed)
    yield (QuasiUnitDiskGraph(points, alpha=alpha, p_gray=0.4, radius=radius,
                              seed=seed), qg, qcsr, None)
    g, csr = eager_udg(points, radius)
    yield (NoisySensingUDG(points, sigma=0.3, radius=radius,
                           noise_seed=seed), g, csr,
           eager_sensed(points, csr, 0.3, seed))


@st.composite
def far_point_sets(draw):
    """Clusters around far-apart anchors (cell coordinates past 2**53
    included), with duplicates."""
    radius = draw(st.sampled_from((0.05, 1.0, 3.0)))
    anchors = st.sampled_from((0.0, 1e12, -1e12, 2.0**60, -(2.0**60), 1e300))
    near = st.floats(-2, 2, allow_nan=False).map(lambda c: c * radius)
    pts = draw(st.lists(st.tuples(anchors, anchors, near, near)
                        .map(lambda t: (t[0] + t[2], t[1] + t[3])),
                        max_size=20))
    pts += draw(st.lists(st.sampled_from(pts), max_size=3)) if pts else []
    return pts, radius


def deployments():
    return st.one_of(
        point_sets(),
        far_point_sets(),
        st.tuples(st.integers(0, 250), st.integers(0, 10**6)).map(
            lambda t: (random_udg(t[0], density=8.0, seed=t[1]).points
                       .tolist(), 1.0)))


# ----------------------------------------------------------------------
# The graph and its artifacts
# ----------------------------------------------------------------------

class TestAgainstEagerBuild:
    @given(case=deployments(), seed=st.integers(0, 2**32 - 1))
    @example(case=([], 1.0), seed=0)
    @example(case=([(0.5, 0.5)], 0.2), seed=0)
    @example(case=([(0.0, 0.0)] * 4 + [(1.0, 0.0), (0.5, 0.0)], 1.0), seed=3)
    @example(case=([(2.0**60, 0.0), (2.0**60, 0.5), (1e12, 1e12),
                    (1e12 + 0.5, 1e12), (-1e12, -1e12)], 1.0), seed=1)
    @settings(max_examples=120, deadline=None)
    def test_lazy_graph_matches_eager_build(self, case, seed):
        points, radius = case
        for udg, g, csr, sensed in families(points, radius, seed):
            assert udg.edge_arrays is not None
            assert_same_arrays(udg.dist_csr, csr)
            assert not any(a.flags.writeable for a in udg.dist_csr)
            if sensed is not None:
                assert np.array_equal(udg.sensed_dist, sensed)
                assert np.array_equal(udg_distance_csr(udg)[3], sensed)
            # Array-built artifacts equal the adjacency-built ones.
            art = graph_artifacts(udg)
            assert_same_artifacts(art, GraphArtifacts(g))
            assert art.stable_order()[0] == list(range(len(g)))
            assert udg.number_of_edges() == g.number_of_edges()
            assert [udg.degree(v) for v in g] == [d for _, d in g.degree]
            assert udg.edge_arrays is not None  # nothing above built nx
            # The networkx graph, filled on first read.
            assert_same_nx(udg.nx, g)
            assert udg.edge_arrays is None
            assert graph_artifacts(udg) is art
            assert graph_artifacts(udg.nx) is art and art.graph is udg.nx
            assert udg.number_of_edges() == g.number_of_edges()
            assert [udg.degree(v) for v in g] == [d for _, d in g.degree]

    @given(n=st.integers(0, 40), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_row_order_equals_lexsort(self, n, data):
        """The packed sort and its lexsort fallback give the three-key
        lexsort order, distance ties included."""
        pairs = data.draw(st.lists(
            st.tuples(st.integers(0, max(n - 1, 0)),
                      st.integers(0, max(n - 1, 0))),
            unique=True, max_size=120)) if n else []
        src = np.array([p[0] for p in pairs], dtype=np.int64)
        nbr = np.array([p[1] for p in pairs], dtype=np.int64)
        dist = np.array(data.draw(st.lists(
            st.sampled_from((0.0, 0.25, 0.5, 1.0, 1e-300, 0.5000000000000001)),
            min_size=len(pairs), max_size=len(pairs))), dtype=np.float64)
        want = np.lexsort((nbr, dist, src))
        assert np.array_equal(udg_module._row_order(n, src, nbr, dist), want)
        assert np.array_equal(
            udg_module._row_order(2**40, src, nbr, dist), want)

    def test_degree_reads_arrays_and_rejects_unknown_nodes(self):
        udg = random_udg(30, seed=0)
        want = [d for _, d in eager_udg(udg.points, 1.0)[0].degree]
        assert [udg.degree(v) for v in range(30)] == want
        assert [udg.degree(np.int64(v)) for v in range(30)] == want
        # Float labels resolve as the networkx node dict resolves them.
        assert udg.degree(5.0) == udg.degree(np.float64(5.0)) == want[5]
        bad_labels = (30, -1, "a", "5", 1.5, float("nan"), float("inf"),
                      np.float64(2.5))
        for bad in bad_labels:
            with pytest.raises(KeyError):
                udg.degree(bad)
        assert udg.edge_arrays is not None
        # The networkx-backed lookup answers every label the same way.
        g = udg.nx
        assert udg.degree(5.0) == g.degree[5] == want[5]
        for bad in bad_labels:
            with pytest.raises(KeyError):
                udg.degree(bad)


# ----------------------------------------------------------------------
# networkx is never built where only arrays are read
# ----------------------------------------------------------------------

@pytest.fixture
def no_networkx(monkeypatch):
    """Make the networkx fill raise for the rest of the test."""
    def refuse(*args, **kwargs):
        raise AssertionError("the networkx graph was built")
    monkeypatch.setattr(udg_module, "_networkx_graph", refuse)


_POINTS = random_udg(160, density=9.0, seed=21).points

#: The three wrapper models over one deployment, each built fresh.
WRAPPERS = {
    "udg": lambda: UnitDiskGraph(_POINTS),
    "qudg": lambda: QuasiUnitDiskGraph(_POINTS, alpha=0.7, seed=2),
    "noisy": lambda: NoisySensingUDG(_POINTS, sigma=0.2, noise_seed=3),
}


@pytest.fixture(scope="class")
def filled():
    """One twin per wrapper model with its networkx graph read up front
    (class-scoped, so it is built before ``no_networkx`` patches the
    fill)."""
    twins = {name: make() for name, make in WRAPPERS.items()}
    for twin in twins.values():
        twin.nx
    return twins


def same_ds(got, want):
    assert set(got.members) == set(want.members)
    assert got.stats == want.stats


def same_fractional(got, want):
    assert (got.x, got.y, got.z) == (want.x, want.y, want.z)
    assert (got.alpha, got.beta) == (want.alpha, want.beta)
    assert got.stats == want.stats


def lossy_run(udg, *, reference=False, k=2, loss=0.1, seed=3):
    """Experiment E17's lossy Algorithm 3 run on hand-built processes:
    leaders, stats, dropped count and the loss stream's end state."""
    n = udg.n
    procs = [UDGNode(v, k, n, "random", n + 1) for v in range(n)]
    net = SynchronousNetwork(udg, procs, seed=seed)
    injector = MessageLossInjector(loss, seed=seed + 1)
    stats = run_protocol(
        net, injectors=[injector], reference=reference,
        max_rounds=2 * len(theta_schedule(n)) + 3 * (n + 1) + 8)
    return ({p.node_id for p in procs if p.leader}, stats, injector.dropped,
            injector.rng.bit_generator.state)


class TestNeverBuildsNetworkx:
    def test_solvers(self, no_networkx):
        graphs = [random_udg(300, density=9.0, seed=s) for s in (0, 1)]
        graphs.append(QuasiUnitDiskGraph(graphs[0].points, alpha=0.7,
                                         seed=2))
        graphs.append(NoisySensingUDG(graphs[1].points, sigma=0.2,
                                      noise_seed=3))
        grid = solve_kmds_udg_grid(graphs, seeds=(0, 1), ks=(1, 2))
        for g, per_k in zip(graphs, grid):
            art = graph_artifacts(g)
            for k, per_seed in zip((1, 2), per_k):
                batch = solve_kmds_udg_batch(g, (0, 1), k=k)
                for seed, ds, twin in zip((0, 1), per_seed, batch):
                    single = solve_kmds_udg(g, k=k, seed=seed)
                    assert set(ds.members) == set(single.members) \
                        == set(twin.members)
                    assert is_k_dominating_set(art, ds.members, k)
        assert all(g.edge_arrays is not None for g in graphs)

    def test_fault_experiment(self, no_networkx):
        from repro.analysis.faults import dominator_failure_experiment

        udg = random_udg(200, seed=4)
        members = solve_kmds_udg(udg, k=2, seed=0).members
        for strategy in ("random", "targeted"):
            dominator_failure_experiment(udg, members, 0.3, trials=3,
                                         strategy=strategy, seed=1)
        assert udg.edge_arrays is not None

    def test_maintenance_and_queries(self, no_networkx):
        scenario = crash_scenario(n=400, k=2, epochs=6, seed=0)
        loop = MaintenanceLoop(scenario, LocalPatchRepair())
        service = CoverageService(loop)
        service.start()
        for _ in range(3):
            record, snap = service.step_epoch()
            assert record.fully_covered_after
        ids = np.arange(-5, 420, dtype=np.int64)
        for kind in ("covered", "k_deficit", "dominator_of", "who_covers"):
            queries.answer(snap, kind, ids)
        service.close()
        assert scenario.initial.edge_arrays is not None

    # The message plane and the general pipeline on fresh wrappers: each
    # result equals the same call on a twin whose networkx graph exists.

    @pytest.mark.parametrize("model", WRAPPERS)
    def test_algorithm3_message_lane_run(self, filled, no_networkx, model):
        g = WRAPPERS[model]()
        for k in (1, 2):
            got = solve_kmds_udg(g, k=k, mode="message", seed=4)
            same_ds(got, solve_kmds_udg(filled[model], k=k, mode="message",
                                        seed=4))
            ref = execute(UDGProgram(g, k, "random", 4), "message", seed=4,
                          reference=True)
            same_ds(ref, got)
        assert g.edge_arrays is not None

    @pytest.mark.parametrize("model", WRAPPERS)
    def test_lossy_process_run(self, filled, no_networkx, model):
        g = WRAPPERS[model]()
        got = lossy_run(g)
        assert got == lossy_run(filled[model])
        assert lossy_run(WRAPPERS[model](), reference=True) == got
        assert got[2] > 0
        assert g.edge_arrays is not None

    @pytest.mark.parametrize("mode", ("direct", "message"))
    @pytest.mark.parametrize("model", WRAPPERS)
    def test_general_pipeline(self, filled, no_networkx, model, mode):
        g, twin = WRAPPERS[model](), filled[model]
        cov = feasible_coverage(g, 3)
        want_cov = feasible_coverage(twin, 3)
        assert list(cov.items()) == list(want_cov.items())
        got = solve_kmds_general(g, 3, coverage=cov, mode=mode, seed=6,
                                 compute_duals=True)
        want = solve_kmds_general(twin, 3, coverage=cov, mode=mode, seed=6,
                                  compute_duals=True)
        same_ds(got.dominating_set, want.dominating_set)
        same_fractional(got.fractional, want.fractional)
        assert got.stats == want.stats
        frac = fractional_kmds(g, 1, t=2, mode=mode, seed=1)
        same_fractional(frac, fractional_kmds(twin, 1, t=2, mode=mode,
                                              seed=1))
        assert any(frac.alpha.values())
        rounded = randomized_rounding(g, frac.x, 1, mode=mode, seed=2)
        same_ds(rounded, randomized_rounding(twin, frac.x, 1, mode=mode,
                                             seed=2))
        assert g.edge_arrays is not None

    @pytest.mark.parametrize("mode", ("direct", "message"))
    @pytest.mark.parametrize("model", WRAPPERS)
    def test_jrs(self, filled, no_networkx, model, mode):
        g, twin = WRAPPERS[model](), filled[model]
        for convention in ("closed", "open"):
            got = jrs_kmds(g, 1, convention=convention, mode=mode, seed=5)
            want = jrs_kmds(twin, 1, convention=convention, mode=mode,
                            seed=5)
            same_ds(got, want)
            assert got.details == want.details
        assert g.edge_arrays is not None

    def test_async_process_runs(self, filled, no_networkx):
        """The alpha synchronizer runs per-node processes on a network
        bound to the wrapper."""
        g, twin = WRAPPERS["udg"](), filled["udg"]
        cov = feasible_coverage(g, 2)
        got = solve_kmds_general(g, 2, coverage=cov, mode="async", seed=6)
        want = solve_kmds_general(twin, 2, coverage=cov, mode="async",
                                  seed=6)
        same_ds(got.dominating_set, want.dominating_set)
        same_fractional(got.fractional, want.fractional)
        same_ds(jrs_kmds(g, 1, mode="async", seed=5),
                jrs_kmds(twin, 1, mode="async", seed=5))
        assert g.edge_arrays is not None

    @pytest.mark.parametrize("model", WRAPPERS)
    def test_infeasible_messages(self, filled, no_networkx, model):
        g, twin = WRAPPERS[model](), filled[model]
        k = max(feasible_coverage(twin, 10**6).values()) + 1
        calls = (lambda h: fractional_kmds(h, k),
                 lambda h: randomized_rounding(h, dict.fromkeys(range(h.n),
                                                                1.0), k),
                 lambda h: jrs_kmds(h, k))
        for call in calls:
            with pytest.raises(InfeasibleInstanceError) as got:
                call(g)
            with pytest.raises(InfeasibleInstanceError) as want:
                call(twin)
            assert str(got.value) == str(want.value)
            assert got.value.witness == want.value.witness
        assert g.edge_arrays is not None

    def test_network_graph_is_built_when_read(self):
        udg = WRAPPERS["udg"]()
        procs = UDGProgram(udg, 2, "random", 0).processes()
        net = SynchronousNetwork(udg, procs, seed=0)
        assert net.n == udg.n and net.is_geometric
        assert udg.edge_arrays is not None
        g = net.graph
        assert g is udg.nx and udg.edge_arrays is None
        assert graph_artifacts(g) is net._artifacts
        assert net.graph is g

    def test_network_errors_and_plain_graphs(self):
        """Binding checks read the artifacts: the same errors, word for
        word, on a fresh wrapper (which stays unbuilt), on its filled
        twin and on the plain graph."""
        def bind(graph, ids):
            return SynchronousNetwork(graph, [UDGNode(v, 1, 5, "random", 6)
                                              for v in ids])

        cases = ((list(range(5)) + [9], "process for unknown node 9"),
                 ([0, 1, 1, 2, 3, 4], "duplicate process for node 1"),
                 ([0, 1, 2], "no process supplied for 2 node(s), e.g. 3"),
                 ([[0]], "process for unknown node [0]"))
        udg = UnitDiskGraph(_POINTS[:5])
        for graph in (udg, UnitDiskGraph(_POINTS[:5]).nx,
                      random_udg(5, seed=1).nx):
            for ids, message in cases:
                with pytest.raises(SimulationError) as err:
                    bind(graph, ids)
                assert str(err.value) == message
        assert udg.edge_arrays is not None
        with pytest.raises(SimulationError) as err:
            SynchronousNetwork([1, 2], [])
        assert str(err.value) == \
            "expected a networkx.Graph (or wrapper), got list"
        # A plain graph keeps its own object, positions and stream order.
        g = random_udg(40, seed=2).nx
        net = bind(g, range(40))
        assert net.graph is g and net._sensing is None and net.radius == 1.0
        assert net._geometry() == {v: g.nodes[v]["pos"] for v in g}


def outcome(call):
    """A call's value, or the message of the ``GraphError`` it raised."""
    try:
        return "ok", call()
    except GraphError as exc:
        return "error", str(exc)


class TestPropertyHelpers:
    """The degree-only helpers read a fresh wrapper's artifacts and
    answer exactly as their networkx reads of the eager graph do: the
    same values, key orders and error messages."""

    @given(case=deployments(), seed=st.integers(0, 2**32 - 1),
           k=st.integers(-1, 6), data=st.data())
    @example(case=([], 1.0), seed=0, k=0, data=None)
    @example(case=([(0.5, 0.5)], 0.2), seed=0, k=2, data=None)
    @example(case=([(0.0, 0.0), (5.0, 5.0), (5.5, 5.0)], 1.0), seed=1, k=0,
             data=None)
    @settings(max_examples=60, deadline=None)
    def test_helpers_match_networkx(self, case, seed, k, data):
        points, radius = case
        for lazy, g, _, _ in families(points, radius, seed):
            got = outcome(lambda: feasible_coverage(lazy, k))
            want = outcome(lambda: feasible_coverage(g, k))
            assert got[0] == want[0]
            if got[0] == "ok":
                assert list(got[1].items()) == list(want[1].items())
            else:
                assert got == want
            for helper in (max_degree, min_degree, max_feasible_k,
                           recommended_t):
                assert helper(lazy) == helper(g)
            assert list(degree_histogram(lazy).items()) == \
                list(degree_histogram(g).items())
            # A requirement map with negative, infeasible and missing
            # entries (the first offender in node order names the error).
            n = len(g)
            reqs = (data.draw(st.lists(st.integers(-1, 9), min_size=n,
                                       max_size=n))
                    if data is not None else [min(k, 1)] * n)
            drop = (data.draw(st.sets(st.integers(0, n), max_size=2))
                    if data is not None else set())
            cov = {v: r for v, r in enumerate(reqs) if v not in drop}
            assert outcome(lambda: validate_coverage(lazy, cov)) == \
                outcome(lambda: validate_coverage(g, cov))
            assert lazy.edge_arrays is not None


# ----------------------------------------------------------------------
# Cache keys, touch, serialization
# ----------------------------------------------------------------------

class TestCacheKeys:
    def test_wrapper_and_graph_share_one_bundle(self):
        udg = random_udg(120, seed=7)
        art = graph_artifacts(udg)
        assert graph_artifacts(udg) is art
        g = udg.nx
        assert graph_artifacts(udg) is art
        assert graph_artifacts(g) is art
        assert art.graph is g

    def test_graph_read_builds_networkx_and_keeps_the_bundle(self):
        udg = random_udg(60, seed=8)
        art = graph_artifacts(udg)
        assert udg.edge_arrays is not None
        assert art.graph is udg.nx  # reading .graph fills networkx
        assert graph_artifacts(udg.nx) is art

    def test_touch_after_in_place_edit_rebuilds(self):
        udg = random_udg(80, seed=9)
        art = graph_artifacts(udg)
        g = udg.nx
        u, v = next(iter(g.edges))
        a, b = next((x, y) for x in g for y in g
                    if x < y and not g.has_edge(x, y))
        g.remove_edge(u, v)
        g.add_edge(a, b, dist=udg.distance(a, b))  # same n and m
        assert graph_artifacts(udg) is art  # invisible until touched
        touch(g)
        fresh = graph_artifacts(udg)
        assert fresh is not art and graph_artifacts(g) is fresh
        assert_same_artifacts(fresh, GraphArtifacts(g))
        assert udg.degree(a) == g.degree[a]

    def test_touch_on_a_lazy_wrapper_only_drops_the_bundle(self):
        udg = random_udg(40, seed=10)
        art = graph_artifacts(udg)
        touch(udg)
        assert udg.edge_arrays is not None
        assert graph_artifacts(udg) is not art

    @pytest.mark.parametrize("make", [
        lambda: random_udg(90, seed=11),
        lambda: QuasiUnitDiskGraph(random_udg(90, seed=12).points,
                                   alpha=0.6, seed=5),
        lambda: NoisySensingUDG(random_udg(90, seed=13).points, sigma=0.2,
                                noise_seed=6),
    ])
    @pytest.mark.parametrize("clone", [
        lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy])
    def test_round_trips_before_and_after_networkx(self, make, clone):
        want_nx = make().nx
        for built in (False, True):
            udg = make()
            art = graph_artifacts(udg)
            if built:
                udg.nx
            twin = clone(udg)
            assert (twin.edge_arrays is None) == built
            assert np.array_equal(twin.points, udg.points)
            assert_same_arrays(twin.dist_csr, udg.dist_csr)
            twin_art = graph_artifacts(twin)
            assert twin_art is not art
            assert_same_artifacts(twin_art, art)
            assert_same_nx(twin.nx, want_nx)
            assert twin.nx is not udg.nx
            assert graph_artifacts(twin.nx) is twin_art


# ----------------------------------------------------------------------
# NetworkState.from_udg: deferred adoption vs eager adoption
# ----------------------------------------------------------------------

def assert_same_graph(got, want):
    assert list(got.nodes) == list(want.nodes)
    for v in want:
        assert list(got.adj[v]) == list(want.adj[v]), v
    assert list(got.edges(data=True)) == list(want.edges(data=True))


def assert_describes(art, g):
    """The (possibly edited) bundle holds exactly ``g``'s topology."""
    assert sorted(art.nodes) == sorted(g.nodes)
    indptr, indices = art.open_csr()
    nodes, bounds = art.nodes, indptr.tolist()
    edges = {(nodes[i], nodes[j]) for i in range(art.n)
             for j in indices[bounds[i]:bounds[i + 1]].tolist()}
    assert edges == {(u, v) for u, v in g.edges} | \
        {(v, u) for u, v in g.edges}


def assert_same_state(lazy, eager, *, graph, artifacts):
    assert lazy.alive == eager.alive and lazy.members == eager.members
    if artifacts:
        art = lazy.artifacts()
        assert_same_artifacts(art, eager.artifacts())
    if graph:
        g = lazy.graph()
        assert_same_graph(g, eager.graph())
    if graph and artifacts:
        assert_describes(art, g)
    assert (lazy.artifact_rebuilds, lazy.artifact_patches) == \
        (eager.artifact_rebuilds, eager.artifact_patches)


@st.composite
def churn(draw, n, side):
    """Epochs of crash, join, move and drain events over node ids
    ``0..n-1`` plus the joins, and what each epoch reads afterwards."""
    epochs, fresh = [], n
    for _ in range(draw(st.integers(1, 5))):
        events = []
        for _ in range(draw(st.integers(0, 4))):
            kind = draw(st.sampled_from(("crash", "join", "rejoin", "move",
                                         "drain", "bulk")))
            node = draw(st.integers(0, max(fresh - 1, 0)))
            pos = (draw(st.floats(0, side)), draw(st.floats(0, side)))
            if kind == "crash":
                events.append(CrashEvent(node))
            elif kind == "join":
                events.append(JoinEvent(fresh, pos))
                fresh += 1
            elif kind == "rejoin":
                events.append(JoinEvent(node, pos))
            elif kind == "drain":
                events.append(DrainEvent(node, draw(st.sampled_from(
                    (0.25, 0.6, 1.0)))))
            elif kind == "move":
                events.append(MoveEvent({node: pos}))
            else:
                events.append(MoveEvent({
                    v: (min(side, max(0.0, pos[0] + 0.1 * (v % 3))), pos[1])
                    for v in range(fresh)}))
        reads = draw(st.sampled_from(("none", "artifacts", "graph", "both")))
        epochs.append((events, reads))
    return epochs


def apply(state, events):
    """Apply one epoch; the error it raises, if any (a rejoin of a live
    node raises after the events before it are applied)."""
    try:
        state.apply_all(events)
    except GraphError as exc:
        return str(exc)
    return None


class TestAdoption:
    @given(n=st.integers(0, 60), seed=st.integers(0, 10**6), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_deferred_adoption_matches_eager(self, n, seed, data):
        lazy_udg = random_udg(n, density=6.0, seed=seed)
        eager_udg_ = random_udg(n, density=6.0, seed=seed)
        side = float(lazy_udg.points.max()) if n else 1.0
        members = set(range(0, n, 3))
        incremental = data.draw(st.booleans())
        lazy = NetworkState.from_udg(lazy_udg, members=members,
                                     incremental=incremental)
        eager = eager_from_udg(eager_udg_, members=members,
                               incremental=incremental)
        if data.draw(st.booleans()):
            assert_same_state(lazy, eager, graph=False, artifacts=True)
            # Only the rebuild-per-call baseline reads the graph.
            assert (lazy_udg.edge_arrays is not None) == incremental
        for events, reads in data.draw(churn(n, side)):
            assert apply(lazy, events) == apply(eager, events)
            assert_same_state(lazy, eager,
                              graph=reads in ("graph", "both"),
                              artifacts=reads in ("artifacts", "both"))
        assert_same_state(lazy, eager, graph=True, artifacts=True)
        # The deployment's own graph and cached bundle are never edited.
        pristine = eager_udg(lazy_udg.points, 1.0)[0]
        assert_same_nx(lazy_udg.nx, pristine)
        assert_same_artifacts(graph_artifacts(lazy_udg),
                              GraphArtifacts(pristine))

    @pytest.mark.parametrize("events", [
        [JoinEvent(40, (0.5, 0.5))],
        [MoveEvent({3: (0.1, 0.2)})],
        [JoinEvent(40, (0.5, 0.5)), MoveEvent({40: (1.5, 0.5)})],
        [CrashEvent(3), JoinEvent(3, (0.3, 0.3))],
    ])
    def test_first_artifacts_read_after_churn(self, events):
        """The deployment's bundle is adopted only while the topology is
        still the deployment's; after joins or moves the first read
        builds from the patched graph, as the eager adoption did."""
        lazy = NetworkState.from_udg(random_udg(40, seed=3), members={0})
        eager = eager_from_udg(random_udg(40, seed=3), members={0})
        assert apply(lazy, events) == apply(eager, events) is None
        assert_same_state(lazy, eager, graph=False, artifacts=True)
        assert_same_state(lazy, eager, graph=True, artifacts=True)

    @given(seed=st.integers(0, 10**4))
    @settings(max_examples=8, deadline=None)
    def test_maintenance_timelines_match_eager(self, seed):
        def scenario():
            udg = random_udg(150, density=9.0, seed=seed)
            side = float(udg.points.max())
            return Scenario(udg, k=2, epochs=6, seed=seed, streams=[
                RandomCrashes(2.0, seed=seed + 1),
                PoissonJoins(1.0, side, seed=seed + 2),
                FewMoves(side, seed=seed + 3),
                BatteryDecay(0.05, 0.1, seed=seed + 4)])

        def run():
            result = MaintenanceLoop(scenario(), LocalPatchRepair()).run()
            return ([r for r in result.timeline], result.final_members,
                    result.final_live)

        lazy = run()
        with mock.patch.object(NetworkState, "from_udg",
                               classmethod(lambda cls, udg, **kw:
                                           eager_from_udg(udg, **kw))):
            eager = run()
        assert lazy == eager


@st.composite
def bulk_churn(draw, n, side):
    """Epochs around bulk moves over ids ``0..n-1``: bulk moves of every
    positioned node, crashes before them, joins and small moves after
    them, and what each epoch reads afterwards."""
    epochs, fresh = [], n
    for _ in range(draw(st.integers(1, 5))):
        events = []
        for _ in range(draw(st.integers(1, 4))):
            kind = draw(st.sampled_from(("bulk", "bulk", "bulk", "join",
                                         "join", "move", "crash")))
            pos = (draw(st.floats(0, side)), draw(st.floats(0, side)))
            if kind == "bulk":
                shift = draw(st.floats(-0.6, 0.6))
                events.append(MoveEvent({
                    v: (min(side, max(0.0, pos[0] + shift * (v % 5))),
                        (pos[1] + 0.37 * v) % (side + 1e-9))
                    for v in range(fresh)}))
            elif kind == "crash":
                events.append(CrashEvent(draw(st.integers(0, max(fresh - 1,
                                                                 0)))))
            elif kind == "join":
                events.append(JoinEvent(fresh, pos))
                fresh += 1
            else:
                events.append(MoveEvent({draw(st.integers(
                    0, max(fresh - 1, 0))): pos}))
        reads = draw(st.sampled_from(("none", "artifacts", "graph", "both")))
        epochs.append((events, reads))
    return epochs


class TestBulkMoveAdoption:
    """After a bulk move (or on a fresh state) with every node alive
    over ids 0..n-1, the live artifacts adopt a unit disk graph's
    edge-array bundle; :class:`RebuildState` is the oracle."""

    @given(n=st.integers(0, 50), seed=st.integers(0, 10**6),
           deployed=st.booleans(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_bulk_moves_match_rebuild(self, n, seed, deployed, data):
        udg = random_udg(n, density=6.0, seed=seed)
        side = float(udg.points.max()) if n else 1.0
        members = set(range(0, n, 4))
        if deployed:
            new = NetworkState.from_udg(udg, members=members)
            old = rebuild_from_udg(random_udg(n, density=6.0, seed=seed),
                                   members=members)
        else:
            positions = dict(enumerate(map(tuple, udg.points.tolist())))
            new = NetworkState(positions, members=members)
            old = RebuildState(positions, members=members)
        for events, reads in data.draw(bulk_churn(n, side)):
            assert apply(new, events) == apply(old, events)
            assert_same_state(new, old,
                              graph=reads in ("graph", "both"),
                              artifacts=reads in ("artifacts", "both"))
        assert_same_state(new, old, graph=True, artifacts=True)

    @pytest.mark.parametrize("after", [
        [JoinEvent(60, (1.0, 1.0)), JoinEvent(61, (1.4, 1.2))],
        [MoveEvent({3: (1.0, 1.0)}), JoinEvent(60, (1.2, 0.9))],
        [CrashEvent(5), JoinEvent(60, (2.0, 2.0)), MoveEvent({7: (2.1, 2)})],
    ])
    def test_churn_after_an_adopted_bulk_move(self, after):
        """graph() builds the base from the geometry the bundle was
        adopted from, then applies the deferred patches: the order the
        rebuild gave when it built the base at the artifacts read."""
        states = (NetworkState.from_udg(random_udg(60, density=7.0, seed=4)),
                  rebuild_from_udg(random_udg(60, density=7.0, seed=4)))
        for state in states:
            state.apply(MoveEvent({v: (y, x) for v, (x, y)
                                   in state.positions.items()}))
            state.artifacts()
            state.apply_all(after)
        assert_same_state(*states, graph=True, artifacts=True)

    def test_fresh_state_builds_no_networkx(self, no_networkx):
        udg = random_udg(300, seed=5)
        state = NetworkState(dict(enumerate(map(tuple,
                                                udg.points.tolist()))))
        assert_same_artifacts(state.artifacts(), graph_artifacts(udg))
        state.apply(MoveEvent({v: (x + 0.1, y) for v, (x, y) in
                               state.positions.items()}))
        art = state.artifacts()
        moved = UnitDiskGraph(udg.points + [0.1, 0.0])
        assert_same_arrays((art.indptr, art.indices),
                           graph_artifacts(moved).closed_csr_arrays())
        assert state.artifact_rebuilds == 2

    @given(seed=st.integers(0, 10**4), crashes=st.booleans())
    @settings(max_examples=8, deadline=None)
    def test_mobility_timelines_match_rebuild(self, seed, crashes):
        """Mobility epochs with joins (every node alive: the bundle is
        adopted after each move) or with crashes too (the rebuild)."""
        def scenario():
            udg = random_udg(150, density=9.0, seed=seed)
            side = float(udg.points.max())
            streams = [MobilityRewiring(GaussianDrift(0.15, seed=seed + 1),
                                        side, every=2),
                       PoissonJoins(1.0, side, seed=seed + 3)]
            if crashes:
                streams.append(RandomCrashes(1.0, seed=seed + 2))
            return Scenario(udg, k=2, epochs=5, seed=seed, streams=streams)

        def run():
            result = MaintenanceLoop(scenario(), LocalPatchRepair()).run()
            return ([r for r in result.timeline], result.final_members,
                    result.final_live)

        new = run()
        with mock.patch.object(NetworkState, "from_udg",
                               classmethod(lambda cls, udg, **kw:
                                           rebuild_from_udg(udg, **kw))):
            old = run()
        assert new == old


class FewMoves(EventStream):
    """Nudge two live nodes per epoch (below the bulk-move cut-off)."""

    def __init__(self, side, *, seed):
        self.side = side
        self.rng = np.random.default_rng(seed)

    def events_at(self, epoch, state):
        alive = sorted(state.alive)
        if len(alive) < 2:
            return []
        picks = self.rng.choice(len(alive), size=2, replace=False)
        return [MoveEvent({
            alive[i]: tuple(np.clip(np.asarray(state.positions[alive[i]])
                                    + self.rng.uniform(-0.5, 0.5, 2),
                                    0.0, self.side).tolist())
            for i in sorted(picks.tolist())})]
