"""Array-native graph artifacts against their per-node oracles.

:class:`~repro.engine.artifacts.GraphArtifacts` builds its closed CSR in
numpy and :class:`~repro.engine.artifacts.ArtifactDelta` edits it once
per batch.  This module keeps the eager per-node constructor and the
per-event patcher they replaced as oracles (:class:`ReferenceArtifacts`,
:class:`ReferenceDelta`) and pins the fast paths to them, field for
field and position for position, on generated graphs and generated
mixed edit batches — plus the explicit corner cases of one batch: a
crash and rejoin of the same id, a join next to a node that crashes
later, a rewire onto such a node, removing every node, and an empty
batch.  Every batch's returned slot map is pinned to the per-event
replay too.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import _native
from repro.dynamics import (
    LocalPatchRepair,
    MaintenanceLoop,
    NetworkState,
    crash_scenario,
)
from repro.dynamics.events import CrashEvent, JoinEvent, MoveEvent
from repro.engine.artifacts import GraphArtifacts, cache_stats
from repro.errors import GraphError
from repro.graphs.generators import gnp_graph
from repro.graphs.udg import QuasiUnitDiskGraph, random_udg
from repro.types import stable_sorted
from tests.test_scaling import assert_artifacts_match


# ======================================================================
# The oracles: the eager per-node build and the per-event patcher
# ======================================================================

class ReferenceArtifacts:
    """The per-node constructor the array-native build replaced."""

    def __init__(self, graph: nx.Graph):
        self.nodes = list(graph.nodes)
        self.index = {v: i for i, v in enumerate(self.nodes)}
        self.n = len(self.nodes)
        self.m = graph.number_of_edges()
        self.sorted_neighbors = {
            v: tuple(stable_sorted(graph.neighbors(v))) for v in self.nodes
        }
        self.degrees = np.asarray(
            [len(self.sorted_neighbors[v]) for v in self.nodes],
            dtype=np.int64)
        self.delta_max = int(self.degrees.max()) if self.n else 0
        self.closed_nbrs = [
            np.asarray(sorted([self.index[v]]
                              + [self.index[w]
                                 for w in self.sorted_neighbors[v]]),
                       dtype=np.int64)
            for v in self.nodes
        ]

    def closed_csr_arrays(self):
        indptr = np.zeros(self.n + 1, dtype=np.int64)
        if not self.n:
            return indptr, np.zeros(0, dtype=np.int64)
        np.cumsum(self.degrees + 1, out=indptr[1:])
        return indptr, np.concatenate(self.closed_nbrs).astype(np.int64)


class ReferenceDelta:
    """The per-event patcher the batched edit replaced: each operation
    rewrites the node's 1-hop ball of Python tuples and row arrays."""

    def __init__(self, art: ReferenceArtifacts):
        self.art = art
        self.patches = 0

    def _bump(self) -> None:
        art = self.art
        art.delta_max = int(art.degrees.max()) if art.n else 0
        self.patches += 1

    def apply(self, edits) -> None:
        for edit in edits:
            if edit[0] == "remove":
                self.remove_node(edit[1])
            elif edit[0] == "add":
                self.add_node(edit[1], edit[2])
            else:
                self.rewire(edit[1], edit[2])

    def add_node(self, node, neighbors) -> None:
        art = self.art
        nbrs = tuple(stable_sorted(neighbors))
        i = art.n
        art.nodes.append(node)
        art.index[node] = i
        art.sorted_neighbors[node] = nbrs
        art.degrees = np.append(art.degrees, np.int64(len(nbrs)))
        art.closed_nbrs.append(np.asarray(
            sorted([i] + [art.index[w] for w in nbrs]), dtype=np.int64))
        for w in nbrs:
            j = art.index[w]
            art.sorted_neighbors[w] = tuple(
                stable_sorted(art.sorted_neighbors[w] + (node,)))
            art.degrees[j] += 1
            art.closed_nbrs[j] = np.append(art.closed_nbrs[j], np.int64(i))
        art.n += 1
        art.m += len(nbrs)
        self._bump()

    def remove_node(self, node) -> None:
        art = self.art
        i = art.index.pop(node)
        nbrs = art.sorted_neighbors.pop(node)
        for w in nbrs:
            j = art.index[w]
            art.sorted_neighbors[w] = tuple(
                x for x in art.sorted_neighbors[w] if x != node)
            art.degrees[j] -= 1
            arr = art.closed_nbrs[j]
            art.closed_nbrs[j] = arr[arr != i]
        last_i = art.n - 1
        if i != last_i:
            last = art.nodes[last_i]
            art.nodes[i] = last
            art.index[last] = i
            art.degrees[i] = art.degrees[last_i]
            art.closed_nbrs[i] = art.closed_nbrs[last_i]
            for w in art.sorted_neighbors[last] + (last,):
                j = art.index[w]
                arr = art.closed_nbrs[j]
                arr[arr == last_i] = i
                art.closed_nbrs[j] = np.sort(arr)
        art.nodes.pop()
        art.closed_nbrs.pop()
        art.degrees = art.degrees[:last_i].copy()
        art.n -= 1
        art.m -= len(nbrs)
        self._bump()

    def rewire(self, node, neighbors) -> None:
        art = self.art
        i = art.index[node]
        new = tuple(stable_sorted(neighbors))
        old = art.sorted_neighbors[node]
        old_set, new_set = set(old), set(new)
        for w in old_set - new_set:
            j = art.index[w]
            art.sorted_neighbors[w] = tuple(
                x for x in art.sorted_neighbors[w] if x != node)
            art.degrees[j] -= 1
            arr = art.closed_nbrs[j]
            art.closed_nbrs[j] = arr[arr != i]
        for w in new_set - old_set:
            j = art.index[w]
            art.sorted_neighbors[w] = tuple(
                stable_sorted(art.sorted_neighbors[w] + (node,)))
            art.degrees[j] += 1
            art.closed_nbrs[j] = np.sort(
                np.append(art.closed_nbrs[j], np.int64(i)))
        art.sorted_neighbors[node] = new
        art.degrees[i] = len(new)
        art.closed_nbrs[i] = np.asarray(
            sorted([i] + [art.index[w] for w in new]), dtype=np.int64)
        art.m += len(new_set) - len(old_set)
        self._bump()


def assert_same(art: GraphArtifacts, ref: ReferenceArtifacts) -> None:
    """Positional equality of every field the oracle defines."""
    assert art.nodes == ref.nodes
    assert art.index == ref.index
    assert art.n == ref.n
    assert art.m == ref.m
    assert art.delta_max == ref.delta_max
    np.testing.assert_array_equal(art.degrees, ref.degrees)
    assert art.degrees.dtype == np.int64
    for got, want in zip(art.closed_csr_arrays(), ref.closed_csr_arrays()):
        np.testing.assert_array_equal(got, want)
        assert got.dtype == np.int64
    assert art.sorted_neighbors == ref.sorted_neighbors
    assert len(art.closed_nbrs) == len(ref.closed_nbrs)
    for got, want in zip(art.closed_nbrs, ref.closed_nbrs):
        np.testing.assert_array_equal(got, want)
    if all(isinstance(v, int) for v in ref.nodes):
        np.testing.assert_array_equal(art.nodes_array(),
                                      np.asarray(ref.nodes, dtype=np.int64))


# ======================================================================
# Generated graphs and edit batches
# ======================================================================

def _graph(kind: str, n: int, seed: int) -> nx.Graph:
    if kind == "gnp":
        return gnp_graph(n, 0.2, seed=seed)
    if kind == "udg":
        return random_udg(n, density=6.0, seed=seed).nx
    if kind == "qudg":
        pts = np.random.default_rng(seed).uniform(0, 2.5, size=(n, 2))
        return QuasiUnitDiskGraph(pts, alpha=0.6, p_gray=0.5, seed=seed).nx
    if kind == "isolated":
        g = gnp_graph(n, 0.15, seed=seed)
        g.add_nodes_from(range(n, n + 3))
        return g
    if kind == "strings":
        return nx.relabel_nodes(gnp_graph(n, 0.2, seed=seed),
                                {i: f"v{i}" for i in range(n)})
    if kind == "subgraph":
        g = gnp_graph(n + 6, 0.2, seed=seed)
        return g.subgraph([v for v in g if v % 3])
    if kind == "selfloop":
        g = gnp_graph(max(n, 1), 0.2, seed=seed)
        g.add_edge(0, 0)
        return g
    return nx.Graph()  # "empty"


GRAPH_KINDS = ("gnp", "udg", "qudg", "isolated", "strings", "subgraph",
               "selfloop", "empty")

graphs = st.builds(_graph, st.sampled_from(GRAPH_KINDS),
                   st.integers(0, 14), st.integers(0, 2 ** 16))


def _fresh_id(ref: ReferenceArtifacts, counter: list):
    counter[0] += 1
    if ref.nodes and isinstance(ref.nodes[0], str):
        return f"j{counter[0]}"
    return 1000 + counter[0]


def _loops(ref: ReferenceArtifacts):
    return {v for v, nbrs in ref.sorted_neighbors.items() if v in nbrs}


@st.composite
def epochs(draw, ref: ReferenceArtifacts, counter: list):
    """One generated edit batch over ``ref``'s current nodes, replayed
    on a working copy of the node set so every edit is valid when it
    runs.  Removed ids may rejoin the same batch."""
    live = list(ref.nodes)
    gone = []
    loops = _loops(ref)
    edits = []
    for _ in range(draw(st.integers(0, 8))):
        op = draw(st.sampled_from(("remove", "add", "rewire")))
        removable = [v for v in live if v not in loops]
        if op == "remove" and removable:
            v = draw(st.sampled_from(removable))
            live.remove(v)
            gone.append(v)
            edits.append(("remove", v))
        elif op == "rewire" and live:
            v = draw(st.sampled_from(live))
            others = [w for w in live if w != v]
            nbrs = draw(st.lists(st.sampled_from(others), unique=True,
                                 max_size=5)) if others else []
            edits.append(("rewire", v, nbrs))
        else:
            if gone and draw(st.booleans()):
                v = gone.pop(draw(st.integers(0, len(gone) - 1)))
            else:
                v = _fresh_id(ref, counter)
            nbrs = draw(st.lists(st.sampled_from(live), unique=True,
                                 max_size=5)) if live else []
            live.append(v)
            edits.append(("add", v, nbrs))
    return edits


def _pair(graph: nx.Graph):
    art = GraphArtifacts(graph)
    ref = ReferenceArtifacts(graph)
    return art, ref


def assert_slot_map(slots, edits, old_nodes, ref: ReferenceArtifacts,
                    old_csr, version: int, art: GraphArtifacts) -> None:
    """The batch's :class:`SlotMap` against the per-edit replay: a node
    present before the batch keeps its row, at its final slot, unless
    an edit of the batch removed or rewired it."""
    if not edits:
        assert slots is None
        return
    dropped = {e[1] for e in edits if e[0] != "add"}
    final = np.asarray([-1 if v in dropped else ref.index[v]
                        for v in old_nodes], dtype=np.int64)
    src = np.full(ref.n, -1, dtype=np.int64)
    src[final[final >= 0]] = np.flatnonzero(final >= 0)
    for got, want in ((slots.final, final), (slots.src, src)):
        np.testing.assert_array_equal(got, want)
        assert got.dtype == np.int64
    assert slots.indptr is old_csr[0] and slots.indices is old_csr[1]
    assert (slots.version, slots.after) == (version, art.version)


def _apply_both(art, delta, ref, oracle, edits) -> None:
    before = cache_stats()["delta_patches"]
    handed = [a.copy() for a in (*art.closed_csr_arrays(), art.degrees)]
    arrays = [*art.closed_csr_arrays(), art.degrees]
    version, old_nodes = art.version, list(ref.nodes)
    slots = delta.apply(edits)
    oracle.apply(edits)
    assert cache_stats()["delta_patches"] == before + len(edits)
    assert delta.patches == oracle.patches
    # An edit allocates new arrays; what it handed out stays intact.
    for a, copy in zip(arrays, handed):
        np.testing.assert_array_equal(a, copy)
    assert_same(art, ref)
    assert_slot_map(slots, edits, old_nodes, ref, arrays, version, art)


class TestBuild:
    @settings(max_examples=60)
    @given(graphs)
    def test_build_matches_oracle(self, g):
        art, ref = _pair(g)
        assert_same(art, ref)

    def test_self_loop_row_holds_the_node_twice(self):
        g = nx.path_graph(3)
        g.add_edge(1, 1)
        art = GraphArtifacts(g)
        indptr, indices = art.closed_csr_arrays()
        assert indices[indptr[1]:indptr[2]].tolist() == [0, 1, 1, 2]
        assert art.m == 3 and art.degrees.tolist() == [1, 3, 1]
        # The open CSR drops exactly one diagonal entry per row.
        oi, ox = art.open_csr()
        assert ox[oi[1]:oi[2]].tolist() == [0, 1, 2]

    def test_open_csr_is_closed_minus_diagonal(self):
        g = gnp_graph(40, 0.2, seed=3)
        art = GraphArtifacts(g)
        oi, ox = art.open_csr()
        for i, v in enumerate(art.nodes):
            row = ox[oi[i]:oi[i + 1]].tolist()
            assert row == sorted(row)
            assert {art.nodes[j] for j in row} == set(g.neighbors(v))

    def test_sparse_integer_ids(self):
        g = nx.relabel_nodes(gnp_graph(20, 0.3, seed=1),
                             {i: 10 ** 12 + 7 * i for i in range(20)})
        art, ref = _pair(g)
        assert_same(art, ref)


class TestBatchedEdits:
    """Batches against the per-event oracle, committed by the session's
    kernel provider; the subclasses force each provider."""

    #: ``REPRO_KERNEL_BACKEND`` for the class (None: the session's).
    PROVIDER = None

    @pytest.fixture(autouse=True)
    def _provider(self, monkeypatch):
        if self.PROVIDER == "native" and not _native.available():
            pytest.skip("compiled kernels unavailable")
        if self.PROVIDER is not None:
            monkeypatch.setenv("REPRO_KERNEL_BACKEND", self.PROVIDER)

    # The subclasses run this one method under another provider; an
    # example does not depend on which instance runs it.
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.differing_executors])
    @given(graphs, st.data())
    def test_epochs_match_per_event_oracle(self, g, data):
        art, ref = _pair(g)
        delta, oracle = art.delta_patcher(), ReferenceDelta(ref)
        counter = [0]
        for _ in range(data.draw(st.integers(1, 4))):
            edits = data.draw(epochs(ref, counter))
            _apply_both(art, delta, ref, oracle, edits)

    @pytest.fixture
    def pair(self):
        art, ref = _pair(gnp_graph(12, 0.3, seed=4))
        return art, art.delta_patcher(), ref, ReferenceDelta(ref)

    def test_crash_and_rejoin_same_id(self, pair):
        art, delta, ref, oracle = pair
        _apply_both(art, delta, ref, oracle,
                    [("remove", 3), ("add", 3, [0, 7]), ("remove", 0)])

    def test_join_next_to_later_crash(self, pair):
        art, delta, ref, oracle = pair
        _apply_both(art, delta, ref, oracle,
                    [("add", 50, [2, 5, 11]), ("remove", 5),
                     ("add", 51, [50, 2]), ("remove", 50)])

    def test_rewire_onto_later_crash(self, pair):
        art, delta, ref, oracle = pair
        _apply_both(art, delta, ref, oracle,
                    [("add", 50, [1]), ("rewire", 4, [50, 2, 9]),
                     ("remove", 50), ("rewire", 9, [4]), ("remove", 11)])

    def test_epoch_removing_every_node(self, pair):
        art, delta, ref, oracle = pair
        _apply_both(art, delta, ref, oracle,
                    [("remove", v) for v in list(ref.nodes)])
        assert art.n == 0 and art.m == 0 and art.delta_max == 0
        _apply_both(art, delta, ref, oracle, [("add", 7, []),
                                              ("add", 8, [7])])

    def test_empty_epoch(self, pair):
        art, delta, ref, oracle = pair
        version = art.version
        _apply_both(art, delta, ref, oracle, [])
        assert art.version == version

    def test_tail_removals_and_joins(self, pair):
        art, delta, ref, oracle = pair
        tail = ref.nodes[-3:]
        _apply_both(art, delta, ref, oracle,
                    [("remove", v) for v in reversed(tail)]
                    + [("add", 60, [0, 1]), ("add", 61, [60])])

    def test_invalid_edit_keeps_the_prefix(self, pair):
        art, delta, ref, oracle = pair
        with pytest.raises(GraphError, match="not present"):
            delta.apply([("remove", 2), ("add", 40, [3]), ("remove", 2),
                         ("remove", 5)])
        oracle.apply([("remove", 2), ("add", 40, [3])])
        assert delta.patches == 2
        assert_same(art, ref)

    def test_unknown_edit_kind_rejected(self, pair):
        _, delta, _, _ = pair
        with pytest.raises(GraphError, match="unknown artifact edit"):
            delta.apply([("move", 1)])


class TestBatchedEditsNative(TestBatchedEdits):
    """The same batches through the compiled ``csr_patch`` commit."""

    PROVIDER = "native"


class TestBatchedEditsNumpy(TestBatchedEdits):
    """The same batches through the numpy reference commit
    (``_Replay._resort``)."""

    PROVIDER = "numpy"


class TestDuplicateNeighbors:
    def test_add_node_rejects_duplicates(self):
        art = GraphArtifacts(nx.path_graph(4))
        with pytest.raises(GraphError, match="duplicate neighbor 0"):
            art.delta_patcher().add_node(9, [0, 0])
        # Rejected before any change: the bundle still mirrors the path.
        assert_same(art, ReferenceArtifacts(nx.path_graph(4)))

    def test_rewire_rejects_duplicates(self):
        art = GraphArtifacts(nx.path_graph(5))
        with pytest.raises(GraphError, match="duplicate neighbor 1"):
            art.delta_patcher().rewire(4, [1, 1])
        assert art.degrees.tolist() == [1, 2, 2, 2, 1]


# ======================================================================
# The live artifacts of NetworkState and the maintenance loop
# ======================================================================

def _positions(n: int, seed: int):
    pts = np.random.default_rng(seed).uniform(0, 3.0, size=(n, 2))
    return {i: (float(x), float(y)) for i, (x, y) in enumerate(pts)}


class TestNetworkStateStreams:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 16), st.integers(8, 40), st.data())
    def test_crash_join_move_streams(self, seed, n, data):
        state = NetworkState(_positions(n, seed), radius=1.0)
        state.artifacts()
        rng = np.random.default_rng(seed)
        fresh = n
        for _ in range(data.draw(st.integers(1, 4))):
            live = sorted(state.alive)
            events = []
            for _ in range(data.draw(st.integers(0, 6))):
                kind = data.draw(st.sampled_from(("crash", "join", "move")))
                if kind == "crash" and live:
                    events.append(CrashEvent(data.draw(st.sampled_from(live))))
                elif kind == "join":
                    dead = sorted(set(state.positions) - state.alive
                                  - {e.node for e in events
                                     if isinstance(e, JoinEvent)})
                    if dead and data.draw(st.booleans()):
                        node = data.draw(st.sampled_from(dead))
                    else:
                        node, fresh = fresh, fresh + 1
                    events.append(JoinEvent(
                        node, tuple(rng.uniform(0, 3.0, size=2))))
                elif live:
                    v = data.draw(st.sampled_from(live))
                    x, y = state.positions[v]
                    events.append(MoveEvent(
                        positions={v: (x + 0.2, y - 0.1)}))
            patches = state.artifact_patches
            state.apply_all(events)
            art = state.artifacts()
            assert_artifacts_match(art, state.graph())
            assert state.artifact_patches >= patches

    def test_apply_is_a_one_event_batch(self):
        state = NetworkState(_positions(20, 1), radius=1.0)
        art = state.artifacts()
        state.apply(CrashEvent(3))
        state.apply(JoinEvent(3, (0.5, 0.5)))
        assert state.artifacts() is art
        assert state.artifact_patches == 2
        assert_artifacts_match(art, state.graph())

    def test_failing_event_flushes_the_earlier_edits(self):
        state = NetworkState(_positions(20, 2), radius=1.0)
        art = state.artifacts()
        with pytest.raises(GraphError, match="already exists"):
            state.apply_all([CrashEvent(4), JoinEvent(5, (1.0, 1.0))])
        assert 4 not in art.index
        assert_artifacts_match(art, state.graph())


class TestMaintenanceHotPath:
    @pytest.mark.parametrize("shards", [None, 2])
    def test_loop_never_builds_per_node_views(self, shards, monkeypatch):
        def forbidden(self):
            raise AssertionError("per-node artifact view built")

        scenario = crash_scenario(n=300, k=2, epochs=6, seed=5)
        monkeypatch.setattr(GraphArtifacts, "sorted_neighbors",
                            property(forbidden))
        monkeypatch.setattr(GraphArtifacts, "closed_nbrs",
                            property(forbidden))
        loop = MaintenanceLoop(scenario, LocalPatchRepair(), shards=shards)
        result = loop.run()
        assert result.always_covered
        assert sum(r.crashes for r in result.timeline) > 0
