"""Lane runs: message mode without per-node objects.

``execute(program, "message")`` hands a program's node parameters to the
columnar plane as lane arrays (:class:`repro.engine.program.Lanes`) and
reads the result off the stepper's final arrays.  These tests pin that
such a run builds no :class:`~repro.simulation.node.NodeProcess`, never
loads node positions or reads the per-node neighbor view, still enters
``columnar.try_columnar``, and equals the per-node oracle; that the
CSR-built :class:`MessagePlan` equals the per-node builder it replaced
(kept here as the oracle); and that the network reads positions only on
first use.
"""

from __future__ import annotations

from types import SimpleNamespace

import networkx as nx
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.jrs import JRSProgram
from repro.core.fractional import (FractionalNode, FractionalProgram,
                                   _resolve_instance)
from repro.core.rounding import RoundingProgram
from repro.core.udg import UDGProgram
from repro.engine import execute
from repro.engine.artifacts import GraphArtifacts, graph_artifacts
from repro.graphs.properties import feasible_coverage
from repro.graphs.udg import random_udg
from repro.simulation import columnar
from repro.simulation.columnar import MessagePlan, lane_order
from repro.simulation.faults import CrashFaultInjector, MessageLossInjector
from repro.simulation.network import SynchronousNetwork
from repro.simulation.node import NodeProcess
from repro.types import stable_sorted

STATS = ("rounds", "messages_sent", "bits_sent", "max_message_bits")


def _programs():
    """One program per registered lane stepper, on a 120-node UDG."""
    udg = random_udg(120, density=8.0, seed=3)
    g = udg.nx
    lp = _resolve_instance(g, None, feasible_coverage(g, 2))
    frac = execute(FractionalProgram(lp, 2, False), "direct")
    return {
        "alg1-duals": FractionalProgram(lp, 2, True),
        "alg1-plain": FractionalProgram(lp, 3, False),
        "alg2": RoundingProgram(lp, frac.x, "random", 4),
        "alg3": UDGProgram(udg, 2, "random", 5),
        "jrs": JRSProgram(graph_artifacts(g), feasible_coverage(g, 2),
                          "closed", 6, 10_000),
    }


def _view(result):
    stats = tuple(getattr(result.stats, f) for f in STATS)
    if hasattr(result, "members"):
        return result.members, result.details, stats
    return (result.x, result.y, result.z, result.alpha, result.beta, stats)


def _injectors(name):
    if name == "jrs":  # the JRS stepper models no injector
        return []
    return [CrashFaultInjector({3: [0, 1]}), MessageLossInjector(0.1, seed=2)]


@pytest.mark.parametrize("name", sorted(_programs()))
def test_lane_run_builds_no_process_and_reads_no_position(name, monkeypatch):
    program = _programs()[name]
    want = _view(execute(program, "message", seed=7,
                         injectors=_injectors(name), reference=True))

    def refuse(*args, **kwargs):
        raise AssertionError("a lane run built per-node state")

    entered = []
    try_columnar = columnar.try_columnar

    def counting(*args, **kwargs):
        stats = try_columnar(*args, **kwargs)
        entered.append(stats is not None)
        return stats

    monkeypatch.setattr(NodeProcess, "__init__", refuse)
    monkeypatch.setattr(SynchronousNetwork, "_load_positions", refuse)
    monkeypatch.setattr(GraphArtifacts, "sorted_neighbors", property(refuse))
    monkeypatch.setattr(columnar, "try_columnar", counting)
    got = _view(execute(program, "message", seed=7,
                        injectors=_injectors(name)))
    assert got == want
    assert entered == [True]


def test_declined_lane_run_takes_the_per_node_loop(monkeypatch):
    """A run the plane declines (here: JRS under loss) asks the plane
    once, then runs the processes."""
    program = _programs()["jrs"]
    entered = []
    try_columnar = columnar.try_columnar

    def counting(*args, **kwargs):
        stats = try_columnar(*args, **kwargs)
        entered.append(stats is not None)
        return stats

    monkeypatch.setattr(columnar, "try_columnar", counting)
    got = _view(execute(program, "message", seed=1,
                        injectors=[MessageLossInjector(0.0, seed=1)]))
    want = _view(execute(program, "message", seed=1, reference=True))
    assert got == want
    assert entered == [False]


def test_program_subclass_with_own_processes_runs_them():
    """A subclass that overrides ``processes`` below ``lanes`` gets its
    own processes (and the exact-type rule then sends them to the
    per-node loop)."""
    built = []

    class TracedNode(FractionalNode):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self.node_id)

    class TracedProgram(FractionalProgram):
        def processes(self):
            return [TracedNode(p.node_id, p.k_i, p.delta, p.t,
                               p.compute_duals)
                    for p in super().processes()]

    g = nx.gnp_random_graph(20, 0.3, seed=1)
    lp = _resolve_instance(g, None, feasible_coverage(g, 1))
    got = execute(TracedProgram(lp, 2, True), "message", seed=0)
    want = execute(FractionalProgram(lp, 2, True), "message", seed=0)
    assert sorted(built) == sorted(g.nodes)
    assert (got.x, got.alpha) == (want.x, want.alpha)


# ----------------------------------------------------------------------
# MessagePlan: the CSR build vs the per-node builder it replaced
# ----------------------------------------------------------------------

def reference_plan(artifacts) -> SimpleNamespace:
    """The per-node :class:`MessagePlan` builder: lanes in stable order,
    each row's destinations read from the ``sorted_neighbors`` view with
    one ``np.fromiter`` per node, then the receiver-major view."""
    nodes = stable_sorted(artifacts.nodes)
    lane_of = {v: i for i, v in enumerate(nodes)}
    n = len(nodes)
    deg = np.empty(n, dtype=np.int64)
    chunks = []
    for i, v in enumerate(nodes):
        nbrs = artifacts.sorted_neighbors[v]
        deg[i] = len(nbrs)
        chunks.append(np.fromiter((lane_of[w] for w in nbrs),
                                  dtype=np.int64, count=len(nbrs)))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(deg, out=indptr[1:])
    edst = (np.concatenate(chunks) if chunks
            else np.zeros(0, dtype=np.int64))
    esrc = np.repeat(np.arange(n, dtype=np.int64), deg)
    E = int(indptr[-1])
    rperm = np.argsort(edst, kind="stable")
    rpos = np.empty_like(rperm)
    rpos[rperm] = np.arange(E, dtype=np.int64)
    rindptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(edst, minlength=n), out=rindptr[1:])
    return SimpleNamespace(
        nodes=nodes, lane_of=lane_of, n=n, deg=deg, indptr=indptr,
        edst=edst, esrc=esrc, E=E, rperm=rperm, rpos=rpos,
        rsrc=esrc[rperm], rindptr=rindptr,
        rdst=np.repeat(np.arange(n, dtype=np.int64), np.diff(rindptr)))


ARRAYS = ("deg", "indptr", "esrc", "edst", "rperm", "rpos", "rsrc",
          "rindptr", "rdst")


@st.composite
def labelled_graphs(draw):
    n = draw(st.integers(0, 40))
    g = nx.gnp_random_graph(n, draw(st.sampled_from((0.0, 0.1, 0.3, 0.7))),
                            seed=draw(st.integers(0, 2 ** 16)))
    if n and draw(st.booleans()):
        g.add_edge(0, 0)  # a self-loop: the node is its own neighbor
    labels = draw(st.sampled_from(("int", "shuffled", "string", "mixed")))
    perm = draw(st.permutations(range(n)))
    if labels == "shuffled":
        # Non-identity lane order: insertion order differs from id order.
        h = nx.Graph()
        h.add_nodes_from(perm)
        h.add_edges_from(g.edges)
        g = h
    elif labels == "string":
        g = nx.relabel_nodes(g, {v: f"v{perm[v]}" for v in g.nodes})
    elif labels == "mixed":
        g = nx.relabel_nodes(g, {v: (str(v) if v % 4 == 0 else 100 - v)
                                 for v in g.nodes})
    if draw(st.booleans()):
        keep = draw(st.lists(st.sampled_from(list(g.nodes)), unique=True)) \
            if n else []
        g = g.subgraph(keep)
    return g


@settings(deadline=None, max_examples=150,
          suppress_health_check=[HealthCheck.too_slow])
@given(graph=labelled_graphs())
def test_message_plan_equals_per_node_builder(graph):
    art = graph_artifacts(graph)
    plan, ref = MessagePlan(art), reference_plan(art)
    assert plan.nodes == ref.nodes
    assert plan.lane_of == ref.lane_of
    assert (plan.n, plan.E) == (ref.n, ref.E)
    assert [art.nodes[i] for i in plan.order.tolist()] == ref.nodes
    assert lane_order(art)[0] == ref.nodes
    rows_agree = np.array_equal(plan.edst, ref.edst)
    # Only mixed labels can order a row differently from the lanes, and
    # the plan then says so (the columnar plane declines the run).
    assert plan.exact == rows_agree
    if rows_agree:
        for name in ARRAYS:
            assert np.array_equal(getattr(plan, name), getattr(ref, name)), \
                name


def test_mixed_labels_with_disagreeing_rows_take_the_per_node_loop():
    """Labels 1, 2, 10 sort naturally inside a row but by ``repr`` in
    the lane order; the steppers would read that row in the wrong
    order, so the plane declines and the result is the oracle's."""
    g = nx.Graph([("a", 2), ("a", 10), (2, 10), (1, 2), ("b", 1)])
    plan = MessagePlan(graph_artifacts(g))
    assert not plan.exact
    lp = _resolve_instance(g, None, feasible_coverage(g, 2))
    x = {v: 0.1 for v in g.nodes}
    program = RoundingProgram(lp, x, "random", 3)
    for seed in range(20):
        got = execute(program, "message", seed=seed)
        want = execute(program, "message", seed=seed, reference=True)
        assert got.members == want.members


# ----------------------------------------------------------------------
# Lazy geometry
# ----------------------------------------------------------------------

class _Idle(NodeProcess):
    def run(self, ctx):
        yield


def test_positions_load_on_first_geometric_query(monkeypatch):
    udg = random_udg(30, density=6.0, seed=2)
    loads = []
    load = SynchronousNetwork._load_positions

    def counting(self):
        loads.append(1)
        return load(self)

    monkeypatch.setattr(SynchronousNetwork, "_load_positions", counting)
    net = SynchronousNetwork(udg.nx, [_Idle(v) for v in range(udg.n)])
    assert loads == []
    u, v = next(iter(udg.nx.edges))
    assert net.distance(u, v) == pytest.approx(float(np.hypot(
        *np.subtract(udg.nx.nodes[u]["pos"], udg.nx.nodes[v]["pos"]))))
    assert net.is_geometric
    assert net.neighbors_within(u, 10.0) == tuple(udg.nx.neighbors(u))
    assert loads == [1]
