"""Unit tests for the SynchronousNetwork topology/delivery layer."""

import networkx as nx
import pytest

from repro.core.fractional import ColorMsg
from repro.errors import GeometryError, ProtocolViolationError, SimulationError
from repro.graphs.udg import random_udg
from repro.simulation.network import SynchronousNetwork
from repro.simulation.node import NodeProcess
from repro.types import stable_sorted


class Idle(NodeProcess):
    def run(self, ctx):
        yield


def _net(graph, **kw):
    return SynchronousNetwork(graph, [Idle(v) for v in graph.nodes], **kw)


class TestConstruction:
    def test_accepts_nx_graph(self, triangle):
        net = _net(triangle)
        assert net.n == 3

    def test_accepts_udg_wrapper(self):
        udg = random_udg(20, seed=0)
        net = SynchronousNetwork(udg, [Idle(v) for v in range(20)])
        assert net.n == 20
        assert net.is_geometric

    def test_rejects_non_graph(self):
        with pytest.raises(SimulationError, match="expected a networkx.Graph"):
            SynchronousNetwork([1, 2, 3], [])

    def test_rejects_missing_process(self, triangle):
        with pytest.raises(SimulationError, match="no process supplied"):
            SynchronousNetwork(triangle, [Idle(0), Idle(1)])

    def test_rejects_unknown_process(self, triangle):
        procs = [Idle(v) for v in triangle.nodes] + [Idle(99)]
        with pytest.raises(SimulationError, match="unknown node"):
            SynchronousNetwork(triangle, procs)

    def test_rejects_duplicate_process(self, triangle):
        procs = [Idle(0), Idle(0), Idle(1), Idle(2)]
        with pytest.raises(SimulationError, match="duplicate"):
            SynchronousNetwork(triangle, procs)


class TestGeometry:
    def test_plain_graph_not_geometric(self, triangle):
        assert not _net(triangle).is_geometric

    def test_distance_requires_positions(self, triangle):
        with pytest.raises(GeometryError):
            _net(triangle).distance(0, 1)

    def test_neighbors_within_requires_positions(self, triangle):
        with pytest.raises(GeometryError):
            _net(triangle).neighbors_within(0, 0.5)

    def test_distance_matches_udg(self):
        udg = random_udg(30, seed=3)
        net = SynchronousNetwork(udg, [Idle(v) for v in range(30)])
        for u, v in list(udg.nx.edges)[:10]:
            assert net.distance(u, v) == pytest.approx(udg.distance(u, v))

    def test_neighbors_within_subset_of_neighbors(self):
        udg = random_udg(50, seed=4)
        net = SynchronousNetwork(udg, [Idle(v) for v in range(50)])
        for v in range(10):
            close = set(net.neighbors_within(v, 0.4))
            assert close <= set(udg.nx.neighbors(v))
            for w in close:
                assert net.distance(v, w) <= 0.4

    def test_radius_comes_from_the_wrapper(self, triangle):
        udg = random_udg(20, radius=0.3, seed=5)
        net = SynchronousNetwork(udg, [Idle(v) for v in range(20)])
        assert net.radius == net.make_context(0).radius == 0.3
        assert _net(triangle).radius == 1.0


class TestMessaging:
    def test_enqueue_to_non_neighbor_raises(self, path4):
        net = _net(path4)
        ctx = net.make_context(0)
        with pytest.raises(ProtocolViolationError, match="non-neighbor"):
            ctx.send(3, ColorMsg(gray=True))

    def test_non_message_payload_rejected(self, path4):
        net = _net(path4)
        ctx = net.make_context(0)
        with pytest.raises(ProtocolViolationError, match="non-Message"):
            ctx.send(1, "hello")

    def test_broadcast_reaches_all_neighbors(self, path4):
        net = _net(path4)
        ctx = net.make_context(1)
        ctx.broadcast(ColorMsg(gray=False))
        sent = net.drain_batch().expand()
        assert {dest for _, dest, _ in sent} == {0, 2}

    def test_drain_batch_empties(self, path4):
        net = _net(path4)
        ctx = net.make_context(1)
        ctx.broadcast(ColorMsg(gray=False))
        net.drain_batch()
        assert net.drain_batch().is_empty()

    def test_deliver_groups_by_dest(self, path4):
        from repro.simulation.transport import explicit_batch

        net = _net(path4)
        msgs = [(0, 1, ColorMsg(gray=True)), (2, 1, ColorMsg(gray=False))]
        inboxes, _ = explicit_batch(msgs, net.sorted_neighbors).deliver()
        assert [src for src, _ in inboxes[1]] == [0, 2]

    def test_full_broadcast_inbox_in_send_order_on_mixed_labels(self):
        # Mixed labels sort by repr, so the senders go '3', 10, 2, 5,
        # while the int neighbors of '3' sort as [2, 10] on their own.
        # A full-broadcast round must hand '3' its inbox in send order,
        # as the scatter path (any round with loss or crashes) does.
        g = nx.Graph([(2, 10), (2, "3"), (10, "3"), (2, 5)])
        net = _net(g)
        order = stable_sorted(g.nodes)
        assert order == ["3", 10, 2, 5]

        def inboxes(plan):
            for v in order:
                net.make_context(v).broadcast(ColorMsg(gray=False))
            batch = net.drain_batch()
            if not plan:
                batch.plan = None
            boxes, _ = batch.deliver()
            return {v: [src for src, _ in box] for v, box in boxes.items()}

        full = inboxes(plan=True)
        assert full["3"] == [10, 2]
        assert full == inboxes(plan=False)

    def test_sorted_neighbors_stable(self, path4):
        net = _net(path4)
        assert net.sorted_neighbors(1) == (0, 2)
        assert net.sorted_neighbors(1) == (0, 2)


class TestStrictMessageBudget:
    def test_within_budget_passes(self, path4):
        import math

        from repro.simulation.runner import run_protocol
        from repro.core.fractional import ColorMsg

        class Chatty(NodeProcess):
            def run(self, ctx):
                ctx.broadcast(ColorMsg(gray=True))
                yield

        budget = 8 * math.ceil(math.log2(5))
        net = SynchronousNetwork(path4, [Chatty(v) for v in path4.nodes],
                                 strict_message_bits=budget)
        run_protocol(net)

    def test_oversized_message_rejected(self, path4):
        from repro.core.fractional import XUpdateMsg

        net = SynchronousNetwork(path4, [Idle(v) for v in path4.nodes],
                                 strict_message_bits=3)
        ctx = net.make_context(0)
        with pytest.raises(ProtocolViolationError, match="strict budget"):
            ctx.send(1, XUpdateMsg(x=0.1, x_plus=0.1, dyn=1))

    def test_all_core_protocols_fit_16_log_n(self):
        """Enforce (not just measure) the paper's message budget on all
        three algorithms."""
        import math

        from repro.core.fractional import FractionalNode
        from repro.core.udg import UDGNode
        from repro.graphs.properties import feasible_coverage, max_degree
        from repro.graphs.generators import gnp_graph
        from repro.simulation.runner import run_protocol

        g = gnp_graph(40, 0.15, seed=1)
        cov = feasible_coverage(g, 2)
        budget = 16 * math.ceil(math.log2(41))
        procs = [FractionalNode(v, cov[v], max_degree(g), 2, True)
                 for v in g.nodes]
        run_protocol(SynchronousNetwork(g, procs, seed=0,
                                        strict_message_bits=budget))

        udg = random_udg(40, density=9.0, seed=2)
        procs = [UDGNode(v, 2, 40, "random", 41) for v in range(40)]
        run_protocol(SynchronousNetwork(udg, procs, seed=0,
                                        strict_message_bits=budget),
                     max_rounds=500)
