"""Unit tests for the asynchronous execution layer (alpha synchronizer)."""

from dataclasses import dataclass

import networkx as nx
import pytest

from repro.core.fractional import FractionalNode, fractional_kmds
from repro.core.rounding import RoundingNode, randomized_rounding
from repro.core.udg import UDGNode, solve_kmds_udg
from repro.errors import SimulationError
from repro.graphs.generators import gnp_graph
from repro.graphs.properties import feasible_coverage, max_degree
from repro.graphs.udg import random_udg
from repro.simulation.asynchrony import (
    exponential_delays,
    run_protocol_async,
    uniform_delays,
)
from repro.simulation.messages import Message
from repro.simulation.network import SynchronousNetwork
from repro.simulation.node import NodeProcess


@dataclass(frozen=True)
class Token(Message):
    value: int = 0
    SCHEMA = (("value", "count"),)


class Accumulator(NodeProcess):
    """Sums neighbor tokens over `rounds` rounds — order-sensitive state
    that would corrupt if the synchronizer mixed rounds."""

    def __init__(self, node_id, rounds):
        super().__init__(node_id)
        self.rounds = rounds
        self.history = []

    def run(self, ctx):
        value = self.node_id
        for _ in range(self.rounds):
            ctx.broadcast(Token(value=value))
            inbox = yield
            value = value + sum(m.value for _, m in inbox)
            self.history.append(value)


class EarlyExit(NodeProcess):
    """Nodes with odd ids leave after one round; evens run three."""

    def run(self, ctx):
        ctx.broadcast(Token(value=1))
        inbox = yield
        self.round1 = len(inbox)
        if self.node_id % 2 == 1:
            return
        for _ in range(2):
            ctx.broadcast(Token(value=2))
            inbox = yield
        self.final = len(inbox)


def _sync_reference(graph, make_procs):
    from repro.simulation.runner import run_protocol

    procs = make_procs()
    net = SynchronousNetwork(graph, procs, seed=0)
    run_protocol(net)
    return procs


class TestEquivalence:
    def test_accumulator_matches_sync(self):
        g = gnp_graph(15, 0.3, seed=2)
        make = lambda: [Accumulator(v, 4) for v in g.nodes]
        sync_procs = _sync_reference(g, make)
        async_procs = make()
        net = SynchronousNetwork(g, async_procs, seed=0)
        run_protocol_async(net, delay_seed=5)
        for s, a in zip(sync_procs, async_procs):
            assert s.history == a.history, s.node_id

    def test_early_exit_nodes_do_not_deadlock(self):
        g = nx.cycle_graph(8)
        procs = [EarlyExit(v) for v in g.nodes]
        net = SynchronousNetwork(g, procs, seed=0)
        stats = run_protocol_async(net, delay_seed=1)
        assert all(p.finished for p in procs)
        assert stats.rounds >= 3

    @pytest.mark.parametrize("delay_seed", [0, 1, 2])
    def test_algorithm1_identical_under_any_delays(self, delay_seed):
        g = gnp_graph(20, 0.25, seed=4)
        cov = feasible_coverage(g, 2)
        delta = max_degree(g)
        procs = [FractionalNode(v, cov[v], delta, 2, True) for v in g.nodes]
        net = SynchronousNetwork(g, procs, seed=3)
        run_protocol_async(net, delay_seed=delay_seed)
        ref = fractional_kmds(g, coverage=cov, t=2, mode="message", seed=3)
        for p in procs:
            assert p.x == pytest.approx(ref.x[p.node_id], abs=1e-12)
            assert p.z == pytest.approx(ref.z[p.node_id], abs=1e-12)

    def test_algorithm2_identical(self):
        g = gnp_graph(20, 0.25, seed=5)
        cov = feasible_coverage(g, 2)
        frac = fractional_kmds(g, coverage=cov, t=2, compute_duals=False)
        delta = max_degree(g)
        procs = [RoundingNode(v, cov[v], delta, frac.x, "random")
                 for v in g.nodes]
        net = SynchronousNetwork(g, procs, seed=7)
        run_protocol_async(net, delay_seed=2)
        members_async = {p.node_id for p in procs if p.member}
        ref = randomized_rounding(g, frac.x, coverage=cov, mode="message",
                                  seed=7)
        assert members_async == ref.members

    def test_algorithm3_identical(self):
        udg = random_udg(60, density=9.0, seed=8)
        procs = [UDGNode(v, 2, 60, "random", 61) for v in range(60)]
        net = SynchronousNetwork(udg, procs, seed=4)
        run_protocol_async(net, delay_seed=9)
        members = {p.node_id for p in procs if p.leader}
        ref = solve_kmds_udg(udg, k=2, mode="message", seed=4)
        assert members == ref.members


class TestAccounting:
    def _run(self, **kw):
        g = gnp_graph(12, 0.4, seed=1)
        procs = [Accumulator(v, 3) for v in g.nodes]
        net = SynchronousNetwork(g, procs, seed=0)
        return run_protocol_async(net, **kw)

    def test_payload_count_matches_sync_schedule(self):
        g = gnp_graph(12, 0.4, seed=1)
        m2 = 2 * g.number_of_edges()
        stats = self._run(delay_seed=0)
        assert stats.payload_messages == 3 * m2

    def test_control_overhead_positive(self):
        stats = self._run(delay_seed=0)
        # One ack per payload plus safety broadcasts.
        assert stats.control_messages >= stats.payload_messages

    def test_virtual_time_scales_with_delay(self):
        fast = self._run(delay=uniform_delays(0.1, 0.2), delay_seed=3)
        slow = self._run(delay=uniform_delays(10.0, 20.0), delay_seed=3)
        assert slow.virtual_time > 20 * fast.virtual_time

    def test_rounds_tracked(self):
        stats = self._run(delay_seed=0)
        assert stats.rounds >= 3
        assert stats.total_messages == \
            stats.payload_messages + stats.control_messages


class TestValidation:
    def test_bad_delay_distributions(self):
        with pytest.raises(SimulationError):
            exponential_delays(0.0)
        with pytest.raises(SimulationError):
            uniform_delays(2.0, 1.0)
        with pytest.raises(SimulationError):
            uniform_delays(-1.0, 1.0)

    def test_max_rounds_guard(self):
        class Forever(NodeProcess):
            def run(self, ctx):
                while True:
                    ctx.broadcast(Token(value=0))
                    yield

        g = nx.path_graph(3)
        procs = [Forever(v) for v in g.nodes]
        net = SynchronousNetwork(g, procs, seed=0)
        with pytest.raises(SimulationError, match="exceeded"):
            run_protocol_async(net, delay_seed=0, max_rounds=5)

    def test_non_generator_rejected(self):
        class Bad(NodeProcess):
            def run(self, ctx):
                return 42

        g = nx.path_graph(2)
        net = SynchronousNetwork(g, [Bad(0), Bad(1)], seed=0)
        with pytest.raises(SimulationError, match="generator"):
            run_protocol_async(net)
