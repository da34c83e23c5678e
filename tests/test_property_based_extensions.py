"""Property-based tests (hypothesis) for the extension subsystems:
weighted solvers, apps layer, synchronizers, deployments."""

import networkx as nx
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps.backbone import build_backbone, is_connected_backbone
from repro.apps.scheduling import assign_slots, verify_schedule
from repro.baselines.greedy import greedy_kmds
from repro.core.fractional import FractionalNode, fractional_kmds
from repro.core.verify import is_k_dominating_set
from repro.graphs.properties import feasible_coverage, max_degree
from repro.graphs.udg import NoisySensingUDG, UnitDiskGraph
from repro.simulation.asynchrony import run_protocol_async
from repro.simulation.beta import run_protocol_beta
from repro.simulation.network import SynchronousNetwork
from repro.weighted import (
    solve_weighted_kmds,
    weighted_greedy_kmds,
    weighted_lp_optimum,
)

COMMON = dict(deadline=None,
              suppress_health_check=[HealthCheck.too_slow])


@st.composite
def graphs(draw, max_n=12):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    mask = draw(st.lists(st.booleans(), min_size=len(pairs),
                         max_size=len(pairs)))
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(p for p, keep in zip(pairs, mask) if keep)
    return g


@st.composite
def weighted_graphs(draw, max_n=10):
    g = draw(graphs(max_n=max_n))
    weights = {
        v: draw(st.floats(0.5, 20.0, allow_nan=False, allow_infinity=False))
        for v in g.nodes
    }
    return g, weights


@st.composite
def udgs(draw, max_n=10):
    n = draw(st.integers(min_value=1, max_value=max_n))
    coords = draw(st.lists(
        st.tuples(st.floats(0, 3, allow_nan=False, allow_infinity=False),
                  st.floats(0, 3, allow_nan=False, allow_infinity=False)),
        min_size=n, max_size=n))
    return UnitDiskGraph(coords)


class TestWeightedProperties:
    @given(gw=weighted_graphs(), k=st.integers(1, 2),
           seed=st.integers(0, 200))
    @settings(max_examples=30, **COMMON)
    def test_weighted_pipeline_always_valid(self, gw, k, seed):
        g, weights = gw
        cov = feasible_coverage(g, k)
        ds = solve_weighted_kmds(g, weights, coverage=cov, t=2, seed=seed)
        assert is_k_dominating_set(g, ds.members, cov, convention="closed")

    @given(gw=weighted_graphs(), k=st.integers(1, 2))
    @settings(max_examples=25, **COMMON)
    def test_weighted_lp_lower_bounds_greedy(self, gw, k):
        g, weights = gw
        cov = feasible_coverage(g, k)
        lp = weighted_lp_optimum(g, weights, cov, convention="closed")
        greedy = weighted_greedy_kmds(g, weights, cov, convention="closed")
        assert lp.objective <= greedy.details["cost"] + 1e-6


class TestBackboneProperties:
    @given(udg=udgs())
    @settings(max_examples=30, **COMMON)
    def test_backbone_from_greedy_always_connected(self, udg):
        ds = greedy_kmds(udg.nx, 1, convention="open")
        bb = build_backbone(udg, ds.members)
        assert is_connected_backbone(udg, bb.members)

    @given(udg=udgs(), r=st.integers(1, 3))
    @settings(max_examples=20, **COMMON)
    def test_redundant_backbone_superset(self, udg, r):
        ds = greedy_kmds(udg.nx, 1, convention="open")
        bb1 = build_backbone(udg, ds.members, redundancy=1)
        bbr = build_backbone(udg, ds.members, redundancy=r)
        assert bb1.dominators == bbr.dominators
        assert is_connected_backbone(udg, bbr.members)


class TestSchedulingProperties:
    @given(udg=udgs(),
           bits=st.lists(st.booleans(), min_size=10, max_size=10))
    @settings(max_examples=30, **COMMON)
    def test_any_head_set_gets_valid_schedule(self, udg, bits):
        heads = {v for v in range(udg.n) if bits[v]}
        slots = assign_slots(udg, heads)
        assert set(slots) == heads
        assert verify_schedule(udg, slots)


class TestSynchronizerProperties:
    @given(g=graphs(max_n=10), delay_seed=st.integers(0, 100))
    @settings(max_examples=15, **COMMON)
    def test_alpha_and_beta_agree_with_sync(self, g, delay_seed):
        cov = feasible_coverage(g, 1)
        delta = max_degree(g)
        ref = fractional_kmds(g, coverage=cov, t=2, mode="message",
                              compute_duals=False, seed=1)

        for runner in (run_protocol_async, run_protocol_beta):
            procs = [FractionalNode(v, cov[v], delta, 2, False)
                     for v in g.nodes]
            net = SynchronousNetwork(g, procs, seed=1)
            runner(net, delay_seed=delay_seed)
            for p in procs:
                assert p.x == pytest.approx(ref.x[p.node_id], abs=1e-12)


class TestNoisySensingProperties:
    @given(udg=udgs(), sigma=st.floats(0.0, 0.5, allow_nan=False),
           k=st.integers(1, 2), seed=st.integers(0, 100))
    @settings(max_examples=25, **COMMON)
    def test_noisy_output_always_valid(self, udg, sigma, k, seed):
        from repro.core.udg import solve_kmds_udg

        noisy = NoisySensingUDG(udg.points, sigma=sigma, noise_seed=seed)
        ds = solve_kmds_udg(noisy, k=k, seed=seed)
        assert is_k_dominating_set(noisy, ds.members, k, convention="open")

    @given(udg=udgs(), sigma=st.floats(0.0, 0.5, allow_nan=False))
    @settings(max_examples=20, **COMMON)
    def test_sensed_within_sigma_band(self, udg, sigma):
        noisy = NoisySensingUDG(udg.points, sigma=sigma, noise_seed=0)
        for u, v in noisy.nx.edges:
            true = noisy.distance(u, v)
            sensed = noisy.sensed_distance(u, v)
            assert (1 - sigma) * true - 1e-9 <= sensed \
                <= (1 + sigma) * true + 1e-9
