"""Unit tests for the application layer (backbone, routing, data
collection)."""

import pytest

from repro.apps.backbone import build_backbone, is_connected_backbone
from repro.apps.datacollection import (
    EnergyModel,
    run_data_collection,
)
from repro.apps.routing import backbone_route, routing_stretch
from repro.baselines.greedy import greedy_kmds
from repro.core.udg import solve_kmds_udg
from repro.errors import GraphError
from repro.graphs.udg import random_udg, udg_from_points


@pytest.fixture
def clustered_udg():
    udg = random_udg(150, density=10.0, seed=3)
    ds = solve_kmds_udg(udg, k=2, seed=0)
    return udg, ds.members


class TestBackbone:
    def test_backbone_is_connected(self, clustered_udg):
        udg, members = clustered_udg
        bb = build_backbone(udg, members)
        assert is_connected_backbone(udg, bb.members)

    def test_backbone_from_greedy_ds(self):
        udg = random_udg(120, density=12.0, seed=5)
        ds = greedy_kmds(udg.nx, 1)
        bb = build_backbone(udg, ds.members)
        assert is_connected_backbone(udg, bb.members)
        assert bb.dominators == set(ds.members)

    def test_connectors_disjoint_from_dominators(self, clustered_udg):
        udg, members = clustered_udg
        bb = build_backbone(udg, members)
        assert not (bb.connectors & bb.dominators)

    def test_connector_count_moderate(self, clustered_udg):
        udg, members = clustered_udg
        bb = build_backbone(udg, members)
        # Each tree edge adds at most 2 connectors (3-hop bridges).
        assert len(bb.connectors) <= 2 * len(bb.tree_edges)

    def test_tree_edges_are_paths_in_graph(self, clustered_udg):
        udg, members = clustered_udg
        bb = build_backbone(udg, members)
        for u, v, path in bb.tree_edges:
            assert path[0] == u and path[-1] == v
            assert 2 <= len(path) <= 4  # <= 3 hops
            for a, b in zip(path, path[1:]):
                assert udg.nx.has_edge(a, b)

    def test_non_dominating_set_rejected(self, clustered_udg):
        udg, _ = clustered_udg
        with pytest.raises(GraphError, match="does not dominate"):
            build_backbone(udg, {0})

    def test_single_dominator_component(self):
        udg = udg_from_points([(0, 0), (0.5, 0), (0, 0.5)])
        bb = build_backbone(udg, {0})
        assert bb.members == {0}
        assert is_connected_backbone(udg, bb.members)

    def test_disconnected_graph(self):
        # Two far-apart cliques, one dominator each.
        pts = [(0, 0), (0.4, 0), (10, 10), (10.4, 10)]
        udg = udg_from_points(pts)
        bb = build_backbone(udg, {0, 2})
        assert is_connected_backbone(udg, bb.members)
        assert bb.connectors == set()

    def test_path_graph_bridging(self):
        # Dominators at distance 3 need exactly the interior connectors.
        pts = [(float(i) * 0.9, 0.0) for i in range(4)]
        udg = udg_from_points(pts)
        bb = build_backbone(udg, {0, 3})
        assert bb.connectors == {1, 2}

    def test_is_connected_backbone_negative(self):
        pts = [(float(i) * 0.9, 0.0) for i in range(4)]
        udg = udg_from_points(pts)
        # {0, 3} dominates P4 but does not induce a connected subgraph.
        assert not is_connected_backbone(udg, {0, 3})


class TestRouting:
    def test_route_endpoints(self, clustered_udg):
        udg, members = clustered_udg
        bb = build_backbone(udg, members)
        route = backbone_route(udg, bb.members, 0, 1)
        if route is not None:
            assert route[0] == 0
            assert route[-1] == 1
            for w in route[1:-1]:
                assert w in bb.members

    def test_trivial_routes(self, clustered_udg):
        udg, members = clustered_udg
        assert backbone_route(udg, members, 5, 5) == [5]

    def test_adjacent_shortcut(self):
        pts = [(0, 0), (0.5, 0), (5, 5)]
        udg = udg_from_points(pts)
        route = backbone_route(udg, {2}, 0, 1)
        assert route == [0, 1]  # direct edge, no backbone needed

    def test_unroutable_pair(self):
        pts = [(0, 0), (10, 10)]
        udg = udg_from_points(pts)
        assert backbone_route(udg, set(), 0, 1) is None

    def test_unknown_node(self, clustered_udg):
        udg, members = clustered_udg
        with pytest.raises(GraphError, match="unknown"):
            backbone_route(udg, members, 0, 10_000)

    def test_stretch_full_delivery_over_backbone(self, clustered_udg):
        udg, members = clustered_udg
        bb = build_backbone(udg, members)
        out = routing_stretch(udg, bb.members, pairs=40, seed=1)
        assert out["delivered_fraction"] == 1.0
        assert 1.0 <= out["mean_stretch"] <= 4.0
        assert out["max_stretch"] < 8.0

    def test_stretch_invalid_pairs(self, clustered_udg):
        udg, members = clustered_udg
        with pytest.raises(GraphError):
            routing_stretch(udg, members, pairs=0)

    def test_stretch_tiny_graph(self):
        udg = udg_from_points([(0, 0)])
        out = routing_stretch(udg, {0}, pairs=5, seed=0)
        assert out["pairs"] == 0


class TestRoutingDegenerate:
    """Point queries on degenerate inputs: the service layer answers
    these live (``repro.service.queries.routes``), so their contract —
    route, ``None``, or :class:`GraphError` — is pinned here."""

    def test_non_member_source_routes_via_backbone(self):
        # 0 -- 1 -- 2 -- 3 in a line; only the interior is backbone.
        pts = [(0, 0), (0.9, 0), (1.8, 0), (2.7, 0)]
        udg = udg_from_points(pts)
        route = backbone_route(udg, {1, 2}, 0, 3)
        assert route == [0, 1, 2, 3]
        assert 0 not in {1, 2} and 3 not in {1, 2}

    def test_non_member_interior_blocks_route(self):
        # Same line, but node 2 is NOT a member: 0 -> 3 must fail even
        # though the graph itself is connected.
        pts = [(0, 0), (0.9, 0), (1.8, 0), (2.7, 0)]
        udg = udg_from_points(pts)
        assert backbone_route(udg, {1}, 0, 3) is None

    def test_disconnected_components_route_none(self):
        pts = [(0, 0), (0.5, 0), (10, 10), (10.5, 10)]
        udg = udg_from_points(pts)
        assert backbone_route(udg, {1, 2}, 0, 3) is None
        # Within one component routing still works.
        assert backbone_route(udg, {1, 2}, 0, 1) == [0, 1]

    def test_empty_backbone(self):
        pts = [(0, 0), (0.9, 0), (1.8, 0)]
        udg = udg_from_points(pts)
        # Adjacent endpoints shortcut past the (empty) backbone...
        assert backbone_route(udg, set(), 0, 1) == [0, 1]
        # ...non-adjacent ones have no interior to route through.
        assert backbone_route(udg, set(), 0, 2) is None
        # Self-routes never touch the backbone at all.
        assert backbone_route(udg, set(), 2, 2) == [2]

    def test_unknown_source_raises(self, clustered_udg):
        udg, members = clustered_udg
        with pytest.raises(GraphError, match="unknown"):
            backbone_route(udg, members, 10_000, 0)

    def test_members_outside_graph_are_ignored(self):
        pts = [(0, 0), (0.9, 0), (1.8, 0)]
        udg = udg_from_points(pts)
        # A stale membership set (dead dominators) must not break
        # routing over the live topology.
        assert backbone_route(udg, {1, 999}, 0, 2) == [0, 1, 2]

    def test_stretch_empty_backbone_delivers_neighbors_only(self):
        pts = [(0, 0), (0.9, 0), (1.8, 0), (2.7, 0)]
        udg = udg_from_points(pts)
        out = routing_stretch(udg, set(), pairs=30, seed=0)
        assert 0.0 < out["delivered_fraction"] < 1.0

    def test_stretch_disconnected_graph_skips_unroutable(self):
        pts = [(0, 0), (0.5, 0), (10, 10), (10.5, 10)]
        udg = udg_from_points(pts)
        out = routing_stretch(udg, {0, 1, 2, 3}, pairs=20, seed=0)
        # Cross-component pairs are not routable pairs; only the two
        # intra-component edges count, and both deliver.
        assert out["delivered_fraction"] == 1.0


class TestDataCollection:
    def test_no_deaths_full_delivery(self, clustered_udg):
        udg, members = clustered_udg
        report = run_data_collection(udg, members, epochs=5,
                                     head_death_rate=0.0, seed=0)
        assert report.delivered_fraction == 1.0
        assert report.live_heads_per_epoch == [len(members)] * 5

    def test_redundancy_improves_delivery(self):
        udg = random_udg(200, density=12.0, seed=7)
        ds1 = solve_kmds_udg(udg, k=1, seed=0)
        ds3 = solve_kmds_udg(udg, k=3, seed=0)
        r1 = run_data_collection(udg, ds1.members, epochs=40,
                                 head_death_rate=0.05, seed=1)
        r3 = run_data_collection(udg, ds3.members, epochs=40,
                                 head_death_rate=0.05, seed=1)
        assert r3.delivered_fraction >= r1.delivered_fraction

    def test_energy_accounting(self, clustered_udg):
        udg, members = clustered_udg
        model = EnergyModel(tx_per_bit=2.0, rx_per_bit=1.0,
                            idle_per_epoch=0.0)
        report = run_data_collection(udg, members, epochs=1,
                                     head_death_rate=0.0,
                                     reading_bits=100, energy=model, seed=0)
        # Every sensor transmits one 100-bit reading.
        assert report.energy_by_role["sensor"] == pytest.approx(200.0)
        # Heads receive in aggregate exactly what sensors sent (at half
        # the per-bit rate).
        n_sensors = udg.n - len(members)
        total_rx = report.energy_by_role["head"] * len(members)
        assert total_rx == pytest.approx(100.0 * n_sensors * 1.0)

    def test_deaths_reduce_live_heads(self, clustered_udg):
        udg, members = clustered_udg
        report = run_data_collection(udg, members, epochs=30,
                                     head_death_rate=0.2, seed=2)
        assert report.live_heads_per_epoch[-1] < len(members)
        assert report.delivered_per_epoch[-1] <= \
            report.delivered_per_epoch[0] + 1e-9

    def test_validation(self, clustered_udg):
        udg, members = clustered_udg
        with pytest.raises(GraphError):
            run_data_collection(udg, members, epochs=-1)
        with pytest.raises(GraphError):
            run_data_collection(udg, members, head_death_rate=2.0)
        with pytest.raises(GraphError):
            run_data_collection(udg, members, reading_bits=0)
        with pytest.raises(GraphError):
            run_data_collection(udg, {99999})
        with pytest.raises(GraphError):
            EnergyModel(tx_per_bit=-1.0)

    def test_zero_epochs(self, clustered_udg):
        udg, members = clustered_udg
        report = run_data_collection(udg, members, epochs=0)
        assert report.delivered_fraction == 1.0
        assert report.delivered_per_epoch == []

    def test_deterministic(self, clustered_udg):
        udg, members = clustered_udg
        a = run_data_collection(udg, members, epochs=10,
                                head_death_rate=0.1, seed=5)
        b = run_data_collection(udg, members, epochs=10,
                                head_death_rate=0.1, seed=5)
        assert a.delivered_per_epoch == b.delivered_per_epoch
