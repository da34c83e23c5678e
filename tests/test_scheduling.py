"""Unit tests for spatial-multiplexing scheduling and backbone
robustness."""

import pytest

from repro.apps.backbone import backbone_robustness, build_backbone
from repro.apps.scheduling import assign_slots, schedule_report, verify_schedule
from repro.baselines.greedy import greedy_kmds
from repro.core.udg import solve_kmds_udg
from repro.errors import GraphError
from repro.graphs.udg import random_udg, udg_from_points


class TestAssignSlots:
    def test_valid_distance2_coloring(self):
        udg = random_udg(200, density=10.0, seed=1)
        heads = solve_kmds_udg(udg, k=2, seed=0).members
        slots = assign_slots(udg, heads)
        assert set(slots) == set(heads)
        assert verify_schedule(udg, slots)

    def test_isolated_heads_share_slot_zero(self):
        pts = [(0, 0), (10, 10), (20, 20)]
        udg = udg_from_points(pts)
        slots = assign_slots(udg, {0, 1, 2})
        assert set(slots.values()) == {0}

    def test_adjacent_heads_differ(self):
        pts = [(0, 0), (0.5, 0)]
        udg = udg_from_points(pts)
        slots = assign_slots(udg, {0, 1})
        assert slots[0] != slots[1]

    def test_two_hop_heads_differ(self):
        # Heads 0 and 2 share the middle node 1: distance 2 apart.
        pts = [(0, 0), (0.9, 0), (1.8, 0)]
        udg = udg_from_points(pts)
        slots = assign_slots(udg, {0, 2})
        assert slots[0] != slots[2]

    def test_three_hop_heads_can_share(self):
        pts = [(0, 0), (0.9, 0), (1.8, 0), (2.7, 0)]
        udg = udg_from_points(pts)
        slots = assign_slots(udg, {0, 3})
        assert slots[0] == slots[3] == 0

    def test_unknown_head_rejected(self, triangle):
        with pytest.raises(GraphError, match="unknown"):
            assign_slots(triangle, {99})

    def test_empty_heads(self, triangle):
        assert assign_slots(triangle, set()) == {}


class TestScheduleReport:
    def test_report_fields(self):
        udg = random_udg(300, density=10.0, seed=2)
        heads = solve_kmds_udg(udg, k=1, seed=0).members
        rep = schedule_report(udg, heads)
        assert rep["heads"] == len(heads)
        assert rep["slots"] >= 1
        assert rep["reuse"] == pytest.approx(rep["heads"] / rep["slots"])
        assert rep["slots"] <= rep["max_conflict_degree"] + 1

    def test_multiplexing_gain_grows_with_field(self):
        # Same density, 4x area: slot count ~constant, reuse ~4x.
        small = random_udg(150, density=10.0, seed=3)
        large = random_udg(600, density=10.0, seed=3)
        rep_s = schedule_report(small, solve_kmds_udg(small, k=1,
                                                      seed=0).members)
        rep_l = schedule_report(large, solve_kmds_udg(large, k=1,
                                                      seed=0).members)
        assert rep_l["reuse"] > 2 * rep_s["reuse"]
        assert rep_l["slots"] <= 3 * rep_s["slots"]

    def test_empty(self, triangle):
        rep = schedule_report(triangle, set())
        assert rep["slots"] == 0

    def test_verify_rejects_bad_schedule(self):
        pts = [(0, 0), (0.5, 0)]
        udg = udg_from_points(pts)
        assert not verify_schedule(udg, {0: 0, 1: 0})


class TestBackboneRobustness:
    def _setup(self):
        udg = random_udg(200, density=8.0, seed=9)
        ds = greedy_kmds(udg.nx, 1)
        return udg, ds.members

    def test_redundancy_improves_survival(self):
        udg, members = self._setup()
        bb1 = build_backbone(udg, members, redundancy=1)
        bb2 = build_backbone(udg, members, redundancy=2)
        r1 = backbone_robustness(udg, bb1, kill_fraction=0.15, trials=30,
                                 seed=0)
        r2 = backbone_robustness(udg, bb2, kill_fraction=0.15, trials=30,
                                 seed=0)
        assert r2["mean_connected_fraction"] >= r1["mean_connected_fraction"]

    def test_redundant_backbone_still_valid(self):
        udg, members = self._setup()
        from repro.apps.backbone import is_connected_backbone

        bb = build_backbone(udg, members, redundancy=3)
        assert is_connected_backbone(udg, bb.members)

    def test_zero_kill_fully_connected(self):
        udg, members = self._setup()
        bb = build_backbone(udg, members)
        r = backbone_robustness(udg, bb, kill_fraction=0.0, trials=2, seed=0)
        assert r["mean_connected_fraction"] == 1.0

    def test_validation(self):
        udg, members = self._setup()
        bb = build_backbone(udg, members)
        with pytest.raises(GraphError):
            backbone_robustness(udg, bb, kill_fraction=1.5)
        with pytest.raises(GraphError):
            backbone_robustness(udg, bb, trials=0)
        with pytest.raises(GraphError):
            build_backbone(udg, members, redundancy=0)
