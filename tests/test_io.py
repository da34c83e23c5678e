"""Unit tests for JSON persistence."""

import json

import numpy as np
import pytest

from repro.core.udg import solve_kmds_udg
from repro.core.verify import is_k_dominating_set
from repro.errors import GraphError
from repro.graphs.udg import random_udg, udg_from_points
from repro.io import (
    dominating_set_from_dict,
    dominating_set_to_dict,
    load_dominating_set,
    load_udg,
    save_dominating_set,
    save_udg,
    udg_from_dict,
)
from repro.types import DominatingSet


class TestUdgRoundtrip:
    def test_points_preserved(self, tmp_path):
        udg = random_udg(60, density=9.0, seed=1)
        path = tmp_path / "field.json"
        save_udg(udg, path)
        loaded = load_udg(path)
        assert np.allclose(loaded.points, udg.points)
        assert loaded.radius == udg.radius

    def test_edges_recomputed_identically(self, tmp_path):
        udg = random_udg(80, density=10.0, seed=2)
        path = tmp_path / "field.json"
        save_udg(udg, path)
        loaded = load_udg(path)
        assert set(loaded.nx.edges) == set(udg.nx.edges)

    def test_custom_radius(self, tmp_path):
        udg = udg_from_points([(0, 0), (1.5, 0)], radius=2.0)
        path = tmp_path / "f.json"
        save_udg(udg, path)
        assert load_udg(path).nx.has_edge(0, 1)

    def test_wrong_format_rejected(self):
        with pytest.raises(GraphError, match="format"):
            udg_from_dict({"format": "something-else"})

    def test_file_is_plain_json(self, tmp_path):
        udg = random_udg(10, density=8.0, seed=3)
        path = tmp_path / "f.json"
        save_udg(udg, path)
        data = json.loads(path.read_text())
        assert data["format"] == "repro/udg/v1"


class TestDominatingSetRoundtrip:
    def test_members_and_stats(self, tmp_path):
        udg = random_udg(80, density=10.0, seed=4)
        ds = solve_kmds_udg(udg, k=2, seed=0)
        path = tmp_path / "ds.json"
        save_dominating_set(ds, path)
        loaded = load_dominating_set(path)
        assert loaded.members == ds.members
        assert loaded.stats.rounds == ds.stats.rounds
        assert loaded.details["k"] == 2
        assert is_k_dominating_set(udg, loaded.members, 2)

    def test_unserializable_details_skipped(self):
        ds = DominatingSet(members={1, 2},
                           details={"ok": 5, "bad": {3, 4}})
        data = dominating_set_to_dict(ds)
        assert data["details"] == {"ok": 5}
        assert data["details_skipped"] == ["bad"]

    def test_wrong_format_rejected(self):
        with pytest.raises(GraphError, match="format"):
            dominating_set_from_dict({"format": "nope", "members": []})

    def test_empty_set(self, tmp_path):
        ds = DominatingSet(members=set())
        path = tmp_path / "empty.json"
        save_dominating_set(ds, path)
        assert load_dominating_set(path).members == set()

    def test_stats_defaults(self):
        loaded = dominating_set_from_dict(
            {"format": "repro/dominating-set/v1", "members": [1]})
        assert loaded.stats.rounds == 0


class TestEndToEndWorkflow:
    def test_save_cluster_reload_verify(self, tmp_path):
        """The operational loop: deploy, persist, cluster, persist,
        reload both later and re-verify."""
        udg = random_udg(100, density=10.0, seed=5)
        ds = solve_kmds_udg(udg, k=3, seed=1)
        save_udg(udg, tmp_path / "field.json")
        save_dominating_set(ds, tmp_path / "heads.json")

        field = load_udg(tmp_path / "field.json")
        heads = load_dominating_set(tmp_path / "heads.json")
        assert is_k_dominating_set(field, heads.members, 3)
