"""Unit tests for deterministic per-node RNG streams."""

from repro.simulation.rng import spawn_named_rngs, spawn_node_rngs


class TestSpawnNodeRngs:
    def test_same_seed_same_streams(self):
        a = spawn_node_rngs([0, 1, 2], seed=7)
        b = spawn_node_rngs([0, 1, 2], seed=7)
        for v in (0, 1, 2):
            assert a[v].random() == b[v].random()

    def test_different_seeds_differ(self):
        a = spawn_node_rngs([0, 1], seed=1)
        b = spawn_node_rngs([0, 1], seed=2)
        assert a[0].random() != b[0].random()

    def test_order_independent(self):
        a = spawn_node_rngs([2, 0, 1], seed=3)
        b = spawn_node_rngs([0, 1, 2], seed=3)
        for v in (0, 1, 2):
            assert a[v].random() == b[v].random()

    def test_streams_are_independent_objects(self):
        rngs = spawn_node_rngs([0, 1], seed=0)
        before = rngs[1].random()
        # Drawing a lot from node 0 must not affect node 1's stream.
        rngs0 = spawn_node_rngs([0, 1], seed=0)
        rngs0[0].random(1000)
        assert rngs0[1].random() == before

    def test_handles_unorderable_node_ids(self):
        rngs = spawn_node_rngs([(0, 1), "a", 3], seed=5)
        assert len(rngs) == 3

    def test_none_seed_works(self):
        rngs = spawn_node_rngs([0, 1], seed=None)
        assert set(rngs) == {0, 1}

    def test_empty_nodes(self):
        assert spawn_node_rngs([], seed=0) == {}


class TestSpawnNamedRngs:
    def test_deterministic(self):
        a = spawn_named_rngs(["faults", "workload"], seed=9)
        b = spawn_named_rngs(["faults", "workload"], seed=9)
        assert a["faults"].random() == b["faults"].random()

    def test_named_streams_distinct(self):
        rngs = spawn_named_rngs(["a", "b"], seed=9)
        assert rngs["a"].random() != rngs["b"].random()

    def test_does_not_collide_with_node_streams(self):
        named = spawn_named_rngs(["x"], seed=4)
        nodes = spawn_node_rngs([0], seed=4)
        assert named["x"].random() != nodes[0].random()
