"""Tests for the scaling subsystem: incremental artifacts, sharded
repair, and the vectorized verify fast path.

The core guarantees pinned here:

- delta-patched :class:`GraphArtifacts` are field-equivalent to a
  from-scratch rebuild after *any* event sequence (property test);
- a count-preserving rewire never serves stale artifacts (the
  :func:`touch` version-token regression);
- the vectorized coverage oracle agrees with the pure-Python loop;
- the sharded maintenance loop produces bit-identical timelines for
  every ``(shards, workers)`` configuration, and — with deterministic
  selection — identical results to the legacy unsharded loop.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.core.verify import (
    coverage_counts,
    coverage_deficit,
    coverage_deficit_vector,
)
from repro.dynamics import (
    LazyRepair,
    LocalPatchRepair,
    MaintenanceLoop,
    NetworkState,
    RecomputeRepair,
    assign_shards,
    crash_scenario,
    damage_units,
    run_scenario,
)
from repro.engine.artifacts import (
    GraphArtifacts,
    cache_stats,
    graph_artifacts,
    touch,
)
from repro.errors import GraphError, ShardingError
from repro.graphs.generators import gnp_graph
from repro.graphs.udg import random_udg


def assert_artifacts_match(art: GraphArtifacts, graph: nx.Graph) -> None:
    """Semantic (node-keyed, not positional) equivalence of a patched
    bundle and the graph it mirrors — patched node order is maintenance
    order, so positional comparison would be wrong by design."""
    fresh = GraphArtifacts(graph)
    assert set(art.nodes) == set(fresh.nodes)
    assert art.n == fresh.n
    assert art.m == fresh.m
    assert art.delta_max == fresh.delta_max
    assert sorted(art.index.values()) == list(range(art.n))
    for v in fresh.nodes:
        i, fi = art.index[v], fresh.index[v]
        assert art.degrees[i] == fresh.degrees[fi]
        assert art.sorted_neighbors[v] == fresh.sorted_neighbors[v]
        ball = {art.nodes[j] for j in art.closed_nbrs[i]}
        fresh_ball = {fresh.nodes[j] for j in fresh.closed_nbrs[fi]}
        assert ball == fresh_ball
    # The lazily rebuilt CSR must agree row-by-row under the node maps.
    a, f = art.closed_adjacency(), fresh.closed_adjacency()
    for v in fresh.nodes:
        arow = {art.nodes[j] for j in
                a.indices[a.indptr[art.index[v]]:a.indptr[art.index[v] + 1]]}
        frow = {fresh.nodes[j] for j in
                f.indices[f.indptr[fresh.index[v]]:
                          f.indptr[fresh.index[v] + 1]]}
        assert arow == frow


class TestArtifactDelta:
    def test_add_remove_rewire_match_rebuild(self):
        g = gnp_graph(30, 0.15, seed=3)
        art = GraphArtifacts(g.copy())
        delta = art.delta_patcher()
        mirror = g.copy()

        mirror.add_node(100)
        mirror.add_edge(100, 0)
        mirror.add_edge(100, 5)
        delta.add_node(100, [0, 5])
        assert_artifacts_match(art, mirror)

        mirror.remove_node(3)
        delta.remove_node(3)
        assert_artifacts_match(art, mirror)

        new_nbrs = [1, 7, 100]
        mirror.remove_edges_from(list(mirror.edges(9)))
        mirror.add_edges_from((9, w) for w in new_nbrs)
        delta.rewire(9, new_nbrs)
        assert_artifacts_match(art, mirror)

    def test_version_bumps_per_patch(self):
        art = GraphArtifacts(gnp_graph(12, 0.3, seed=0))
        delta = art.delta_patcher()
        v0 = art.version
        delta.remove_node(0)
        assert art.version > v0
        v1 = art.version
        delta.add_node(0, [1, 2])
        assert art.version > v1
        assert delta.patches == 2

    def test_patch_invalidates_csr(self):
        g = nx.path_graph(4)
        art = GraphArtifacts(g)
        before = art.closed_adjacency().toarray().copy()
        art.delta_patcher().rewire(0, [2, 3])
        after = art.closed_adjacency().toarray()
        assert not np.array_equal(before, after)

    def test_patcher_evicts_shared_cache(self):
        g = gnp_graph(10, 0.3, seed=1)
        art = graph_artifacts(g)
        art.delta_patcher().remove_node(0)
        # The cached bundle no longer mirrors g: next lookup rebuilds.
        assert graph_artifacts(g) is not art

    def test_invalid_patches_rejected(self):
        art = GraphArtifacts(nx.path_graph(5))
        delta = art.delta_patcher()
        with pytest.raises(GraphError):
            delta.add_node(2, [0])  # already present
        with pytest.raises(GraphError):
            delta.add_node(99, [42])  # unknown neighbor
        with pytest.raises(GraphError):
            delta.remove_node(77)  # not present
        with pytest.raises(GraphError):
            delta.rewire(2, [2])  # self-loop
        with pytest.raises(GraphError):
            delta.rewire(404, [0])  # not present

    def test_property_200_random_events(self):
        """Any 200-event add/remove/rewire sequence leaves the patched
        bundle field-equivalent to a from-scratch rebuild."""
        rng = np.random.default_rng(1234)
        g = gnp_graph(60, 0.08, seed=9)
        art = GraphArtifacts(g.copy())
        delta = art.delta_patcher()
        mirror = g.copy()
        next_id = 1000
        for step in range(200):
            nodes = list(mirror.nodes)
            op = rng.choice(["add", "remove", "rewire"])
            if op == "add" or len(nodes) < 5:
                count = int(rng.integers(0, min(4, len(nodes)) + 1))
                nbrs = [nodes[i] for i in
                        rng.choice(len(nodes), size=count, replace=False)]
                mirror.add_node(next_id)
                mirror.add_edges_from((next_id, w) for w in nbrs)
                delta.add_node(next_id, nbrs)
                next_id += 1
            elif op == "remove":
                victim = nodes[int(rng.integers(len(nodes)))]
                mirror.remove_node(victim)
                delta.remove_node(victim)
            else:
                v = nodes[int(rng.integers(len(nodes)))]
                others = [w for w in nodes if w != v]
                count = int(rng.integers(0, min(6, len(others)) + 1))
                nbrs = [others[i] for i in
                        rng.choice(len(others), size=count, replace=False)]
                mirror.remove_edges_from(list(mirror.edges(v)))
                mirror.add_edges_from((v, w) for w in nbrs)
                delta.rewire(v, nbrs)
            if step % 40 == 0:
                assert_artifacts_match(art, mirror)
        assert_artifacts_match(art, mirror)
        assert delta.patches == 200

    def test_cache_stats_exposes_patch_counters(self):
        stats = cache_stats()
        assert {"hits", "misses", "delta_patches",
                "full_rebuilds"} <= set(stats)
        before = stats["delta_patches"]
        GraphArtifacts(nx.path_graph(3)).delta_patcher().remove_node(0)
        assert cache_stats()["delta_patches"] == before + 1


class TestStalenessRegression:
    def test_count_preserving_rewire_with_touch(self):
        """An exact rewiring (same n, same m) is invisible to the (n, m)
        fingerprint; the version token must catch it."""
        g = nx.Graph([(0, 1), (2, 3)])
        art = graph_artifacts(g)
        assert art.sorted_neighbors[0] == (1,)
        g.remove_edge(0, 1)
        g.add_edge(1, 2)  # n and m unchanged
        touch(g)
        fresh = graph_artifacts(g)
        assert fresh is not art
        assert fresh.sorted_neighbors[0] == ()
        assert fresh.sorted_neighbors[1] == (2,)

    def test_state_move_preserving_counts_not_stale(self):
        """A NetworkState move that swaps one edge for another (m is
        unchanged) must be visible through graph() artifacts."""
        state = NetworkState({0: (0.0, 0.0), 1: (0.5, 0.0),
                              2: (2.0, 0.0)}, radius=1.0)
        g0 = state.graph()
        assert graph_artifacts(g0).m == 1  # only 0-1
        from repro.dynamics.events import MoveEvent
        state.apply(MoveEvent(positions={1: (1.6, 0.0)}))
        g1 = state.graph()
        art = graph_artifacts(g1)
        assert art.m == 1  # still one edge — counts preserved
        assert art.sorted_neighbors[1] == (2,)  # ...but a different one
        assert_artifacts_match(state.artifacts(), g1)

    def test_untouched_count_change_still_detected(self):
        """The (n, m) fingerprint net: a legacy mutator that changes the
        edge count without touch() must still trigger a rebuild (the
        fast adjacency-sum revalidation sees the new count)."""
        g = gnp_graph(10, 0.3, seed=2)
        art = graph_artifacts(g)
        if g.has_edge(0, 9):
            g.remove_edge(0, 9)
        else:
            g.add_edge(0, 9)
        fresh = graph_artifacts(g)
        assert fresh is not art
        assert fresh.m == g.number_of_edges()

    def test_fingerprint_fast_path_handles_self_loops(self):
        """The revalidation shortcut sums adjacency sizes // 2, which
        undercounts a graph with an odd number of self-loops; the exact
        number_of_edges fallback must keep the cache hit honest."""
        g = nx.path_graph(5)
        g.add_edge(2, 2)
        art = graph_artifacts(g)
        assert graph_artifacts(g) is art  # hit despite the odd degree sum


class TestCacheLifetime:
    """Cached bundles refer back to their graphs, yet must die with them."""

    def test_solved_then_dropped_graphs_leave_both_caches(self):
        import gc
        import weakref

        from repro.core.udg import solve_kmds_udg, solve_kmds_udg_grid
        from repro.engine import artifacts
        from repro.graphs.udg import random_udg

        graphs = [random_udg(300, density=8.0, seed=s) for s in range(3)]
        solve_kmds_udg(graphs[0], k=2, seed=0)
        solve_kmds_udg_grid(graphs, seeds=(0, 1), ks=(1, 2))
        assert all(u.nx in artifacts._CACHE for u in graphs)
        assert graphs[0].nx in artifacts._STACK_CACHE
        gc.collect()  # settle garbage left by earlier tests
        base, stacks = len(artifacts._CACHE), len(artifacts._STACK_CACHE)
        refs = [weakref.ref(u.nx) for u in graphs]
        del graphs
        gc.collect()
        assert all(r() is None for r in refs)
        assert len(artifacts._CACHE) == base - 3
        assert len(artifacts._STACK_CACHE) == stacks - 1

    def test_bundle_lives_while_its_graph_does(self):
        import gc

        from repro.engine import artifacts
        from repro.graphs.udg import random_udg

        udg = random_udg(50, seed=1)
        art = graph_artifacts(udg)
        gc.collect()
        assert graph_artifacts(udg) is art and art.graph is udg.nx
        artifacts._CACHE.clear()
        assert udg.nx not in artifacts._CACHE
        assert graph_artifacts(udg) is not art


class TestVectorizedVerify:
    @pytest.mark.parametrize("convention", ["open", "closed"])
    def test_counts_match_python_loop(self, convention):
        g = gnp_graph(80, 0.08, seed=4)
        members = set(list(g.nodes)[::3])
        slow = coverage_counts(g, members, convention=convention)
        fast = coverage_counts(GraphArtifacts(g), members,
                               convention=convention)
        assert slow == fast

    @pytest.mark.parametrize("convention", ["open", "closed"])
    def test_deficit_matches_python_loop(self, convention):
        g = gnp_graph(80, 0.08, seed=4)
        members = set(list(g.nodes)[::4])
        slow = coverage_deficit(g, members, 2, convention=convention)
        fast = coverage_deficit(GraphArtifacts(g), members, 2,
                                convention=convention)
        assert slow == fast

    def test_deficit_vector_zeroes_members_open(self):
        g = nx.path_graph(5)
        art = GraphArtifacts(g)
        vec, nodes = coverage_deficit_vector(art, {2}, 3, convention="open")
        assert nodes == art.nodes
        assert vec[art.index[2]] == 0  # members are exempt
        assert vec[art.index[0]] > 0


class TestDamageUnits:
    def test_far_apart_deficits_split(self):
        g = nx.path_graph(10)  # 0..9 in a line
        units = damage_units({0: 1, 9: 2}, g.neighbors)
        assert len(units) == 2
        assert [u.anchor for u in units] == [0, 9]
        assert [u.rank for u in units] == [0, 1]
        assert units[1].deficits == {9: 2}

    def test_two_hop_deficits_merge(self):
        g = nx.path_graph(5)
        # 0 and 2 share witness node 1 — one unit.
        units = damage_units({0: 1, 2: 1}, g.neighbors)
        assert len(units) == 1
        assert units[0].deficits == {0: 1, 2: 1}

    def test_chain_merges_transitively(self):
        g = nx.path_graph(9)
        units = damage_units({0: 1, 2: 1, 4: 1}, g.neighbors)
        assert len(units) == 1

    def test_assign_shards_geometric_and_clamped(self):
        g = nx.empty_graph(3)
        units = damage_units({0: 1, 1: 1, 2: 1}, g.neighbors)
        pos = {0: (0.1, 0.1), 1: (0.9, 0.9), 2: (5.0, -1.0)}
        plan = assign_shards(units, 2, position_of=pos.get, side=1.0)
        keys = {u.anchor: key for key, us in plan.items() for u in us}
        assert keys[0] == (0, 0)
        assert keys[1] == (1, 1)
        assert keys[2] == (1, 0)  # clamped to the border cell

    def test_assign_shards_rank_fallback(self):
        g = nx.empty_graph(4)
        units = damage_units({i: 1 for i in range(4)}, g.neighbors)
        plan = assign_shards(units, 2)
        assert sorted(plan) == [(0, 0), (1, 0)]

    def test_bad_shard_count(self):
        with pytest.raises(ShardingError):
            assign_shards([], 0)


class TestShardedLoop:
    def _scenario(self, seed=7, epochs=15):
        return crash_scenario(n=150, k=3, epochs=epochs,
                              kill_fraction=0.3, seed=seed)

    def test_invalid_configs_rejected(self):
        sc = self._scenario()
        with pytest.raises(ShardingError, match="shards must be"):
            MaintenanceLoop(sc, LocalPatchRepair(), shards=0)
        with pytest.raises(ShardingError, match="workers must be"):
            MaintenanceLoop(sc, LocalPatchRepair(), workers=0)
        with pytest.raises(ShardingError, match="requires shards"):
            MaintenanceLoop(sc, LocalPatchRepair(), workers=4)
        for policy in (RecomputeRepair(), LazyRepair()):
            with pytest.raises(ShardingError, match="cannot be sharded"):
                MaintenanceLoop(sc, policy, shards=2)

    def _timeline_key(self, result):
        rows = result.timeline.to_dicts()
        for row in rows:
            # Plan-shape fields legitimately differ across shard grids.
            row.pop("shards_active")
        return (tuple(sorted(result.final_members)),
                tuple(tuple(sorted(r.items())) for r in rows))

    def test_bit_identical_across_shard_and_worker_counts(self):
        baseline = None
        for shards, workers in [(1, 1), (3, 1), (4, 4), (8, 2)]:
            result = run_scenario(self._scenario(), LocalPatchRepair(),
                                  shards=shards, workers=workers)
            key = self._timeline_key(result)
            if baseline is None:
                baseline = key
                assert result.always_covered
            else:
                assert key == baseline

    def test_deterministic_selection_matches_legacy_loop(self):
        legacy = run_scenario(self._scenario(), LocalPatchRepair("by-id"))
        sharded = run_scenario(self._scenario(), LocalPatchRepair("by-id"),
                               shards=4, workers=4)
        assert legacy.final_members == sharded.final_members
        assert (legacy.summary["rounds_total"]
                == sharded.summary["rounds_total"])
        assert legacy.always_covered and sharded.always_covered

    def test_incremental_matches_rebuild_baseline(self):
        fast = run_scenario(self._scenario(), LocalPatchRepair("by-id"),
                            shards=2, incremental=True)
        slow = run_scenario(self._scenario(), LocalPatchRepair("by-id"),
                            shards=2, incremental=False)
        assert fast.final_members == slow.final_members
        fast_rows = fast.timeline.to_dicts()
        slow_rows = slow.timeline.to_dicts()
        for f, s in zip(fast_rows, slow_rows):
            # Artifact accounting differs by construction; repair
            # behavior must not.
            for key in ("delta_patches", "full_rebuilds"):
                f.pop(key), s.pop(key)
            assert f == s
        assert fast.summary["delta_patches_total"] > 0
        assert slow.summary["delta_patches_total"] == 0

    def test_epoch_records_expose_plan_and_patch_counters(self):
        result = run_scenario(self._scenario(), LocalPatchRepair(),
                              shards=3)
        repaired = [r for r in result.timeline if r.repaired]
        assert repaired
        assert all(r.units >= 1 for r in repaired)
        assert all(r.shards_active >= 1 for r in repaired)
        assert any(r.delta_patches > 0 for r in result.timeline)
        assert "delta_patches_total" in result.summary
        assert "full_rebuilds_total" in result.summary

    def test_cli_sharded_run(self, capsys):
        rc = cli_main(["dynamics", "--n", "120", "--epochs", "5",
                       "--shards", "2", "--workers", "2", "--seed", "1"])
        assert rc == 0
        assert "mean availability" in capsys.readouterr().out

    def test_cli_invalid_sharding_flags(self):
        with pytest.raises(ShardingError):
            cli_main(["dynamics", "--n", "60", "--epochs", "2",
                      "--workers", "3"])
        with pytest.raises(ShardingError):
            cli_main(["dynamics", "--n", "60", "--epochs", "2",
                      "--policy", "recompute", "--shards", "2"])


class TestIncrementalNetworkState:
    def test_random_churn_artifacts_equivalent(self):
        """NetworkState-level property: after mixed crash/join/move
        churn the live patched artifacts mirror a fresh rebuild."""
        from repro.dynamics.events import CrashEvent, JoinEvent, MoveEvent

        udg = random_udg(120, density=10.0, seed=5)
        state = NetworkState.from_udg(udg, members=range(0, 120, 4))
        state.artifacts()  # arm the live bundle before churn
        rng = np.random.default_rng(42)
        side = float(udg.points.max())
        next_id = 500
        for _ in range(120):
            op = rng.choice(["crash", "join", "move"])
            live = sorted(state.alive)
            if op == "crash" and len(live) > 10:
                state.apply(CrashEvent(node=live[int(rng.integers(
                    len(live)))]))
            elif op == "join":
                pos = tuple(rng.uniform(0, side, size=2))
                state.apply(JoinEvent(node=next_id, pos=pos))
                next_id += 1
            else:
                victims = [live[i] for i in rng.choice(
                    len(live), size=min(3, len(live)), replace=False)]
                state.apply(MoveEvent(positions={
                    v: tuple(rng.uniform(0, side, size=2))
                    for v in victims}))
        art = state.artifacts()
        assert art.delta_max >= 0
        assert state.artifact_patches > 0
        assert_artifacts_match(art, state.graph())
