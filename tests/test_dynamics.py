"""Tests for the repro.dynamics self-healing maintenance subsystem."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.udg import solve_kmds_udg
from repro.core.verify import coverage_deficit, is_k_dominating_set
from repro.dynamics import (
    BatteryDecay,
    CrashEvent,
    DrainEvent,
    JoinEvent,
    LazyRepair,
    LocalPatchRepair,
    MaintenanceLoop,
    MobilityRewiring,
    MoveEvent,
    NetworkState,
    PoissonCrashes,
    PoissonJoins,
    RandomCrashes,
    RecomputeRepair,
    Scenario,
    ScheduledCrashes,
    SurplusDemotion,
    crash_scenario,
    make_policy,
    run_scenario,
)
from repro.engine.instrumentation import Instrumentation
from repro.errors import GraphError
from repro.graphs.mobility import GaussianDrift
from repro.graphs.udg import random_udg


@pytest.fixture
def udg120():
    return random_udg(120, density=10.0, seed=3)


def _state_from(udg, k=3, seed=0):
    members = solve_kmds_udg(udg, k, mode="direct", seed=seed).members
    return NetworkState.from_udg(udg, members=members)


# ======================================================================
# Events and streams
# ======================================================================

class TestEventStreams:
    def test_scheduled_crashes(self, udg120):
        state = _state_from(udg120)
        stream = ScheduledCrashes({0: [1, 2], 3: [5]})
        assert stream.events_at(0, state) == [CrashEvent(1), CrashEvent(2)]
        assert stream.events_at(1, state) == []
        assert stream.events_at(3, state) == [CrashEvent(5)]

    def test_scheduled_skips_dead(self, udg120):
        state = _state_from(udg120)
        state.apply(CrashEvent(1))
        stream = ScheduledCrashes({0: [1, 2]})
        assert stream.events_at(0, state) == [CrashEvent(2)]

    def test_random_crashes_deterministic(self, udg120):
        state_a = _state_from(udg120)
        state_b = _state_from(udg120)
        a = RandomCrashes(2.0, target="any", seed=9)
        b = RandomCrashes(2.0, target="any", seed=9)
        for epoch in range(5):
            assert a.events_at(epoch, state_a) == b.events_at(epoch, state_b)

    def test_random_crashes_target_dominators(self, udg120):
        state = _state_from(udg120)
        stream = RandomCrashes(3.0, target="dominators", seed=1)
        for epoch in range(5):
            for ev in stream.events_at(epoch, state):
                assert ev.node in state.members
                state.apply(ev)

    def test_fractional_rate_accumulates(self, udg120):
        state = _state_from(udg120)
        stream = RandomCrashes(0.5, target="any", seed=2)
        counts = [len(stream.events_at(e, state)) for e in range(10)]
        assert sum(counts) == 5          # 0.5/epoch over 10 epochs
        assert max(counts) == 1

    def test_unknown_target_rejected(self):
        with pytest.raises(GraphError, match="unknown crash target"):
            RandomCrashes(1.0, target="leaders")

    def test_poisson_crashes_mean(self, udg120):
        state = _state_from(udg120, k=1)
        stream = PoissonCrashes(1.0, target="any", seed=4)
        total = sum(len(stream.events_at(e, state)) for e in range(30))
        assert 10 <= total <= 60         # loose Poisson(1)/epoch band

    def test_poisson_joins_fresh_ids(self, udg120):
        state = _state_from(udg120)
        stream = PoissonJoins(3.0, side=3.0, seed=5)
        events = []
        for epoch in range(5):
            batch = stream.events_at(epoch, state)
            state.apply_all(batch)
            events.extend(batch)
        assert events, "Poisson(3) over 5 epochs produced nothing"
        assert all(isinstance(e, JoinEvent) for e in events)
        assert len({e.node for e in events}) == len(events)
        assert all(0 <= x <= 3 and 0 <= y <= 3 for e in events
                   for x, y in [e.pos])

    def test_battery_decay_members_drain_faster(self, udg120):
        state = _state_from(udg120)
        stream = BatteryDecay(0.1, 0.2)
        events = {e.node: e for e in stream.events_at(0, state)}
        member = next(iter(state.members))
        client = next(iter(state.alive - state.members))
        assert events[member].amount == pytest.approx(0.3)
        assert events[client].amount == pytest.approx(0.1)

    def test_mobility_rewiring_emits_moves(self, udg120):
        state = _state_from(udg120)
        stream = MobilityRewiring(GaussianDrift(0.05, seed=6), side=3.0,
                                  every=2)
        assert len(stream.events_at(0, state)) == 1
        assert stream.events_at(1, state) == []
        (move,) = stream.events_at(2, state)
        assert isinstance(move, MoveEvent)
        assert set(move.positions) == state.alive


# ======================================================================
# Network state
# ======================================================================

class TestNetworkState:
    def test_crash_removes_from_members(self, udg120):
        state = _state_from(udg120)
        victim = next(iter(state.members))
        state.apply(CrashEvent(victim))
        assert victim not in state.alive
        assert victim not in state.members
        assert state.total_crashes == 1

    def test_crash_only_churn_reuses_geometry(self, udg120):
        state = _state_from(udg120)
        g0 = state.graph()
        base = state._base_nx
        victim = next(iter(state.alive))
        state.apply(CrashEvent(victim))
        g1 = state.graph()
        assert state._base_nx is base    # geometry cache survived
        assert victim in g0 and victim not in g1

    def test_join_adds_node_and_edges(self, udg120):
        state = _state_from(udg120)
        anchor = next(iter(state.alive))
        nid = state.next_id()
        state.apply(JoinEvent(nid, state.positions[anchor]))
        g = state.graph()
        assert nid in g
        assert g.has_edge(nid, anchor)   # co-located => connected

    def test_duplicate_join_rejected(self, udg120):
        state = _state_from(udg120)
        with pytest.raises(GraphError, match="already exists"):
            state.apply(JoinEvent(0, (0.0, 0.0)))

    def test_drain_to_zero_crashes(self, udg120):
        state = _state_from(udg120)
        node = next(iter(state.alive))
        state.apply(DrainEvent(node, 0.4))
        assert node in state.alive
        state.apply(DrainEvent(node, 0.7))
        assert node not in state.alive
        assert state.battery[node] == 0.0

    def test_move_rewires_edges(self, udg120):
        state = _state_from(udg120)
        a, b = sorted(state.alive)[:2]
        far = {a: (0.0, 0.0), b: (100.0, 100.0)}
        state.apply(MoveEvent(far))
        assert not state.graph().has_edge(a, b)

    def test_promote_dead_rejected(self, udg120):
        state = _state_from(udg120)
        node = next(iter(state.alive - state.members))
        state.apply(CrashEvent(node))
        with pytest.raises(GraphError, match="dead"):
            state.promote([node])

    def test_live_udg_roundtrip(self, udg120):
        state = _state_from(udg120)
        for v in sorted(state.alive)[:10]:
            state.apply(CrashEvent(v))
        udg, to_global = state.live_udg()
        assert udg.n == state.n_live == len(to_global)
        assert set(to_global) == state.alive
        # Edge sets agree under the id mapping.
        g = state.graph()
        for i, j in udg.nx.edges:
            assert g.has_edge(to_global[i], to_global[j])


# ======================================================================
# Repair policies
# ======================================================================

def _damage(state, extra=3):
    """Strip one client of all its dominators (guaranteed deficit) and
    kill `extra` more dominators; returns the live graph and deficit."""
    graph = state.graph()
    client = next(v for v in sorted(state.alive - state.members)
                  if any(w in state.members for w in graph.neighbors(v)))
    for w in list(graph.neighbors(client)):
        if w in state.members:
            state.apply(CrashEvent(w))
    for w in sorted(state.members)[:extra]:
        state.apply(CrashEvent(w))
    graph = state.graph()
    deficit = coverage_deficit(graph, state.members, 3, convention="open")
    assert any(d > 0 for d in deficit.values())
    return graph, deficit


class TestRepairPolicies:
    def test_local_patch_restores_coverage(self, udg120):
        state = _state_from(udg120)
        graph, deficit = _damage(state)
        rng = np.random.default_rng(0)
        instr = Instrumentation.for_n(state.n_live)
        out = LocalPatchRepair().repair(state, graph, deficit, 3,
                                        rng=rng, instr=instr)
        state.promote(out.promoted)
        assert out.repaired
        assert out.messages > 0 and out.rounds > 0
        after = coverage_deficit(state.graph(), state.members, 3,
                                 convention="open")
        assert all(d == 0 for d in after.values())

    def test_local_patch_touches_locally(self, udg120):
        state = _state_from(udg120)
        graph, deficit = _damage(state, extra=0)
        out = LocalPatchRepair().repair(state, graph, deficit, 3,
                                        rng=np.random.default_rng(0),
                                        instr=Instrumentation.for_n(120))
        # Touches a neighborhood, not the deployment.
        assert 0 < len(out.touched) < state.n_live / 2

    def test_local_patch_noop_when_covered(self, udg120):
        state = _state_from(udg120)
        deficit = coverage_deficit(state.graph(), state.members, 3,
                                   convention="open")
        out = LocalPatchRepair().repair(state, state.graph(), deficit, 3,
                                        rng=np.random.default_rng(0),
                                        instr=Instrumentation.for_n(120))
        assert not out.repaired or not out.promoted
        assert out.messages == 0

    def test_orphan_self_promotes(self):
        # Two isolated nodes: one member crashes, the orphan must
        # self-promote (no member neighbor can adopt it).
        udg = random_udg(2, density=0.001, seed=0)
        state = NetworkState.from_udg(udg, members={0})
        state.apply(CrashEvent(0))
        graph = state.graph()
        deficit = coverage_deficit(graph, state.members, 1,
                                   convention="open")
        out = LocalPatchRepair().repair(state, graph, deficit, 1,
                                        rng=np.random.default_rng(0),
                                        instr=Instrumentation.for_n(2))
        assert out.promoted == {1}

    def test_recompute_restores_coverage(self, udg120):
        state = _state_from(udg120)
        graph, deficit = _damage(state)
        out = RecomputeRepair().repair(state, graph, deficit, 3,
                                       rng=np.random.default_rng(0),
                                       instr=Instrumentation.for_n(120))
        state.demote(out.demoted)
        state.promote(out.promoted)
        assert is_k_dominating_set(state.graph(), state.members, 3,
                                   convention="open")
        assert len(out.touched) == state.n_live

    def test_lazy_defers_small_deficits(self, udg120):
        state = _state_from(udg120)
        # k=3 with one dominator killed: worst deficit 1 — deferrable.
        victim = next(iter(state.members))
        state.apply(CrashEvent(victim))
        graph = state.graph()
        deficit = coverage_deficit(graph, state.members, 3,
                                   convention="open")
        policy = LazyRepair(min_coverage=1, max_deficient_fraction=0.9)
        out = policy.repair(state, graph, deficit, 3,
                            rng=np.random.default_rng(0),
                            instr=Instrumentation.for_n(120))
        assert not out.repaired
        assert not out.promoted
        assert out.deferred_deficit == sum(d for d in deficit.values()
                                           if d > 0)

    def test_policies_never_mutate_state(self, udg120):
        state = _state_from(udg120)
        graph, deficit = _damage(state)
        members_before = set(state.members)
        alive_before = set(state.alive)
        for policy in (LocalPatchRepair(), RecomputeRepair(), LazyRepair()):
            policy.repair(state, graph, deficit, 3,
                          rng=np.random.default_rng(0),
                          instr=Instrumentation.for_n(120))
            assert state.members == members_before
            assert state.alive == alive_before

    def test_make_policy(self):
        assert make_policy("local").name == "local"
        assert make_policy("recompute").name == "recompute"
        assert make_policy("lazy").name == "lazy"
        with pytest.raises(GraphError, match="unknown repair policy"):
            make_policy("frantic")


# ======================================================================
# Maintenance loop
# ======================================================================

class TestMaintenanceLoop:
    def test_runs_all_epochs(self, udg120):
        scenario = crash_scenario(120, k=2, epochs=12, kill_fraction=0.2,
                                  seed=0)
        result = run_scenario(scenario, LocalPatchRepair())
        assert len(result.timeline.records) == 12
        assert result.k == 2
        assert result.summary["epochs"] == 12

    def test_members_evolve_but_cover(self, udg120):
        scenario = crash_scenario(120, k=3, epochs=10, kill_fraction=0.3,
                                  seed=1)
        result = run_scenario(scenario, LocalPatchRepair())
        assert result.always_covered
        assert result.summary["drift_total"] > 0

    def test_explicit_schedule(self, udg120):
        members = solve_kmds_udg(udg120, 2, mode="direct", seed=0).members
        victims = sorted(members)[:4]
        scenario = Scenario(
            initial=udg120, k=2, epochs=4,
            streams=[ScheduledCrashes({1: victims})],
            seed=0, initial_members=members,
        )
        result = run_scenario(scenario, LocalPatchRepair())
        rec = result.timeline.records[1]
        assert rec.crashes == len(victims)
        assert rec.fully_covered_after
        assert result.timeline.records[0].crashes == 0

    def test_composed_streams_deterministic(self, udg120):
        def build():
            scenario = crash_scenario(120, k=2, epochs=10,
                                      kill_fraction=0.2, seed=7)
            side = float(np.sqrt(120 / 10.0))
            scenario.streams = list(scenario.streams) + [
                PoissonJoins(0.5, side, seed=8),
                BatteryDecay(0.01, 0.02, jitter=0.1, seed=9),
                MobilityRewiring(GaussianDrift(0.01, seed=10), side,
                                 every=2),
            ]
            return scenario

        a = run_scenario(build(), LocalPatchRepair())
        b = run_scenario(build(), LocalPatchRepair())
        assert a.timeline.to_dicts() == b.timeline.to_dicts()
        assert a.timeline.records[-1].n_live != 120  # churn actually ran

    def test_summary_fields(self, udg120):
        scenario = crash_scenario(120, k=2, epochs=6, kill_fraction=0.2,
                                  seed=3)
        s = run_scenario(scenario, LocalPatchRepair()).summary
        for key in ("availability_mean", "availability_min",
                    "fully_covered_fraction", "messages_total",
                    "touched_per_repair", "locality_mean", "drift_total",
                    "uncovered_epochs"):
            assert key in s
        assert 0.0 <= s["availability_min"] <= s["availability_mean"] <= 1.0

    def test_shared_instrumentation(self, udg120):
        scenario = crash_scenario(120, k=2, epochs=6, kill_fraction=0.2,
                                  seed=3)
        instr = Instrumentation.for_n(120)
        result = MaintenanceLoop(scenario, LocalPatchRepair(),
                                 instrumentation=instr).run()
        assert result.stats.messages_sent == result.summary["messages_total"]


# ======================================================================
# The acceptance scenario (ISSUE acceptance criteria)
# ======================================================================

class TestAcceptanceScenario:
    """n=500 UDG, k=3, kill 20% of dominators over 50 epochs."""

    @pytest.fixture(scope="class")
    def runs(self):
        def cell(policy):
            scenario = crash_scenario(500, k=3, epochs=50,
                                      kill_fraction=0.2,
                                      target="dominators", seed=0)
            return run_scenario(scenario, policy)

        return {"local": cell(LocalPatchRepair()),
                "local2": cell(LocalPatchRepair()),
                "recompute": cell(RecomputeRepair())}

    def test_local_restores_full_coverage_every_epoch(self, runs):
        assert runs["local"].always_covered

    def test_local_sends_fewer_messages(self, runs):
        local = runs["local"].summary["messages_total"]
        recompute = runs["recompute"].summary["messages_total"]
        assert local * 4 <= recompute

    def test_local_touches_fewer_nodes(self, runs):
        local = runs["local"].summary["touched_per_repair"]
        recompute = runs["recompute"].summary["touched_per_repair"]
        assert local < recompute

    def test_deterministic_per_seed(self, runs):
        assert (runs["local"].timeline.to_dicts()
                == runs["local2"].timeline.to_dicts())
        assert runs["local"].final_members == runs["local2"].final_members


# ======================================================================
# Message-transport repair (PatchNode on the simulator data plane)
# ======================================================================

class TestMessageTransportRepair:
    """LocalPatchRepair(transport="message") runs the patch protocol as
    real PatchNode processes through run_protocol, optionally behind a
    MessageLossInjector."""

    def _scenario(self, seed=5):
        return crash_scenario(200, k=3, epochs=10, kill_fraction=0.3,
                              target="dominators", seed=seed)

    def test_constructor_validation(self):
        with pytest.raises(GraphError, match="unknown repair transport"):
            LocalPatchRepair(transport="pigeon")
        with pytest.raises(GraphError, match="loss_rate"):
            LocalPatchRepair(transport="message", loss_rate=1.5)
        with pytest.raises(GraphError, match="patience"):
            LocalPatchRepair(transport="message", patience=0)

    def test_make_policy_threads_transport_kwargs(self):
        policy = make_policy("local", transport="message", loss_rate=0.2)
        assert policy.transport == "message"
        assert policy.loss_rate == 0.2
        assert not policy.shardable
        assert make_policy("local").shardable

    def test_message_transport_not_shardable(self):
        policy = LocalPatchRepair(transport="message")
        with pytest.raises(Exception, match="cannot be sharded"):
            MaintenanceLoop(self._scenario(), policy, shards=2)

    def test_restores_coverage(self):
        policy = LocalPatchRepair(transport="message")
        result = run_scenario(self._scenario(), policy)
        assert result.always_covered
        assert all(r.repair_transport == "message"
                   for r in result.timeline.records)

    def test_loss_zero_matches_analytic_promotions(self):
        """With a deterministic selection policy and no loss, the real
        protocol promotes exactly the nodes the analytic rule promotes."""
        analytic = run_scenario(self._scenario(),
                                LocalPatchRepair("by-id"))
        message = run_scenario(
            self._scenario(),
            LocalPatchRepair("by-id", transport="message", patience=10))
        assert ([r.promoted for r in message.timeline.records]
                == [r.promoted for r in analytic.timeline.records])
        assert message.final_members == analytic.final_members
        assert (message.summary["messages_total"]
                == analytic.summary["messages_total"])
        # The analytic repair charges each message class's bits, as the
        # real protocol's transport does.
        for field in ("messages_sent", "bits_sent", "max_message_bits"):
            assert (getattr(message.stats, field)
                    == getattr(analytic.stats, field)), field

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 16), st.integers(6, 30),
           st.floats(0.2, 0.6), st.integers(2, 4))
    def test_analytic_rule_matches_protocol_on_random_damage(
            self, seed, n, p, k):
        """One repair call on a random graph and member set: the analytic
        rule promotes the nodes, and charges the messages, that the
        lossless protocol does — over every iteration, so a node
        promoted in one iteration adopts in the next on both sides.
        Sparse members and k >= 2 make about one call in ten need a
        second iteration."""
        g = nx.gnp_random_graph(n, p, seed=seed)
        rng = np.random.default_rng(seed)
        members = {v for v in g if rng.random() < 0.15}
        deficit = {v: d for v, d in coverage_deficit(g, members, k).items()
                   if d > 0}
        state = NetworkState({v: (0.0, 0.0) for v in g}, members=members)
        outcomes = [
            LocalPatchRepair("by-id", transport=transport, patience=10
                             ).repair(state, g, deficit, k,
                                      rng=np.random.default_rng(0),
                                      instr=Instrumentation.for_n(n))
            for transport in ("analytic", "message")]
        analytic, message = outcomes
        assert analytic.promoted == message.promoted
        assert analytic.messages == message.messages
        assert state.members == members  # policies never write the state

    def test_loss_inflates_rounds_but_not_coverage(self):
        lossless = run_scenario(
            self._scenario(),
            LocalPatchRepair("by-id", transport="message"))
        lossy = run_scenario(
            self._scenario(),
            LocalPatchRepair("by-id", transport="message", loss_rate=0.8))
        assert lossless.always_covered and lossy.always_covered
        assert (lossy.summary["rounds_per_repair"]
                > lossless.summary["rounds_per_repair"])

    def test_total_loss_still_terminates_and_heals(self):
        """At loss 1.0 nothing is ever delivered: orphans and timed-out
        nodes self-promote, so repair still restores full coverage."""
        policy = LocalPatchRepair(transport="message", loss_rate=1.0)
        result = run_scenario(self._scenario(), policy)
        assert result.always_covered
        assert result.summary["messages_total"] == 0  # delivered traffic

    def test_stats_flow_into_loop_instrumentation(self):
        instr = Instrumentation.for_n(200)
        policy = LocalPatchRepair("by-id", transport="message")
        result = MaintenanceLoop(self._scenario(), policy,
                                 instrumentation=instr).run()
        assert result.stats.messages_sent == result.summary["messages_total"]
        assert result.stats.rounds >= result.summary["rounds_total"]

    def test_policy_never_mutates_state(self, udg120):
        state = _state_from(udg120)
        graph, deficit = _damage(state)
        members_before = set(state.members)
        policy = LocalPatchRepair("by-id", transport="message",
                                  loss_rate=0.5)
        out = policy.repair(state, graph, deficit, 3,
                            rng=np.random.default_rng(0),
                            instr=Instrumentation.for_n(120))
        assert state.members == members_before
        assert out.repaired and out.promoted
        assert out.rounds > 0 and out.iterations > 0


# ======================================================================
# Surplus demotion (Lemma-5.5-style decay)
# ======================================================================

class TestSurplusDemotion:
    def _equal_churn_scenario(self, *, epochs=40, seed=3):
        udg = random_udg(400, density=10.0, seed=seed)
        side = float(udg.points.max())
        streams = [RandomCrashes(6, seed=11),
                   PoissonJoins(6.0, side, seed=12)]
        return Scenario(udg, k=2, epochs=epochs, streams=streams,
                        seed=seed, name="equal-churn")

    def test_demotion_preserves_full_coverage(self):
        scenario = self._equal_churn_scenario()
        result = run_scenario(scenario, LocalPatchRepair(),
                              demote=SurplusDemotion())
        # The loop verifies after churn + repair + decay, so this also
        # certifies that no retirement ever broke coverage.
        assert result.always_covered
        assert all(r.deficient_after == 0 for r in result.timeline)

    def test_demotion_bounds_set_growth_under_equal_churn(self):
        scenario = self._equal_churn_scenario()
        plain = run_scenario(scenario, LocalPatchRepair())
        decay = run_scenario(scenario, LocalPatchRepair(),
                             demote=SurplusDemotion())
        assert sum(r.demoted for r in decay.timeline) > 0
        # The decayed set stays strictly below the promote-only set...
        assert len(decay.final_members) < len(plain.final_members)
        # ...and its long-run size is flat: the second half of the run
        # never exceeds the high-water mark of the first half.
        sizes = [r.n_members for r in decay.timeline]
        half = len(sizes) // 2
        assert max(sizes[half:]) <= max(sizes[:half])

    def test_demote_pass_is_safe_on_static_state(self, udg120):
        # Inflate the set (promote every node), then decay: the result
        # must still be a valid k-fold dominating set.
        state = NetworkState.from_udg(udg120, members=set(range(udg120.n)))
        instr = Instrumentation.for_n(udg120.n)
        out = SurplusDemotion().demote(state, 3, instr=instr)
        assert out.demoted
        state.demote(out.demoted)
        assert is_k_dominating_set(state.graph(), state.members, 3,
                                   convention="open")
        assert out.rounds == 1
        assert out.messages > 0
        assert instr.stats.messages_sent == out.messages

    def test_demotion_matches_bruteforce_safety(self, udg120):
        # Every retirement the pass makes must be one a brute-force
        # oracle would also allow at that point; greedy order is stable,
        # so replaying the demotions one by one verifies each step.
        members = solve_kmds_udg(udg120, 2, mode="direct", seed=1).members
        extra = set(range(0, udg120.n, 3))
        state = NetworkState.from_udg(udg120, members=members | extra)
        instr = Instrumentation.for_n(udg120.n)
        out = SurplusDemotion().demote(state, 2, instr=instr)
        g = state.graph()
        current = set(state.members)
        for v in sorted(out.demoted):
            trial = current - {v}
            assert is_k_dominating_set(g, trial, 2, convention="open")
            current = trial

    def test_max_per_epoch_caps_retirements(self, udg120):
        state = NetworkState.from_udg(udg120, members=set(range(udg120.n)))
        instr = Instrumentation.for_n(udg120.n)
        out = SurplusDemotion(max_per_epoch=2).demote(state, 3, instr=instr)
        assert len(out.demoted) == 2

    def test_max_per_epoch_validated(self):
        with pytest.raises(GraphError, match="max_per_epoch"):
            SurplusDemotion(max_per_epoch=0)

    def test_no_members_is_a_noop(self, udg120):
        state = NetworkState.from_udg(udg120)
        out = SurplusDemotion().demote(
            state, 3, instr=Instrumentation.for_n(udg120.n))
        assert not out.demoted
        assert out.rounds == 0
