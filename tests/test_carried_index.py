"""The carried dominator index against a fresh full build.

:meth:`~repro.service.snapshot.EpochSnapshot.capture` derives each
published snapshot's dominator index from its predecessor's: the rows
churn may have changed are rebuilt and appended to a copy of the
predecessor's pool, every other row keeps its segment and minimum.  A
missed rule leaves a stale row that no digest of one query kind would
necessarily catch, so this suite drives generated churn streams on
small unit disk graphs through :meth:`CoverageService.step_epoch` and,
after every publish, compares the carried index bit for bit with the
oracle plane (:class:`tests.test_query_plane.ReferencePlane`) and with a
fresh constructor-built snapshot of the same arrays: every row in
order, the min-dominator vector and all four query kinds.  It also
checks which path derived the index, and that a published snapshot
keeps its predecessor alive by no reference.

The streams mix dominator-targeted and uniform crashes, battery drains,
joins (fresh ids, and a node that leaves and rejoins within an epoch),
small moves and a bulk move, repair by :class:`LocalPatchRepair` or
:class:`RecomputeRepair` with or without :class:`SurplusDemotion`, a
``start()`` restart, quiet epochs, and runs long enough to compact.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dynamics import (CrashEvent, DrainEvent, EventStream, JoinEvent,
                            LocalPatchRepair, MaintenanceLoop, MoveEvent,
                            RecomputeRepair, Scenario, SurplusDemotion,
                            crash_scenario)
from repro.graphs.udg import random_udg
from repro.service import CoverageService
from repro.service import queries as qp
from repro.service.snapshot import EpochSnapshot
from tests.test_query_plane import (KINDS, ReferencePlane, assert_bitwise,
                                    index_rows)

#: Churn operations a generated epoch draws from.
OPS = ("crash_member", "crash_any", "drain", "join", "crash_rejoin",
       "move", "bulk_move")


class ScriptedChurn(EventStream):
    """Replays a generated per-epoch script against the live state:
    each operation picks its node by rank among the current members,
    live nodes or a fresh id, so every script is valid on any state."""

    def __init__(self, script, side: float):
        self.script = script
        self.side = side

    def events_at(self, epoch, state):
        ops = self.script[epoch] if epoch < len(self.script) else []
        events = []
        alive = sorted(state.alive)
        members = sorted(state.members)
        fresh = state.next_id()
        gone = set()
        for op, rank, x, y in ops:
            pos = (x * self.side, y * self.side)
            live = [v for v in alive if v not in gone]
            if op == "join":
                events.append(JoinEvent(fresh, pos))
                fresh += 1
            elif len(live) <= 8:
                continue  # keep a network to maintain
            elif op == "crash_member":
                pool = [v for v in members if v not in gone] or live
                v = pool[rank % len(pool)]
                events.append(CrashEvent(v))
                gone.add(v)
            elif op == "crash_any":
                v = live[rank % len(live)]
                events.append(CrashEvent(v))
                gone.add(v)
            elif op == "drain":
                # A full battery empties at 1.0 (the node crashes then).
                v = live[rank % len(live)]
                events.append(DrainEvent(v, 1.0 if rank % 2 else 0.4))
                gone.add(v)
            elif op == "crash_rejoin":
                v = live[rank % len(live)]
                events += [CrashEvent(v), JoinEvent(v, pos)]
            elif op == "move":
                v = live[rank % len(live)]
                events.append(MoveEvent({v: pos}))
            else:  # bulk_move: every positioned node shifts a little
                shift = 0.05 * self.side
                events.append(MoveEvent({
                    v: (p[0] + shift, p[1]) for v, p in
                    state.positions.items()}))
        return events


def _service(n, k, seed, script, policy, demote):
    udg = random_udg(n, density=8.0, seed=seed)
    scenario = Scenario(udg, k=k, epochs=len(script), seed=seed)
    scenario.initial_members = scenario.build_members()
    scenario.streams = [ScriptedChurn(script, float(udg.points.max()))]
    loop = MaintenanceLoop(scenario, policy,
                           demote=SurplusDemotion() if demote else None)
    return CoverageService(loop)


def _rebuilt(snap: EpochSnapshot) -> EpochSnapshot:
    """The same arrays through the constructor: a lazy full build."""
    return EpochSnapshot(epoch=snap.epoch, k=snap.k, nodes=snap.nodes,
                         indptr=snap.indptr, indices=snap.indices,
                         member_mask=snap.member_mask,
                         coverage=snap.coverage, deficit=snap.deficit)


def _rows_by_id(snap: EpochSnapshot):
    indptr, dom_ids = index_rows(snap)
    return {v: dom_ids[indptr[i]:indptr[i + 1]].tobytes()
            for i, v in enumerate(snap.nodes.tolist())}


def assert_index_matches(snap: EpochSnapshot) -> None:
    """The derived index against the oracle plane and a full build:
    every row in order, the minima and all four query kinds."""
    ref = ReferencePlane(snap)
    full = _rebuilt(snap)
    assert_bitwise(index_rows(snap), ref.dominator_csr())
    assert_bitwise(index_rows(full), ref.dominator_csr())
    assert_bitwise(snap.min_dominator(), ref.min_dominator())
    assert_bitwise(full.min_dominator(), ref.min_dominator())
    top = int(snap.nodes.max()) if snap.n else 0
    batch = np.arange(-2, top + 3, dtype=np.int64)
    for kind in KINDS:
        want = getattr(ref, kind)(batch)
        assert_bitwise(qp.answer(snap, kind, batch), want)
        assert_bitwise(qp.answer(full, kind, batch), want)


def assert_pool_shape(snap: EpochSnapshot) -> None:
    """A full build lays rows back to back; a carried pool keeps at most
    as many dead entries as live ones."""
    starts, counts, pool = snap.dominator_csr()
    path = snap.index_path
    live = int(counts.sum())
    if path["path"] == "built":
        assert len(pool) == live
        assert np.array_equal(starts, np.cumsum(counts) - counts)
    else:
        assert len(pool) - live <= live
        assert path["rebuilt_rows"] <= snap.n


def _expected_reason(record, prev, snap, joined):
    """Why the epoch's index must be built in full, or ``None`` when it
    may be carried (or compacted)."""
    if record.moved or record.full_rebuilds:
        return "topology"
    prev_ids = set(prev.nodes.tolist())
    now_ids = set(snap.nodes.tolist())
    if any(v in prev_ids or v not in now_ids for v in joined):
        return "topology"  # a node rejoined, or joined and left
    return None


def _check_publish(prev, snap, record, joined):
    assert_index_matches(snap)
    assert_pool_shape(snap)
    path = snap.index_path
    reason = _expected_reason(record, prev, snap, joined)
    if reason is not None:
        assert path == {"path": "built", "reason": reason}
        return
    assert path["path"] == "carried" or path == {
        "path": "built", "reason": "compaction"}
    if path["path"] == "carried":
        # Every row whose members changed (or that is new) was rebuilt.
        before, after = _rows_by_id(prev), _rows_by_id(snap)
        changed = sum(before.get(v) != row for v, row in after.items())
        assert changed <= path["rebuilt_rows"]
    else:
        # Compaction: the predecessor's pool already outgrew the live
        # entries (dead > live needs pool + appended > 2 live).
        assert len(prev.dominator_csr()[2]) > int(
            snap.dominator_csr()[1].sum())


@st.composite
def churn_scripts(draw):
    epochs = draw(st.integers(1, 9))
    op = st.tuples(st.sampled_from(OPS), st.integers(0, 10 ** 6),
                   st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    # Moves are rare, so most epochs exercise the carry.
    weights = st.sampled_from([0, 0, 0, 1, 1, 2, 3])
    script = []
    for _ in range(epochs):
        ops = draw(st.lists(op, max_size=draw(weights) + 2))
        if not draw(st.integers(0, 5)):
            ops = [o for o in ops if o[0] not in ("move", "bulk_move")]
        script.append(ops)
    return script


def _joined(events):
    return [e.node for e in events if isinstance(e, JoinEvent)]


def _crash_service(n, seed):
    return CoverageService(MaintenanceLoop(
        crash_scenario(n=n, k=2, epochs=3, seed=seed), LocalPatchRepair()))


class TestGeneratedChurn:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(24, 60), st.integers(1, 3), st.integers(0, 2 ** 16),
           churn_scripts(), st.sampled_from(["local", "recompute"]),
           st.booleans(), st.integers(-1, 8))
    def test_carried_index_matches_full_build(self, n, k, seed, script,
                                              policy, demote, restart_at):
        policy = LocalPatchRepair() if policy == "local" \
            else RecomputeRepair()
        service = _service(n, k, seed, script, policy, demote)
        stream = service.loop.scenario.streams[0]
        snap = service.start()
        assert snap.index_path == {"path": "built", "reason": "first"}
        assert_index_matches(snap)
        try:
            for epoch in range(len(script)):
                if epoch == restart_at:
                    snap = service.start()
                    assert snap.index_path == {"path": "built",
                                               "reason": "first"}
                    assert_index_matches(snap)
                    continue
                state = service.loop.state
                events = stream.events_at(service.loop.epochs_completed,
                                          state)
                record, new = service.step_epoch()
                _check_publish(snap, new, record, _joined(events))
                # The published snapshot holds no reference to the one
                # it was carried from.
                gone = weakref.ref(snap)
                snap = new
                gc.collect()
                assert gone() is None
        finally:
            service.close()


class TestPaths:
    def test_long_crash_stream_carries_and_compacts(self):
        """A long stream carries most epochs and compacts when the dead
        entries outgrow the live ones; every epoch matches a full build."""
        scenario = crash_scenario(n=400, k=2, epochs=30, kill_fraction=0.6,
                                  seed=4)
        service = CoverageService(MaintenanceLoop(scenario,
                                                  LocalPatchRepair()))
        paths = [service.start().index_path]
        snap = service.current()
        for _ in range(30):
            record, new = service.step_epoch()
            _check_publish(snap, new, record, [])
            paths.append(new.index_path)
            snap = new
        service.close()
        carried = [p for p in paths if p["path"] == "carried"]
        assert paths[0] == {"path": "built", "reason": "first"}
        assert len(carried) >= 20
        assert {"path": "built", "reason": "compaction"} in paths
        report = service.metrics.report()["dominator_index"]
        assert report["carried"] == len(carried)
        assert report["rows_rebuilt"] == sum(p["rebuilt_rows"]
                                             for p in carried)
        assert report["built"]["first"] == 1
        assert report["built"]["compaction"] == sum(
            p.get("reason") == "compaction" for p in paths)

    def test_constructed_snapshot_builds_lazily(self):
        service = _crash_service(60, 1)
        full = _rebuilt(service.start())
        service.close()
        assert full.index_path is None
        assert full.describe()["dominator_index"] is None
        full.min_dominator()
        assert full.index_path == {"path": "built", "reason": "first"}

    def test_capture_reuses_the_final_verify(self):
        """Capture adopts the loop's final verify (the same arrays) when
        nothing changed since, and recomputes after a promotion."""
        service = _crash_service(80, 2)
        loop = service.loop
        service.start()
        loop.step()
        verified = loop.take_verified()
        assert loop.take_verified() is None
        state = loop.state
        snap = EpochSnapshot.capture(state, 2, 1, verified=verified)
        assert snap.member_mask.base is verified.mask
        assert snap.deficit.base is verified.deficit
        outsider = next(v for v in sorted(state.alive)
                        if v not in state.members)
        state.promote([outsider])
        assert not verified.describes(state.artifacts(), state, 2)
        again = EpochSnapshot.capture(state, 2, 1, verified=verified)
        assert again.member_mask.base is not verified.mask
        assert again.member_mask[state.artifacts().index[outsider]]
        assert_index_matches(again)
        service.close()

    @pytest.mark.parametrize("previous", ["none", "other-state"])
    def test_no_carry_without_a_same_state_predecessor(self, previous):
        first, second = _crash_service(60, 3), _crash_service(60, 3)
        prev = first.start() if previous == "other-state" else None
        second.start()
        snap = EpochSnapshot.capture(second.loop.state, 2, 0,
                                     previous=prev)
        assert snap.index_path == {"path": "built", "reason": "first"}
        first.close()
        second.close()
