"""Generated churn streams through the maintenance loop on both providers.

The churn-stream fuzzer: Hypothesis draws a deployment (n, k, seed) and
a per-epoch script of crashes (of dominators and of any node), battery
drains, joins (fresh ids, and a node that crashes and rejoins within
the epoch) and single-node moves, which stay far below the bulk-move
cutoff, so every epoch patches the live artifacts through one
``ArtifactDelta`` batch.  A second strategy adds bulk moves, which
rebuild the artifacts, and runs a ``SurplusDemotion`` pass after every
repair.  The same stream runs through :class:`MaintenanceLoop` under
the ``native`` and the ``numpy`` kernel providers.  The two runs must
give equal ``EpochRecord``s, final member and live sets, ``RunStats``
and verify paths, and the local repair must leave every epoch fully
covered.

Every verify the loop makes is checked against the full one: the
coverage vectors it carries through churn and repair must equal
``coverage_vectors`` of the live artifacts and members at that point.
``advance_coverage`` is also checked on its own, over the artifacts
suite's generated graphs and edit batches.  Targeted cases pin the full
verify's triggers and the no-event carry.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import _native
from repro.core.verify import advance_coverage, coverage_vectors
from repro.dynamics import (
    LocalPatchRepair,
    MaintenanceLoop,
    Scenario,
    SurplusDemotion,
)
from repro.graphs.udg import random_udg
from tests.test_artifacts import (GRAPH_KINDS, ReferenceDelta, _graph, _pair,
                                  epochs)
from tests.test_carried_index import ScriptedChurn

#: The operations an epoch draws from (ScriptedChurn's, minus its bulk
#: move, which rebuilds the artifacts instead of patching them).
OPS = ("crash_member", "crash_any", "drain", "join", "crash_rejoin", "move")

needs_native = pytest.mark.skipif(not _native.available(),
                                  reason="compiled kernels unavailable")


class CheckedLoop(MaintenanceLoop):
    """A loop that checks each verify's vectors against the full one,
    and keeps them in ``checked``."""

    def start(self):
        self.checked = []
        return super().start()

    def _shortfalls(self, state, k):
        shortfalls = super()._shortfalls(state, k)
        if state.incremental:
            kept = self.take_verified()
            self.checked.append(kept)
            art = state.artifacts()
            assert kept.version == art.version
            assert kept.members_version == state.members_version
            for got, want in zip((kept.mask, kept.counts, kept.deficit),
                                 coverage_vectors(art, state.members, k)):
                np.testing.assert_array_equal(got, want)
                assert got.dtype == want.dtype
            nodes = art.nodes
            assert shortfalls == {nodes[i]: int(kept.deficit[i])
                                  for i in np.flatnonzero(kept.deficit)}
        return shortfalls


def churn_scripts(ops):
    op = st.tuples(st.sampled_from(ops), st.integers(0, 10 ** 6),
                   st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    return st.lists(st.lists(op, max_size=8), min_size=1, max_size=6)


def _run(provider, n, k, seed, script, shards, demote=False):
    saved = os.environ.get("REPRO_KERNEL_BACKEND")
    os.environ["REPRO_KERNEL_BACKEND"] = provider
    try:
        udg = random_udg(n, density=8.0, seed=seed)
        scenario = Scenario(udg, k=k, epochs=len(script), seed=seed)
        scenario.streams = [ScriptedChurn(script, float(udg.points.max()))]
        return CheckedLoop(scenario, LocalPatchRepair(), shards=shards,
                           demote=SurplusDemotion() if demote else None
                           ).run()
    finally:
        if saved is None:
            os.environ.pop("REPRO_KERNEL_BACKEND", None)
        else:
            os.environ["REPRO_KERNEL_BACKEND"] = saved


def _same_runs(native, numpy, script):
    records = list(native.timeline)
    assert records == list(numpy.timeline)
    assert native.final_members == numpy.final_members
    assert native.final_live == numpy.final_live
    assert native.stats == numpy.stats
    assert native.verify_paths == numpy.verify_paths
    assert len(records) == len(script)
    paths = native.verify_paths
    # The start's verify plus two per epoch.
    assert paths["carried"] + sum(paths["full"].values()) \
        == 1 + 2 * len(script)
    assert paths["full"]["first"] == 1
    for record in records:
        assert record.fully_covered_after, record
    return records, paths


@needs_native
@settings(max_examples=25, deadline=None)
@given(st.integers(20, 120), st.integers(1, 3), st.integers(0, 2 ** 16),
       churn_scripts(OPS), st.sampled_from([None, 2]))
def test_stream_is_provider_independent(n, k, seed, script, shards):
    native = _run("native", n, k, seed, script, shards)
    numpy = _run("numpy", n, k, seed, script, shards)
    records, paths = _same_runs(native, numpy, script)
    for record in records:
        assert record.full_rebuilds == 0, record
    # Every verify after the first carries.
    assert paths["carried"] == 2 * len(script)


@needs_native
@settings(max_examples=20, deadline=None)
@given(st.integers(20, 100), st.integers(1, 3), st.integers(0, 2 ** 16),
       churn_scripts(OPS + ("bulk_move",)), st.sampled_from([None, 2]))
def test_bulk_moves_and_decay(n, k, seed, script, shards):
    native = _run("native", n, k, seed, script, shards, demote=True)
    numpy = _run("numpy", n, k, seed, script, shards, demote=True)
    records, paths = _same_runs(native, numpy, script)
    # A bulk move rebuilds the artifacts: that epoch's churn verify runs
    # in full, and the rest carry.
    rebuilt = sum(1 for record in records if record.full_rebuilds)
    assert paths["full"]["rebuild"] == rebuilt
    assert paths["carried"] == 2 * len(script) - rebuilt


#: The artifacts suite's generated graphs minus self-loops, which are
#: outside the carry's contract (the loop verifies them in full).
carry_graphs = st.builds(
    _graph, st.sampled_from([kind for kind in GRAPH_KINDS
                             if kind != "selfloop"]),
    st.integers(0, 14), st.integers(0, 2 ** 16))


@settings(max_examples=60, deadline=None)
@given(carry_graphs, st.integers(0, 3), st.data())
def test_advance_coverage_matches_full_verify(g, k, data):
    """The carry on its own, chained over generated edit batches (any
    labels; added nodes may join the set, removed ones leave it) and
    membership flips, against ``coverage_vectors`` after each; its
    inputs are never written."""
    def some_nodes(max_size=None):
        return (st.lists(st.sampled_from(ref.nodes), unique=True,
                         max_size=max_size) if ref.nodes else st.just([]))

    art, ref = _pair(g)
    delta, oracle = art.delta_patcher(), ReferenceDelta(ref)
    members = set(data.draw(some_nodes()))
    mask, counts, _ = coverage_vectors(art, members, k)
    counter = [0]
    for _ in range(data.draw(st.integers(1, 4))):
        edits = data.draw(epochs(ref, counter))
        slots = delta.apply(edits)
        oracle.apply(edits)
        for edit in edits:
            if edit[0] == "remove":
                members.discard(edit[1])
            elif edit[0] == "add" and data.draw(st.booleans()):
                members.add(edit[1])
        changed = set(data.draw(some_nodes(max_size=5)))
        members ^= changed
        inputs = (mask.copy(), counts.copy())
        got = advance_coverage(art, mask, counts, k, members, slots=slots,
                               changed=changed)
        for before, after in zip(inputs, (mask, counts)):
            np.testing.assert_array_equal(before, after)
        for carried, full in zip(got, coverage_vectors(art, members, k)):
            np.testing.assert_array_equal(carried, full)
            assert carried.dtype == full.dtype
        mask, counts = got[0], got[1]


def _loop(script, n=80, k=2, seed=5, demote=None):
    udg = random_udg(n, density=8.0, seed=seed)
    scenario = Scenario(udg, k=k, epochs=len(script), seed=seed)
    scenario.streams = [ScriptedChurn(script, float(udg.points.max()))]
    return CheckedLoop(scenario, LocalPatchRepair(), demote=demote)


class TestVerifyPaths:
    def test_outside_promotion_takes_the_full_path(self):
        crash = [("crash_member", 3, 0.5, 0.5)] * 3
        loop = _loop([crash, crash])
        state = loop.start()
        loop.step()
        outsider = next(v for v in sorted(state.alive)
                        if v not in state.members)
        state.promote([outsider])
        loop.step()
        assert loop.verify_paths == {
            "carried": 3,
            "full": {"first": 1, "rebuild": 0, "self-loops": 0,
                     "members": 1, "not-incremental": 0}}
        assert outsider in loop.finish().final_members

    def test_epoch_without_events_carries_its_vectors_unchanged(self):
        loop = _loop([[]])
        state = loop.start()
        record = loop.step()
        before, _, after = loop.checked
        assert record.deficient_before == record.promoted == 0
        assert after.mask is before.mask
        assert after.counts is before.counts
        np.testing.assert_array_equal(after.deficit, before.deficit)
        assert after.version == before.version == state.artifacts().version
        assert loop.verify_paths["carried"] == 2

    def test_carry_never_writes_handed_out_vectors(self):
        """A quiet epoch whose decay pass demotes: the post-repair carry
        starts from the vectors the start's verify handed out (and a
        snapshot may hold), so it must write new arrays."""
        loop = _loop([[]], demote=SurplusDemotion())
        loop.start()
        first = loop.checked[0]
        kept = [a.copy() for a in (first.mask, first.counts, first.deficit)]
        record = loop.step()
        assert record.demoted > 0 and record.crashes == 0
        assert loop.verify_paths["carried"] == 2
        for a, copy in zip((first.mask, first.counts, first.deficit), kept):
            np.testing.assert_array_equal(a, copy)
        assert loop.checked[-1].mask is not first.mask

    def test_not_incremental_verifies_in_full(self):
        crash = [("crash_member", 1, 0.5, 0.5)] * 2
        udg = random_udg(60, density=8.0, seed=2)
        scenario = Scenario(udg, k=2, epochs=2, seed=2)
        scenario.streams = [ScriptedChurn([crash, crash],
                                          float(udg.points.max()))]
        result = MaintenanceLoop(scenario, LocalPatchRepair(),
                                 incremental=False).run()
        assert result.verify_paths["carried"] == 0
        assert result.verify_paths["full"]["not-incremental"] == 4
        assert result.always_covered
