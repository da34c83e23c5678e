"""Generated churn streams through the maintenance loop on both providers.

The first slice of the churn-stream fuzzer: Hypothesis draws a
deployment (n, k, seed) and a per-epoch script of crashes (of
dominators and of any node), battery drains, joins (fresh ids, and a
node that crashes and rejoins within the epoch) and single-node moves,
which stay far below the bulk-move cutoff, so every epoch patches the
live artifacts through one ``ArtifactDelta`` batch.  The same stream
runs through :class:`MaintenanceLoop` under the ``native`` and the
``numpy`` kernel providers.  The two runs must give equal
``EpochRecord``s, final member and live sets and ``RunStats``, and the
local repair must leave every epoch fully covered.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import _native
from repro.dynamics import LocalPatchRepair, MaintenanceLoop, Scenario
from repro.graphs.udg import random_udg
from tests.test_carried_index import ScriptedChurn

#: The operations an epoch draws from (ScriptedChurn's, minus its bulk
#: move, which rebuilds the artifacts instead of patching them).
OPS = ("crash_member", "crash_any", "drain", "join", "crash_rejoin", "move")


@st.composite
def churn_scripts(draw):
    op = st.tuples(st.sampled_from(OPS), st.integers(0, 10 ** 6),
                   st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    return draw(st.lists(st.lists(op, max_size=8), min_size=1,
                         max_size=6))


def _run(provider, n, k, seed, script, shards):
    saved = os.environ.get("REPRO_KERNEL_BACKEND")
    os.environ["REPRO_KERNEL_BACKEND"] = provider
    try:
        udg = random_udg(n, density=8.0, seed=seed)
        scenario = Scenario(udg, k=k, epochs=len(script), seed=seed)
        scenario.streams = [ScriptedChurn(script, float(udg.points.max()))]
        return MaintenanceLoop(scenario, LocalPatchRepair(),
                               shards=shards).run()
    finally:
        if saved is None:
            os.environ.pop("REPRO_KERNEL_BACKEND", None)
        else:
            os.environ["REPRO_KERNEL_BACKEND"] = saved


@pytest.mark.skipif(not _native.available(),
                    reason="compiled kernels unavailable")
@settings(max_examples=25, deadline=None)
@given(st.integers(20, 120), st.integers(1, 3), st.integers(0, 2 ** 16),
       churn_scripts(), st.sampled_from([None, 2]))
def test_stream_is_provider_independent(n, k, seed, script, shards):
    native = _run("native", n, k, seed, script, shards)
    numpy = _run("numpy", n, k, seed, script, shards)
    records = list(native.timeline)
    assert records == list(numpy.timeline)
    assert native.final_members == numpy.final_members
    assert native.final_live == numpy.final_live
    assert native.stats == numpy.stats
    assert len(records) == len(script)
    for record in records:
        assert record.fully_covered_after, record
        assert record.full_rebuilds == 0, record
