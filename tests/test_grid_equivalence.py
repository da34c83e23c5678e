"""Grid-dispatch equivalence: every (graph, k, seed) cell of
``solve_kmds_udg_grid`` must be bit-identical to the single solve
``solve_kmds_udg(g, k, seed=s)``, and ``solve_kmds_udg_batch`` to the
grid's column.

This is the contract of Algorithm 3's one kernel grid: stacking
topology CSRs block-diagonally, fusing the k axis over one shared Part
I, and running the adoption phase cross-graph are *execution*
strategies — never visible in the results.  A generated suite draws
grids of stock, quasi, noisy, bespoke-sensing and empty graphs on both
sides of vecrng's n = 256 stream boundary, at two radii, with
duplicated ks and seeds, under both selection policies, and pins cell
members, ``RunStats`` and details plus the ``timing`` dispatch
breakdown.  Fixed cells (same-size stacks, mixed size and radius
classes) stay beside it, and hand-picked tests cover the per-point
fallbacks (message mode, ineligible graphs), degenerate axes, and
native thread counts
(subprocess matrix, since the worker pool is configured by environment
at import-free call time).  Single solves are 1 x 1 x 1 grids on the
same kernel grid, so sampled cells are also checked against the one
independent oracle, the per-node message loop (``execute(...,
reference=True)``), on members and round counts.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from repro.core.udg import (SELECTION_POLICIES, UDGProgram, solve_kmds_udg,
                            solve_kmds_udg_batch, solve_kmds_udg_grid)
from repro.engine import execute
from repro.errors import GraphError
from repro.graphs.udg import (NoisySensingUDG, QuasiUnitDiskGraph,
                              UnitDiskGraph, random_udg)

SRC = Path(__file__).resolve().parents[1] / "src"

SEEDS = (0, 11)
KS = (1, 3)
DENSITY = 8.0
GRID_N = 300
#: Below 257 nodes the id draws take vecrng's per-node fallback
#: streams; such graphs still run on the grid dispatch.
SMALL_N = 120


class BespokeSensing(UnitDiskGraph):
    """A sensing subclass the kernels cannot model (bespoke
    ``neighbors_within``): its cells run as single solves on the
    per-node loop."""

    def neighbors_within(self, i, radius):
        return super().neighbors_within(i, radius)


def _graphs(sizes, base=50):
    return [random_udg(n, density=DENSITY, seed=base + i)
            for i, n in enumerate(sizes)]


def _per_point(graphs, seeds, ks, **kw):
    return [[[solve_kmds_udg(g, k, seed=s, **kw) for s in seeds]
             for k in ks] for g in graphs]


def _assert_cells_equal(grid, point):
    assert len(grid) == len(point)
    for per_g, per_p in zip(grid, point):
        assert len(per_g) == len(per_p)
        for per_k_g, per_k_p in zip(per_g, per_p):
            assert len(per_k_g) == len(per_k_p)
            for a, b in zip(per_k_g, per_k_p):
                assert a.members == b.members
                assert a.stats == b.stats
                assert a.details == b.details


# ----------------------------------------------------------------------
# Generated grids: every cell equals its single solve
# ----------------------------------------------------------------------

#: Sizes on both sides of the n = 256 stream boundary.
GEN_SIZES = (40, 256, 257, 300)
KINDS = ("stock", "qudg", "noisy", "bespoke", "empty")


@st.composite
def grid_graphs(draw, classes):
    """One graph of a (size, radius) class drawn from ``classes``."""
    kind = draw(st.sampled_from(KINDS))
    event(f"graph: {kind}")
    if kind == "empty":
        return UnitDiskGraph([])
    n, radius = draw(st.sampled_from(classes))
    seed = draw(st.integers(0, 2 ** 16))
    base = random_udg(n, density=DENSITY, radius=radius, seed=seed)
    if kind == "qudg":
        return QuasiUnitDiskGraph(base.points, alpha=0.75 * radius,
                                  radius=radius, seed=seed + 1)
    if kind == "noisy":
        return NoisySensingUDG(base.points, sigma=0.05, radius=radius,
                               noise_seed=seed + 1)
    if kind == "bespoke":
        return BespokeSensing(base.points, radius=radius)
    return base


@st.composite
def grids(draw):
    """1-4 graphs over one or two (size, radius) classes, so that graphs
    often share a class and stack into one dispatch."""
    classes = draw(st.lists(st.tuples(st.sampled_from(GEN_SIZES),
                                      st.sampled_from((1.0, 0.5))),
                            min_size=1, max_size=2))
    graphs = draw(st.lists(grid_graphs(classes), min_size=1, max_size=4))
    stacked = [(g.n, g.radius) for g in graphs
               if g.n and not isinstance(g, BespokeSensing)]
    event(f"largest stacked group: "
          f"{max(map(stacked.count, stacked), default=0)}")
    return graphs


@settings(deadline=None, max_examples=40,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(graphs=grids(),
       ks=st.lists(st.integers(1, 3), min_size=1, max_size=3),
       seeds=st.lists(st.sampled_from((0, 1, 7)), min_size=1, max_size=3),
       policy=st.sampled_from(SELECTION_POLICIES))
def test_grid_cells_equal_single_solves(graphs, ks, seeds, policy):
    event(f"sizes: {sorted({g.n for g in graphs})}")
    timing = {}
    grid = solve_kmds_udg_grid(graphs, seeds, ks, selection_policy=policy,
                               timing=timing)
    _assert_cells_equal(
        grid, _per_point(graphs, seeds, ks, selection_policy=policy))
    for g, per_k in zip(graphs, grid):
        for k, column in zip(ks, per_k):
            _assert_cells_equal(
                [[solve_kmds_udg_batch(g, seeds, k=k,
                                       selection_policy=policy)]],
                [[column]])
    stacked = sum(1 for g in graphs
                  if g.n and not isinstance(g, BespokeSensing))
    per_cell = sum(1 for g in graphs if isinstance(g, BespokeSensing))
    assert timing["grid_graphs"] == stacked
    assert timing["per_point_graphs"] == per_cell
    assert timing["path"] == ("mixed" if stacked and per_cell else
                              "grid" if stacked else "per-point")
    assert (timing["grid_seconds"] > 0.0) == bool(stacked)
    assert (timing["per_point_seconds"] > 0.0) == bool(per_cell)


class TestGridIdentity:
    """Fixed cells beside the generated suite: same-size stacks, mixed
    size and radius classes, one cell, and the by-id policy."""

    def test_same_size_group(self):
        graphs = _graphs((GRID_N, GRID_N, GRID_N))
        grid = solve_kmds_udg_grid(graphs, SEEDS, KS)
        _assert_cells_equal(grid, _per_point(graphs, SEEDS, KS))

    def test_mixed_size_classes(self):
        # Two size groups -> two stacked dispatches, interleaved order
        # preserved in the results.
        graphs = _graphs((GRID_N, 340, GRID_N, 340))
        grid = solve_kmds_udg_grid(graphs, SEEDS, KS)
        _assert_cells_equal(grid, _per_point(graphs, SEEDS, KS))

    def test_single_graph_single_cell(self):
        graphs = _graphs((310,))
        grid = solve_kmds_udg_grid(graphs, (7,), (2,))
        _assert_cells_equal(grid, _per_point(graphs, (7,), (2,)))

    def test_by_id_policy(self):
        graphs = _graphs((GRID_N, GRID_N))
        grid = solve_kmds_udg_grid(graphs, SEEDS, KS,
                                   selection_policy="by-id")
        _assert_cells_equal(
            grid, _per_point(graphs, SEEDS, KS, selection_policy="by-id"))

    def test_same_size_mixed_radii(self):
        # Equal n, different radii -> different theta schedules, so two
        # stacked dispatches; each still matches the single solves.
        graphs = [random_udg(GRID_N, radius=r, density=DENSITY, seed=60 + i)
                  for i, r in enumerate((1.0, 0.5, 1.0, 0.5))]
        grid = solve_kmds_udg_grid(graphs, SEEDS, KS)
        _assert_cells_equal(grid, _per_point(graphs, SEEDS, KS))


class TestReferenceOracle:
    """Grid cells against the per-node message loop, across vecrng's
    routing boundary (n = 256 takes the fallback streams, n = 257 the
    vector engine) and the geometric variants the kernels model."""

    @staticmethod
    def _graphs():
        base = random_udg(GRID_N, density=DENSITY, seed=81)
        return [random_udg(SMALL_N, density=DENSITY, seed=80),
                random_udg(256, density=DENSITY, seed=82),
                random_udg(257, density=DENSITY, seed=83),
                base,
                QuasiUnitDiskGraph(base.points, alpha=0.75, seed=84),
                NoisySensingUDG(base.points, sigma=0.05, noise_seed=85),
                random_udg(600, density=DENSITY, seed=86)]

    @pytest.mark.parametrize("policy", ("random", "by-id"))
    def test_cells_match_reference(self, policy):
        graphs = self._graphs()
        timing = {}
        grid = solve_kmds_udg_grid(graphs, SEEDS, KS,
                                   selection_policy=policy, timing=timing)
        assert timing["path"] == "grid"
        for g, per_k in zip(graphs, grid):
            for k, per_seed in zip(KS, per_k):
                for seed, cell in zip(SEEDS, per_seed):
                    ref = execute(UDGProgram(g, k, policy, seed), "direct",
                                  seed=seed, reference=True)
                    assert cell.members == ref.members
                    assert cell.stats.rounds == ref.stats.rounds


class TestFallbacks:
    def test_message_mode_goes_per_point(self):
        graphs = _graphs((40,))
        timing = {}
        res = solve_kmds_udg_grid(graphs, (3,), (1,), mode="message",
                                  timing=timing)
        assert timing["path"] == "per-point"
        point = solve_kmds_udg(graphs[0], 1, mode="message", seed=3)
        assert res[0][0][0].members == point.members
        assert res[0][0][0].stats == point.stats

    def test_ineligible_graphs_partition_mixed(self):
        # A sensing subclass the kernels cannot model (bespoke
        # ``neighbors_within``) takes the per-point path while stock
        # graphs -- including one small enough for the fallback
        # streams -- stay on the grid dispatch; every cell still
        # matches the per-point loop.
        stock = _graphs((GRID_N, GRID_N))
        exotic = BespokeSensing(random_udg(GRID_N, density=DENSITY,
                                           seed=99).points)
        small = _graphs((SMALL_N,), base=77)[0]
        graphs = [stock[0], exotic, stock[1], small]
        timing = {}
        grid = solve_kmds_udg_grid(graphs, SEEDS, (1,), timing=timing)
        assert timing["path"] == "mixed"
        assert timing["grid_graphs"] == 3
        assert timing["per_point_graphs"] == 1
        _assert_cells_equal(grid, _per_point(graphs, SEEDS, (1,)))


class TestTimingAndShapes:
    def test_timing_dict_grid_path(self):
        graphs = _graphs((GRID_N, GRID_N))
        timing = {}
        solve_kmds_udg_grid(graphs, SEEDS, KS, timing=timing)
        assert timing["path"] == "grid"
        assert timing["grid_graphs"] == 2
        assert timing["per_point_graphs"] == 0
        assert timing["grid_seconds"] > 0.0
        assert timing["per_point_seconds"] == 0.0

    def test_empty_axes(self):
        graphs = _graphs((310,))
        assert solve_kmds_udg_grid(graphs, SEEDS, ()) == [[]]
        res = solve_kmds_udg_grid(graphs, (), KS)
        assert res == [[[], []]]

    def test_empty_graph_cell(self):
        empty = UnitDiskGraph([])
        graphs = [_graphs((310,))[0], empty]
        res = solve_kmds_udg_grid(graphs, (5,), (2,))
        assert res[1][0][0].members == set()
        point = solve_kmds_udg(graphs[0], 2, seed=5)
        assert res[0][0][0].members == point.members

    def test_bad_k_rejected(self):
        with pytest.raises(GraphError):
            solve_kmds_udg_grid(_graphs((SMALL_N,)), SEEDS, (1, 0))
        with pytest.raises(GraphError):
            solve_kmds_udg_grid(_graphs((SMALL_N,)), SEEDS, KS,
                                selection_policy="nope")


# One rendered scenario per runtime configuration: members of every
# (graph, k, seed) cell as sorted lists, JSON on the last stdout line.
_SUBPROCESS_SCRIPT = r'''
import json
from repro.core.udg import solve_kmds_udg_grid
from repro.graphs.udg import random_udg
graphs = [random_udg(n, density=8.0, seed=50 + i)
          for i, n in enumerate((300, 320, 300))]
res = solve_kmds_udg_grid(graphs, (0, 11), (1, 3))
print(json.dumps([[[sorted(ds.members) for ds in per_k]
                   for per_k in per_g] for per_g in res]))
'''


def _run_grid_subprocess(env_overrides):
    env = {**os.environ, "PYTHONPATH": str(SRC), **env_overrides}
    out = subprocess.run([sys.executable, "-c", _SUBPROCESS_SCRIPT],
                         capture_output=True, text=True, env=env,
                         timeout=300)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


class TestRuntimeMatrix:
    """The same grid under every native runtime configuration.

    Thread count and the native/numpy choice are execution details; the
    slab scheduler partitions per-lane work over contiguous ranges, so
    any worker count — and the numpy fallback — must produce the same
    cells.  Subprocesses, because the worker pool and the library
    handle are process-wide.
    """

    @pytest.fixture(scope="class")
    def reference(self):
        return _run_grid_subprocess({})

    @pytest.mark.parametrize("env", [
        {"REPRO_NATIVE_THREADS": "1"},
        {"REPRO_NATIVE_THREADS": "4"},
        {"REPRO_NATIVE": "0"},
    ], ids=["threads-1", "threads-4", "numpy-only"])
    def test_configuration_matches_default(self, env, reference):
        assert _run_grid_subprocess(env) == reference
