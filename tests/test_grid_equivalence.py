"""Grid-dispatch equivalence: ``solve_kmds_udg_grid`` /
``engine.execute_grid`` must be bit-identical to the per-point
``solve_kmds_udg_batch`` double loop for every (graph, k, seed) cell.

This is the contract of the grid-batched backend: stacking topology
CSRs block-diagonally, fusing the k axis over one shared Part I, and
running the adoption phase cross-graph are *execution* strategies —
never visible in the results.  The suite pins cell-level members,
``RunStats`` and details across same-size groups, mixed size and
radius classes, the per-point fallbacks (message mode, ineligible
graphs), the ``timing`` dispatch breakdown, degenerate axes, and native
thread counts (subprocess matrix, since the worker pool is configured
by environment at import-free call time).  Single and replica runs are
one-graph grids on the same kernels, so sampled cells are also checked
against the one independent oracle, the per-node message loop
(``execute(..., reference=True)``), on members and round counts.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.udg import (UDGProgram, solve_kmds_udg_batch,
                            solve_kmds_udg_grid)
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


def _graphs(sizes, base=50):
    return [random_udg(n, density=DENSITY, seed=base + i)
            for i, n in enumerate(sizes)]


def _per_point(graphs, seeds, ks, **kw):
    return [[solve_kmds_udg_batch(g, seeds, k=k, **kw) for k in ks]
            for g in graphs]


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


class TestGridIdentity:
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
        # stacked dispatches; each still matches the per-point loop.
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
        point = solve_kmds_udg_batch(graphs[0], (3,), k=1, mode="message")
        assert res[0][0][0].members == point[0].members

    def test_ineligible_graphs_partition_mixed(self):
        # A sensing subclass the kernels cannot model (bespoke
        # ``neighbors_within``) takes the per-point path while stock
        # graphs -- including one small enough for the fallback
        # streams -- stay on the grid dispatch; every cell still
        # matches the per-point loop.
        class BespokeSensing(UnitDiskGraph):
            def neighbors_within(self, i, radius):
                return super().neighbors_within(i, radius)

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
        point = solve_kmds_udg_batch(graphs[0], (5,), k=2)
        assert res[0][0][0].members == point[0].members

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
