"""Unit tests for the vectorized per-(replica, graph, node) RNG streams
(:mod:`repro.simulation.vecrng`).

The module's contract is bit-exactness against numpy's own generators:
every draw a lane makes must equal what the corresponding
``spawn_node_rngs`` generator would have produced, so replica ``r`` of
a replica sweep is indistinguishable from a single-run pool seeded with
``seeds[r]`` and graph ``g`` of a grid from a pool over its own nodes.
These tests pin that contract plus the edge cases the engine relies on:
lane handoff to materialized generators, the ``bounded_ranges`` 32-bit
fallback routing, masked draws with ``need`` and ``out=``, and
native-vs-numpy equality for the compiled masked-draw kernel.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.simulation import vecrng
from repro.simulation.rng import spawn_node_rngs
from repro.simulation.vecrng import (grid_streams, node_stream_pool,
                                     replica_node_streams)

# > 2^32 inclusive width: Lemire's 64-bit path, so the vector engine is
# eligible.  (The engine samples integers(1, high + 1); the inclusive
# width callers declare via bounded_ranges is high - 1.)
HIGH = 10 ** 15
RANGES = (HIGH - 1,)
N = 8
SEEDS = (0, 7, 123456789)


def _reference(seed, n=N):
    return spawn_node_rngs(range(n), seed)


def _ref_ints(rngs, high=HIGH, n=N):
    return [int(rngs[v].integers(1, high + 1)) for v in range(n)]


# ----------------------------------------------------------------------
# Replica bit-exactness: lane (r, v) == single pool seeded seeds[r]
# ----------------------------------------------------------------------

class TestReplicaBitExactness:
    def test_replica_lanes_equal_single_pools(self):
        streams = replica_node_streams(range(N), SEEDS,
                                       bounded_ranges=RANGES)
        all_lanes = np.arange(streams.replicas * N)
        rounds = [streams.draw_ints(all_lanes, HIGH).reshape(-1, N)
                  for _ in range(2)]
        for r, seed in enumerate(SEEDS):
            pool = node_stream_pool(range(N), seed, bounded_ranges=RANGES)
            for drawn in rounds:  # stream positions must track per round
                want = pool.draw_ints(np.arange(N), HIGH)
                assert drawn[r].tolist() == want.tolist()

    def test_replica_streams_equal_real_generators(self):
        streams = replica_node_streams(range(N), SEEDS,
                                       bounded_ranges=RANGES)
        refs = [_reference(s) for s in SEEDS]
        all_lanes = np.arange(streams.replicas * N)
        for _ in range(3):  # rejection re-draws happen across rounds
            drawn = streams.draw_ints(all_lanes, HIGH).reshape(-1, N)
            for r in range(len(SEEDS)):
                assert drawn[r].tolist() == _ref_ints(refs[r])

    def test_random_draws_equal_real_generators(self):
        streams = replica_node_streams(range(N), SEEDS[:2],
                                       bounded_ranges=RANGES)
        refs = [_reference(s) for s in SEEDS[:2]]
        drawn = streams.random(np.arange(2 * N)).reshape(-1, N)
        for r in range(2):
            assert drawn[r].tolist() == [refs[r][v].random()
                                         for v in range(N)]

    def test_batch_composition_does_not_perturb_streams(self):
        # Hammering replica 0 must leave replica 1's sequence untouched.
        streams = replica_node_streams(range(N), SEEDS[:2],
                                       bounded_ranges=RANGES)
        for _ in range(5):
            streams.draw_ints(np.arange(N), HIGH)  # replica 0 only
        ref = _reference(SEEDS[1])
        drawn = streams.draw_ints(np.arange(N) + N, HIGH)
        assert drawn.tolist() == _ref_ints(ref)

    def test_duplicate_seeds_yield_identical_independent_replicas(self):
        streams = replica_node_streams(range(N), (3, 3),
                                       bounded_ranges=RANGES)
        a = streams.draw_ints(np.arange(N), HIGH)
        b = streams.draw_ints(np.arange(N) + N, HIGH)
        assert a.tolist() == b.tolist()

    @pytest.mark.parametrize("ranges,high", [(RANGES, HIGH),
                                             ((1000,), 1000)],
                             ids=["vector", "fallback"])
    def test_grid_lanes_equal_single_pools(self, ranges, high):
        # Lane r * total + offsets[g] + i is node i of graph g in
        # replica r, on both stream classes.
        counts = (3, N, 5)
        streams = grid_streams(counts, SEEDS[:2], bounded_ranges=ranges)
        assert streams.total == sum(counts)
        drawn = streams.draw_ints(np.arange(2 * streams.total), high)
        drawn = drawn.reshape(2, streams.total)
        for r, seed in enumerate(SEEDS[:2]):
            for g, n_g in enumerate(counts):
                off = int(streams.offsets[g])
                ref = _reference(seed, n=n_g)
                assert drawn[r, off:off + n_g].tolist() \
                    == _ref_ints(ref, high=high, n=n_g)

    def test_flat_lane_arithmetic(self):
        streams = replica_node_streams(range(N), SEEDS,
                                       bounded_ranges=RANGES)
        assert streams.n == N
        assert streams.replicas == len(SEEDS)
        assert streams.flat_lane(2, 3) == 2 * N + 3

    def test_heavy_rejection_matches_reference(self):
        # high ~ 2^62 makes Lemire reject ~a quarter of all raw words,
        # so the retry loop runs hot; positions must still track exactly.
        high = (1 << 62) + 11
        streams = replica_node_streams(range(N), SEEDS[:2],
                                       bounded_ranges=(high - 1,))
        refs = [_reference(s) for s in SEEDS[:2]]
        for _ in range(4):
            drawn = streams.draw_ints(np.arange(2 * N), high).reshape(-1, N)
            for r in range(2):
                assert drawn[r].tolist() == _ref_ints(refs[r], high=high)

    def test_empty_seed_list(self):
        streams = replica_node_streams(range(N), (), bounded_ranges=RANGES)
        assert streams.replicas == 0
        out = streams.draw_ints(np.array([], dtype=np.int64), HIGH)
        assert out.size == 0


# ----------------------------------------------------------------------
# Lane handoff: generator(lane) claims a stream for per-node code
# ----------------------------------------------------------------------

class TestGeneratorHandoff:
    def test_generator_continues_stream_in_place(self):
        pool = node_stream_pool(range(N), 5, bounded_ranges=RANGES)
        ref = _reference(5)
        pool.draw_ints(np.arange(N), HIGH)
        _ref_ints(ref)
        gen = pool.generator(2)
        assert gen.random() == ref[2].random()
        assert gen.integers(1, HIGH + 1) == ref[2].integers(1, HIGH + 1)

    def test_generator_is_memoized(self):
        pool = node_stream_pool(range(N), 5, bounded_ranges=RANGES)
        assert pool.generator(2) is pool.generator(2)

    def test_vector_draw_on_claimed_lane_raises(self):
        pool = node_stream_pool(range(N), 5, bounded_ranges=RANGES)
        pool.generator(3)
        with pytest.raises(RuntimeError, match="owned by materialized"):
            pool.draw_ints(np.arange(N), HIGH)
        with pytest.raises(RuntimeError, match="owned by materialized"):
            pool.random(np.arange(N))
        mask = np.ones(N, dtype=bool)
        with pytest.raises(RuntimeError, match="owned by materialized"):
            pool.draw_ints_masked(mask, HIGH)

    def test_masked_draw_skipping_claimed_lane_is_fine(self):
        pool = node_stream_pool(range(N), 5, bounded_ranges=RANGES)
        ref = _reference(5)
        gen = pool.generator(3)
        mask = np.ones(N, dtype=bool)
        mask[3] = False
        drawn = pool.draw_ints_masked(mask, HIGH)
        want = [int(ref[v].integers(1, HIGH + 1)) for v in range(N)
                if v != 3]
        assert drawn[mask].tolist() == want
        # The claimed lane's stream position is untouched by the draw.
        assert gen.integers(1, HIGH + 1) == ref[3].integers(1, HIGH + 1)

    def test_claimed_lane_raises_on_replica_streams(self):
        streams = replica_node_streams(range(N), SEEDS[:2],
                                       bounded_ranges=RANGES)
        streams.generator(N + 1)  # node 1 of replica 1
        with pytest.raises(RuntimeError, match="owned by materialized"):
            streams.draw_ints(np.arange(2 * N), HIGH)
        # Replica 0's lanes remain vector-drawable.
        ref = _reference(SEEDS[0])
        assert streams.draw_ints(np.arange(N), HIGH).tolist() \
            == _ref_ints(ref)

    def test_claimed_lane_raises_on_native_sized_masked_draw(self):
        # 2048+ lanes routes masked draws through the compiled kernel
        # when it is available; the ownership check must fire first
        # (and identically without the native module).
        n = 1024
        streams = replica_node_streams(
            range(n), (0, 1), bounded_ranges=RANGES)
        streams.generator(5)
        with pytest.raises(RuntimeError, match="owned by materialized"):
            streams.draw_ints_masked(np.ones(2 * n, dtype=bool), HIGH)


# ----------------------------------------------------------------------
# bounded_ranges routing: the 32-bit buffered sampler needs the fallback
# ----------------------------------------------------------------------

class TestBoundedRangesRouting:
    def test_small_range_selects_fallback_pool(self):
        pool = node_stream_pool(range(N), 0, bounded_ranges=(1000,))
        assert isinstance(pool, vecrng._FallbackStreams)
        ref = _reference(0)
        assert pool.draw_ints(np.arange(N), 1000).tolist() \
            == _ref_ints(ref, high=1000)

    def test_boundary_width_selects_fallback(self):
        # 2^32 - 1 is the last width numpy serves from the buffered
        # 32-bit sampler; 2^32 is the first Lemire-64 width.
        small = node_stream_pool(range(2), 0, bounded_ranges=((1 << 32) - 1,))
        assert isinstance(small, vecrng._FallbackStreams)
        large = node_stream_pool(range(2), 0, bounded_ranges=((1 << 32),))
        assert not isinstance(large, vecrng._FallbackStreams)

    def test_full_width_selects_fallback(self):
        # 2^64 - 1 (integers(0, 2^64)) is masked, not Lemire: fallback.
        pool = node_stream_pool(range(2), 0, bounded_ranges=((1 << 64) - 1,))
        assert isinstance(pool, vecrng._FallbackStreams)

    def test_small_range_selects_replica_fallback(self):
        streams = replica_node_streams(range(N), SEEDS[:2],
                                       bounded_ranges=(1000,))
        assert isinstance(streams, vecrng._FallbackStreams)
        refs = [_reference(s) for s in SEEDS[:2]]
        drawn = streams.draw_ints(np.arange(2 * N), 1000).reshape(-1, N)
        for r in range(2):
            assert drawn[r].tolist() == _ref_ints(refs[r], high=1000)

    def test_fallback_replica_masked_draw_and_generator(self):
        streams = replica_node_streams(range(N), SEEDS[:2],
                                       bounded_ranges=(1000,))
        ref = _reference(SEEDS[1])
        mask = np.zeros(2 * N, dtype=bool)
        mask[N:] = True
        drawn = streams.draw_ints_masked(mask, 1000)
        assert drawn[N:].tolist() == _ref_ints(ref, high=1000)
        assert drawn[:N].tolist() == [0] * N  # generic form zero-fills
        gen = streams.generator(N + 4)
        assert gen.integers(1, 1001) == ref[4].integers(1, 1001)

    def test_self_test_failure_routes_everyone_to_fallback(self, monkeypatch):
        monkeypatch.setattr(vecrng, "_vector_verified", None)
        monkeypatch.setattr(vecrng, "_self_test", lambda: False)
        pool = node_stream_pool(range(N), 0, bounded_ranges=RANGES)
        assert isinstance(pool, vecrng._FallbackStreams)
        streams = replica_node_streams(range(N), SEEDS[:2],
                                       bounded_ranges=RANGES)
        assert isinstance(streams, vecrng._FallbackStreams)

    def test_self_test_passes_for_real(self):
        assert vecrng._self_test()


# ----------------------------------------------------------------------
# Masked draws: need sparsification and the out= value plane
# ----------------------------------------------------------------------

class TestMaskedDraws:
    def test_masked_equals_gathered(self):
        a = node_stream_pool(range(N), 9, bounded_ranges=RANGES)
        b = node_stream_pool(range(N), 9, bounded_ranges=RANGES)
        mask = np.array([True, False, True, True, False, True, False, True])
        lanes = np.nonzero(mask)[0]
        drawn = a.draw_ints_masked(mask, HIGH)
        assert drawn[mask].tolist() == b.draw_ints(lanes, HIGH).tolist()
        # Idle lanes kept their stream positions.
        idle = np.nonzero(~mask)[0]
        assert a.draw_ints(idle, HIGH).tolist() \
            == b.draw_ints(idle, HIGH).tolist()

    def test_need_advances_streams_identically(self):
        a = node_stream_pool(range(N), 11, bounded_ranges=RANGES)
        b = node_stream_pool(range(N), 11, bounded_ranges=RANGES)
        mask = np.ones(N, dtype=bool)
        need = np.zeros(N, dtype=bool)
        need[::2] = True
        with_need = a.draw_ints_masked(mask, HIGH, need=need)
        full = b.draw_ints_masked(mask, HIGH)
        assert with_need[need].tolist() == full[need].tolist()
        # Unneeded lanes still consumed their word: next draws agree.
        assert a.draw_ints(np.arange(N), HIGH).tolist() \
            == b.draw_ints(np.arange(N), HIGH).tolist()

    def test_out_written_in_place_and_returned(self):
        pool = node_stream_pool(range(N), 13, bounded_ranges=RANGES)
        sentinel = np.full(N, -77, dtype=np.int64)
        mask = np.zeros(N, dtype=bool)
        mask[2:5] = True
        ret = pool.draw_ints_masked(mask, HIGH, out=sentinel)
        assert ret is sentinel
        assert (ret[mask] >= 1).all()
        # Entries outside mask keep their previous contents.
        assert ret[~mask].tolist() == [-77] * (N - 3)

    def test_out_values_match_outless_draw(self):
        a = node_stream_pool(range(N), 13, bounded_ranges=RANGES)
        b = node_stream_pool(range(N), 13, bounded_ranges=RANGES)
        mask = np.array([True] * 5 + [False] * 3)
        buf = np.zeros(N, dtype=np.int64)
        assert a.draw_ints_masked(mask, HIGH, out=buf)[mask].tolist() \
            == b.draw_ints_masked(mask, HIGH)[mask].tolist()

    @pytest.mark.parametrize("streams_kind", ("vector", "fallback"))
    def test_out_buffer_validation(self, streams_kind):
        ranges = RANGES if streams_kind == "vector" else (1000,)
        high = HIGH if streams_kind == "vector" else 1000
        pool = replica_node_streams(range(N), (0,), bounded_ranges=ranges)
        mask = np.ones(N, dtype=bool)
        bad = "out must be a C-contiguous int64 buffer"
        with pytest.raises(ValueError, match=bad):
            pool.draw_ints_masked(mask, high,
                                  out=np.zeros(N, dtype=np.float64))
        with pytest.raises(ValueError, match=bad):
            pool.draw_ints_masked(mask, high,
                                  out=np.zeros(N + 1, dtype=np.int64))
        with pytest.raises(ValueError, match=bad):
            pool.draw_ints_masked(mask, high,
                                  out=np.zeros(2 * N, dtype=np.int64)[::2])

    def test_sparse_chunk_gather_path(self):
        # < 40% density in a chunk takes the gathered branch; the dense
        # branch with idle-state restore covers the rest.  Both must
        # leave every stream where the reference loop would.
        for density in (0.1, 0.9):
            rng = np.random.default_rng(42)
            mask = rng.random(N * 4) < density
            nodes = range(N * 4)
            a = node_stream_pool(nodes, 21, bounded_ranges=RANGES)
            b = node_stream_pool(nodes, 21, bounded_ranges=RANGES)
            drawn = a.draw_ints_masked(mask, HIGH)
            want = b.draw_ints(np.nonzero(mask)[0], HIGH)
            assert drawn[mask].tolist() == want.tolist()


# ----------------------------------------------------------------------
# Native kernel vs pure-numpy limb pipeline
# ----------------------------------------------------------------------

class TestNativeEquality:
    @pytest.fixture
    def numpy_only(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "numpy")

    def test_masked_draw_bit_equal(self, monkeypatch):
        # 2048+ lanes engages the compiled kernel when present.  Run the
        # same draw once per implementation; if the native module is
        # absent both runs take the numpy path and the test is a no-op
        # equality, which is still the contract.
        n, seeds = 1024, (0, 1)
        mask = np.ones(2 * n, dtype=bool)
        mask[::7] = False
        need = np.zeros(2 * n, dtype=bool)
        need[: n + n // 2] = True

        def run():
            streams = replica_node_streams(range(n), seeds,
                                           bounded_ranges=RANGES)
            first = streams.draw_ints_masked(mask, HIGH, need=need)
            second = streams.draw_ints_masked(np.ones(2 * n, dtype=bool),
                                              HIGH)
            return first[mask & need].tolist(), second.tolist()

        native = run()
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "numpy")
        assert run() == native

    def test_seeding_bit_equal(self, monkeypatch):
        # The native lane seeder engages at 4096+ lanes.
        n, seeds = 2048, (3, 4)

        def limbs():
            return vecrng._seed_limbs_multi(seeds, n)

        native = limbs()
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "numpy")
        for a, b in zip(native, limbs()):
            assert np.array_equal(a, b)


# ----------------------------------------------------------------------
# Native runtime degradation matrix
# ----------------------------------------------------------------------

class TestNativeDegradation:
    """Every way the compiled runtime can be absent or reconfigured must
    degrade to the numpy path (or a different slab partition) without
    changing a single drawn value.
    """

    @pytest.fixture
    def fresh_native(self, monkeypatch):
        """Reset the module-level compile/load caches so each scenario
        re-resolves the library, and restore them afterwards."""
        from repro import _native
        monkeypatch.setattr(_native, "_lib", None)
        monkeypatch.setattr(_native, "_tried", False)
        return _native

    @staticmethod
    def _draw():
        streams = replica_node_streams(range(N), SEEDS,
                                       bounded_ranges=RANGES)
        lanes = np.arange(len(SEEDS) * N)
        return streams.draw_ints(lanes, HIGH).tolist()

    def test_env_disable_is_clean_and_identical(self, fresh_native,
                                                monkeypatch):
        reference = self._draw()
        monkeypatch.setattr(fresh_native, "_lib", None)
        monkeypatch.setattr(fresh_native, "_tried", False)
        monkeypatch.setenv("REPRO_NATIVE", "0")
        assert not fresh_native.available()
        assert fresh_native.lib() is None
        assert self._draw() == reference

    def test_compile_failure_degrades(self, fresh_native, monkeypatch):
        monkeypatch.setattr(fresh_native, "_compile", lambda: None)
        assert not fresh_native.available()
        assert self._draw() == self._draw()

    def test_missing_source_compiles_to_none(self, fresh_native,
                                             monkeypatch, tmp_path):
        # A deleted/unreadable kernels.c is the "no toolchain shipped"
        # shape: _compile must answer None, not raise.
        monkeypatch.setattr(fresh_native, "_SOURCE",
                            tmp_path / "gone" / "kernels.c")
        assert fresh_native._compile() is None
        assert not fresh_native.available()

    def test_missing_compiler_compiles_to_none(self, fresh_native,
                                               monkeypatch, tmp_path):
        # Every cc/gcc/clang invocation failing (FileNotFoundError) must
        # surface as a clean None.  Point the cache dir at tmp so a
        # previously built .so can't satisfy the digest lookup.
        monkeypatch.setattr(fresh_native, "_HERE", tmp_path)
        monkeypatch.setattr(fresh_native, "_SOURCE", tmp_path / "kernels.c")
        (tmp_path / "kernels.c").write_text("int x;")

        def no_cc(*args, **kwargs):
            raise FileNotFoundError("cc")

        monkeypatch.setattr(fresh_native.subprocess, "run", no_cc)
        assert fresh_native._compile() is None

    def test_thread_count_env_parsing(self, monkeypatch):
        from repro import _native
        monkeypatch.setenv("REPRO_NATIVE_THREADS", "4")
        assert _native.thread_count() == 4
        monkeypatch.setenv("REPRO_NATIVE_THREADS", "0")
        assert _native.thread_count() == 1
        monkeypatch.setenv("REPRO_NATIVE_THREADS", "-3")
        assert _native.thread_count() == 1
        monkeypatch.setenv("REPRO_NATIVE_THREADS", "lots")
        assert _native.thread_count() == (_native.os.cpu_count() or 1)

    @pytest.mark.parametrize("threads", ["1", "4"])
    def test_thread_count_bit_identical(self, monkeypatch, threads):
        # Enough flat lanes (2 * 2^15) that _run_slabs actually splits
        # the draw across workers when threads > 1.
        from repro import _native
        if not _native.available():
            pytest.skip("compiled kernels unavailable on this host")
        n, seeds = 1 << 15, (0, 1)
        mask = np.ones(2 * n, dtype=bool)
        mask[::3] = False

        def run():
            streams = replica_node_streams(range(n), seeds,
                                           bounded_ranges=RANGES)
            return streams.draw_ints_masked(mask, HIGH)[mask].tolist()

        monkeypatch.setenv("REPRO_NATIVE_THREADS", "1")
        single = run()
        monkeypatch.setenv("REPRO_NATIVE_THREADS", threads)
        assert run() == single
