"""The compiled-kernel extension (repro._native) and its binding.

Four planes:

- argument checking at the binding: every entry point refuses a wrong
  item size, a strided view, a read-only array where the kernel writes
  and a short output, and writes nothing when it refuses;
- generated provider equality: every entry point, through the function
  whose numpy reference it must equal, is bit-identical to that
  reference over generated sizes (n = 0, 1, ... ~600), replica counts,
  mask densities and ``REPRO_NATIVE_THREADS`` values, with the slab
  thresholds lowered so the threaded path really splits;
- the memoized ``dispatch.kernel``: a changed ``REPRO_KERNEL_BACKEND``
  or a reset loader applies on the next call;
- the cached build: truncated, empty, garbage, unrecorded and
  unloadable artifacts are rebuilt, and a failed rebuild or missing
  Python headers degrade to numpy (``auto``) or raise (``native``).
  These loads run in a subprocess, so a regression that crashes the
  loading process fails a test instead of killing the suite.
"""

from __future__ import annotations

import contextlib
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import networkx as nx
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import _native
from repro.core import udg as udg_mod
from repro.engine import dispatch, kernels
from repro.engine.artifacts import GraphArtifacts, graph_artifacts
from repro.errors import KernelBackendError
from repro.graphs.udg import random_udg
from repro.simulation import columnar, vecrng

HAS_NATIVE = _native.available()

needs_native = pytest.mark.skipif(not HAS_NATIVE,
                                  reason="compiled kernels unavailable")

SRC = Path(__file__).resolve().parents[1] / "src"


@contextlib.contextmanager
def env(**values):
    """Set (or, for None, unset) environment variables for a block."""
    saved = {k: os.environ.get(k) for k in values}
    try:
        for k, v in values.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v
        yield
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v


# ----------------------------------------------------------------------
# Argument checking at the binding
# ----------------------------------------------------------------------

# The closed CSR of the path 0 - 1 - 2.
_INDPTR = np.array([0, 2, 5, 7], dtype=np.int64)
_INDICES = np.array([0, 1, 0, 1, 2, 1, 2], dtype=np.int64)


def _u64(n, seed=0):
    return np.random.default_rng(seed).integers(
        0, 1 << 63, n, dtype=np.int64).view(np.uint64) | np.uint64(1)


def _spec_seed_lanes():
    R, n = 2, 5
    return ["pool4", "hc", R, n, "ih", "il", "sh", "sl"], {
        "pool4": np.arange(4 * R, dtype=np.uint32) * np.uint32(2654435761),
        "hc": np.array([3, 5], dtype=np.uint32),
        "ih": np.zeros(R * n, dtype=np.uint64),
        "il": np.zeros(R * n, dtype=np.uint64),
        "sh": np.zeros(R * n, dtype=np.uint64),
        "sl": np.zeros(R * n, dtype=np.uint64),
    }, ("ih", "il", "sh", "sl")


def _spec_draw_masked():
    n = 10
    return ["sh", "sl", "ih", "il", "mask", "need", 1 << 40, "out"], {
        "sh": _u64(n, 1), "sl": _u64(n, 2), "ih": _u64(n, 3),
        "il": _u64(n, 4),
        "mask": (np.arange(n) % 3 != 0).astype(np.uint8),
        "need": (np.arange(n) % 2 == 0).astype(np.uint8),
        "out": np.full(n, -1, dtype=np.int64),
    }, ("sh", "sl", "out")


def _spec_elect_batch():
    R, n = 2, 4
    return [R, n, "sub", "starts", "deg", "nbr_w", "ids", "active",
            "elected", True], {
        "sub": np.array([0, 1], dtype=np.int64),
        "starts": np.array([0, 1], dtype=np.int64),
        "deg": np.array([1, 1], dtype=np.int64),
        "nbr_w": np.array([1, 0], dtype=np.int64),
        "ids": np.arange(1, R * n + 1, dtype=np.int64),
        "active": np.ones(R * n, dtype=np.uint8),
        "elected": np.zeros(R * n, dtype=np.uint8),
    }, ("elected",)


def _spec_ball_phase():
    R, n = 2, 3
    return [n, "rows", "nodes", "indptr", "indices", "live", "leader",
            "krow", "cnt", "small", "picks", "touched", "big"], {
        "rows": np.array([0, 1], dtype=np.int64),
        "nodes": np.array([1, 2], dtype=np.int64),
        "indptr": _INDPTR.copy(), "indices": _INDICES.copy(),
        "live": np.array([0, 1], dtype=np.int64),
        "leader": np.array([1, 0, 0, 0, 1, 1], dtype=np.uint8),
        "krow": np.array([1, 1], dtype=np.int64),
        "cnt": np.zeros(R * n, dtype=np.int64),
        "small": np.zeros(R * n, dtype=np.uint8),
        "picks": np.zeros(R * n, dtype=np.uint8),
        "touched": np.full(R * n, -1, dtype=np.int64),
        "big": np.full(R * n, -1, dtype=np.int64),
    }, ("cnt", "small", "picks", "touched", "big")


def _spec_ball_adopt():
    R, n = 2, 3
    return [n, "rows", "nodes", "indptr", "indices", "coverage", "leader",
            "deficient", "krow"], {
        "rows": np.array([0, 1], dtype=np.int64),
        "nodes": np.array([1, 2], dtype=np.int64),
        "indptr": _INDPTR.copy(), "indices": _INDICES.copy(),
        "coverage": np.zeros(R * n, dtype=np.int64),
        "leader": np.array([0, 1, 0, 0, 0, 1], dtype=np.uint8),
        "deficient": np.ones(R * n, dtype=np.uint8),
        "krow": np.array([2, 2], dtype=np.int64),
    }, ("coverage", "deficient")


def _spec_member_counts(R=1):
    n = 3
    return [n, R, "indptr", "idx32", "xT", 1, "out"], {
        "indptr": _INDPTR.copy(), "idx32": _INDICES.astype(np.int32),
        "xT": (np.arange(n * R) % 2).astype(np.uint8),
        "out": np.full(n * R, -1, dtype=np.int64),
    }, ("out",)


def _spec_deficit_vector():
    n = 5
    return ["counts", "req_vec", 0, "members", "out"], {
        "counts": np.arange(n, dtype=np.int64),
        "req_vec": np.full(n, 3, dtype=np.int64),
        "members": (np.arange(n) % 2).astype(np.uint8),
        "out": np.full(n, -1, dtype=np.int64),
    }, ("out",)


def _spec_scatter_cover():
    return ["promoted", "indptr", "indices", 1, "coverage", "touched"], {
        "promoted": np.array([0, 2], dtype=np.int64),
        "indptr": _INDPTR.copy(), "indices": _INDICES.copy(),
        "coverage": np.zeros(3, dtype=np.int64),
        "touched": np.full(4, -1, dtype=np.int64),
    }, ("coverage", "touched")


def _spec_inbox_reduce():
    return ["indptr", "values", "mask", "init", "out"], {
        "indptr": _INDPTR.copy(),
        "values": np.linspace(-1.5, 2.5, 7),
        "mask": (np.arange(7) % 3 != 1).astype(np.uint8),
        "init": np.array([0.25, -0.5, 1.0]),
        "out": np.full(3, np.nan),
    }, ("out",)


def _spec_state_scatter(dtype=np.float64):
    return ["idx", "values", "out"], {
        "idx": np.array([4, 0, 3, 1, 2], dtype=np.int64),
        "values": np.arange(5).astype(dtype),
        "out": np.zeros(5, dtype=dtype),
    }, ("out",)


def _spec_csr_patch():
    # The batch [("remove", 0), ("add", 3, [2])] on the path 0 - 1 - 2:
    # uid 2 moves into slot 0 and the new node takes slot 2.
    return ["indptr", "indices", "final", "src", "keys", "out_indptr",
            "out_indices"], {
        "indptr": _INDPTR.copy(), "indices": _INDICES.copy(),
        "final": np.array([-1, 1, 0], dtype=np.int64),
        "src": np.array([2, 1, -1], dtype=np.int64),
        "keys": np.array([2, (2 << 32) + 0, (2 << 32) + 2], dtype=np.int64),
        "out_indptr": np.full(4, -7, dtype=np.int64),
        # Exactly the copied rows plus the keys.
        "out_indices": np.full(8, -7, dtype=np.int64),
    }, ("out_indptr", "out_indices")


#: (entry point, spec): args in call order (a string names an array),
#: the arrays, and the names the kernel writes.
SPECS = {
    "seed_lanes": _spec_seed_lanes,
    "draw_masked": _spec_draw_masked,
    "elect_batch": _spec_elect_batch,
    "ball_phase": _spec_ball_phase,
    "ball_adopt": _spec_ball_adopt,
    "member_counts": _spec_member_counts,
    "member_counts_batch": lambda: _spec_member_counts(R=2),
    "deficit_vector": _spec_deficit_vector,
    "scatter_cover": _spec_scatter_cover,
    "inbox_reduce": _spec_inbox_reduce,
    "state_scatter": _spec_state_scatter,
    "state_scatter_u8": lambda: _spec_state_scatter(np.uint8),
    "csr_patch": _spec_csr_patch,
}

#: A same-length stand-in of another item size.
_OTHER_ITEMSIZE = {1: np.int16, 4: np.int64, 8: np.int32}


def _call(entry, order, arrays):
    fn = getattr(_native, entry.replace("_u8", ""))
    return fn(*(arrays[a] if isinstance(a, str) else a for a in order))


def _faults(entry):
    """Every (kind, name) fault the binding must refuse for ``entry``."""
    order, arrays, written = SPECS[entry]()
    names = [a for a in order if isinstance(a, str)]
    return ([("itemsize", a) for a in names]
            + [("strided", a) for a in names]
            + [("readonly", a) for a in written]
            + [("short", a) for a in written])


def _faulty(kind, arr):
    if kind == "itemsize":
        return np.zeros(arr.size, dtype=_OTHER_ITEMSIZE[arr.itemsize])
    if kind == "strided":
        wide = np.zeros(2 * arr.size, dtype=arr.dtype)
        wide[::2] = arr
        return wide[::2]
    if kind == "readonly":
        ro = arr.copy()
        ro.flags.writeable = False
        return ro
    return arr[:-1].copy()  # short


@needs_native
@pytest.mark.parametrize("entry", sorted(SPECS))
class TestBindingChecks:
    def test_valid_call_runs(self, entry):
        order, arrays, _ = SPECS[entry]()
        _call(entry, order, arrays)

    def test_refuses_and_writes_nothing(self, entry):
        for kind, name in _faults(entry):
            order, arrays, written = SPECS[entry]()
            bad = _faulty(kind, arrays[name])
            assert bad.size and (kind != "strided"
                                 or not bad.flags.c_contiguous)
            arrays[name] = bad
            before = {w: arrays[w].copy() for w in written}
            with pytest.raises((TypeError, ValueError, BufferError)):
                _call(entry, order, arrays)
            for w in written:
                assert np.array_equal(arrays[w], before[w],
                                      equal_nan=arrays[w].dtype.kind == "f"
                                      ), (kind, name, w)


@needs_native
def test_binding_refuses_bad_sizes_and_slabs():
    k = _native.lib()
    idx = np.arange(4, dtype=np.int64)
    vals = np.arange(4.0)
    out = np.zeros(4)
    with pytest.raises(ValueError, match="slab"):
        k.state_scatter_f64(idx, vals, 0, 5, out)
    with pytest.raises(ValueError, match="slab"):
        k.state_scatter_f64(idx, vals, 3, 2, out)
    with pytest.raises(TypeError, match="arguments"):
        k.state_scatter_f64(idx, vals, 0, 4)
    with pytest.raises(TypeError):
        k.state_scatter_f64([0, 1], vals, 0, 2, out)
    sh, sl, ih, il = (_u64(4, s) for s in range(4))
    with pytest.raises(ValueError, match="high"):
        k.draw_masked(sh, sl, ih, il, np.ones(4, np.uint8), None, 0, 4, 0,
                      np.zeros(4, np.int64))
    with pytest.raises(ValueError, match=">= 0"):
        k.seed_lanes(np.zeros(4, np.uint32), np.zeros(1, np.uint32), -1, 2,
                     0, 0, *(np.zeros(2, np.uint64) for _ in range(4)))
    cov = np.zeros(3, dtype=np.int64)
    with pytest.raises(IndexError, match="promoted"):
        k.scatter_cover(np.array([3], dtype=np.int64), _INDPTR, _INDICES, 1,
                        cov, np.zeros(8, dtype=np.int64))
    assert not cov.any()


@needs_native
def test_csr_patch_writes_the_patched_rows():
    order, arrays, _ = _spec_csr_patch()
    assert _call("csr_patch", order, arrays) == 7
    assert arrays["out_indptr"].tolist() == [0, 3, 5, 7]
    assert arrays["out_indices"][:7].tolist() == [0, 1, 2, 0, 1, 0, 2]


#: Slot maps and keys csr_patch must refuse before writing: final and
#: src not inverse (not injective), pointing past n0 or n1, rows outside
#: the indices, and keys out of row order or range.
_BAD_PATCHES = {
    "src not injective": {"src": [2, 2, -1]},
    "final not injective": {"final": [0, 1, 0], "src": [0, 1, -1]},
    "final names an empty slot": {"src": [-1, 1, -1]},
    "src past n0": {"final": [-1, 1, -1], "src": [3, 1, -1]},
    "final past n1": {"final": [-1, 1, 3]},
    "row past indices": {"indptr": [0, 2, 5, 9]},
    "row reversed": {"indptr": [0, 2, 5, 4]},
    "keys out of row order": {"keys": [(2 << 32) + 0, 2, (2 << 32) + 2]},
    "key row past n1": {"keys": [2, (2 << 32) + 0, (3 << 32) + 2]},
    "key column past n1": {"keys": [3, (2 << 32) + 0, (2 << 32) + 2]},
    "negative key": {"keys": [-1, (2 << 32) + 0, (2 << 32) + 2]},
}


@needs_native
@pytest.mark.parametrize("case", sorted(_BAD_PATCHES))
def test_csr_patch_refuses_bad_slot_maps_and_keys(case):
    order, arrays, written = _spec_csr_patch()
    for name, value in _BAD_PATCHES[case].items():
        arrays[name] = np.array(value, dtype=np.int64)
    with pytest.raises(ValueError):
        _call("csr_patch", order, arrays)
    for w in written:
        assert (arrays[w] == -7).all(), w


@needs_native
def test_csr_patch_bad_column_stays_inside_the_output():
    # A copied row naming a uid past n0 is found mid-walk: the call
    # raises, having written nothing past the output's capacity.
    order, arrays, _ = _spec_csr_patch()
    arrays["indices"] = np.array([0, 1, 0, 1, 9, 1, 2], dtype=np.int64)
    guarded = np.full(8 + 4, -7, dtype=np.int64)
    arrays["out_indices"] = guarded[:8]
    with pytest.raises(IndexError, match="column"):
        _call("csr_patch", order, arrays)
    assert (guarded[8:] == -7).all()


# ----------------------------------------------------------------------
# Generated provider equality
# ----------------------------------------------------------------------

THREADS = ("1", "3")

#: Lowered slab thresholds so n of a few hundred splits across threads.
_small_slabs = mock.patch.multiple(_native, _MIN_SLAB=16, _MIN_ROW_SLAB=8)


def _both(fn):
    """``fn()`` under the numpy backend, then under native at each
    thread count in THREADS (slab thresholds lowered)."""
    with env(REPRO_KERNEL_BACKEND="numpy"):
        ref = fn()
    got = []
    with _small_slabs:
        for t in THREADS:
            with env(REPRO_KERNEL_BACKEND="native", REPRO_NATIVE_THREADS=t):
                got.append((t, fn()))
    return ref, got


def _bits(a):
    a = np.ascontiguousarray(a)
    return a.view(np.uint8) if a.dtype.kind in "fb" else a


def _assert_same(ref, got):
    for t, g in got:
        assert len(g) == len(ref)
        for i, (x, y) in enumerate(zip(ref, g)):
            x, y = np.asarray(x), np.asarray(y)
            assert x.dtype == y.dtype and x.shape == y.shape, (t, i)
            assert np.array_equal(_bits(x), _bits(y)), (t, i)


sizes = st.one_of(st.sampled_from([0, 1, 2]), st.integers(3, 600))
replicas = st.integers(1, 4)
densities = st.floats(0.0, 1.0)
seeds = st.integers(0, 2 ** 32 - 1)

GENERATED = settings(max_examples=30,
                     suppress_health_check=[HealthCheck.too_slow])


def _graph(n, seed):
    return random_udg(n, density=8.0, seed=seed)


#: Batch shapes the csr_patch test draws (see _batch).
BATCHES = ("remove", "tail", "remove_all", "join", "rewire", "mix")


def _batch(shape, nodes, loops, rng):
    """One valid edit batch of ``shape`` over ``nodes`` (the artifact
    order): crashes anywhere, crashes of the last-indexed nodes only
    (no node moves), every node, joins, rewires, or a mix in which
    removed nodes may rejoin."""
    live = list(nodes)
    if shape == "tail":
        count = int(rng.integers(0, len(live) + 1))
        return [("remove", v) for v in reversed(live[len(live) - count:])]
    if shape in ("remove", "remove_all"):
        count = len(live) if shape == "remove_all" \
            else int(rng.integers(0, len(live) // 4 + 2))
        picked = rng.permutation(len(live))[:count]
        return [("remove", live[i]) for i in picked]
    edits, gone, fresh = [], [], max(live, default=-1) + 1

    def some(pool, most=8):
        size = int(rng.integers(0, min(len(pool), most) + 1))
        return [pool[i] for i in rng.permutation(len(pool))[:size]]

    for _ in range(int(rng.integers(1, 24))):
        op = shape if shape != "mix" else \
            ("remove", "add", "rewire")[int(rng.integers(0, 3))]
        if op == "remove" and live:
            v = live.pop(int(rng.integers(0, len(live))))
            gone.append(v)
            edits.append(("remove", v))
        elif op == "rewire" and live:
            v = live[int(rng.integers(0, len(live)))]
            if v not in loops:
                edits.append(("rewire", v, some([w for w in live
                                                 if w != v])))
        else:
            if gone and rng.random() < 0.5:
                v = gone.pop(int(rng.integers(0, len(gone))))
            else:
                v, fresh = fresh, fresh + 1
            edits.append(("add", v, some(live)))
            live.append(v)
    return edits


@needs_native
class TestGeneratedProviderEquality:
    @GENERATED
    @given(n=sizes, R=replicas, seed=seeds)
    def test_seed_lanes(self, n, R, seed):
        seeds_ = [seed + r for r in range(R)]
        _assert_same(*_both(lambda: vecrng._seed_limbs_multi(seeds_, n)))

    @GENERATED
    @given(n=sizes, R=replicas, seed=seeds, density=densities,
           need_density=st.one_of(st.none(), densities),
           high=st.integers((1 << 32) + 2, (1 << 63) - 1))
    def test_draw_masked(self, n, R, seed, density, need_density, high):
        rng = np.random.default_rng(seed)
        mask = rng.random(R * n) < density
        need = None if need_density is None \
            else rng.random(R * n) < need_density
        start = rng.integers(-5, 5, R * n)

        def run():
            streams = vecrng.replica_node_streams(
                range(n), [seed + r for r in range(R)],
                bounded_ranges=(high - 1,))
            assert isinstance(streams, vecrng.GridReplicaStreams)
            out = streams.draw_ints_masked(mask, high, need=need,
                                           out=start.copy())
            # Entries at mask & ~need are unspecified; every other entry
            # is part of the contract (drawn, 0, or left untouched).
            if need is not None:
                out[mask & ~need] = -99
            return out, streams._sh, streams._sl

        _assert_same(*_both(run))

    @GENERATED
    @given(n=sizes, R=replicas, seed=seeds, density=densities,
           theta=st.floats(0.05, 1.0), ids_masked=st.booleans())
    def test_elect_batch(self, n, R, seed, density, theta, ids_masked):
        g = _graph(n, seed)
        indptr, src, nbr, dist = kernels.udg_distance_csr(g)
        rng = np.random.default_rng(seed)
        active = rng.random((R, n)) < density
        ids = rng.integers(1, 1 << 62, (R, n))
        if ids_masked:
            ids[~active] = 0

        def run():
            return (kernels.elect_round_batch(
                indptr, src, nbr, dist <= theta, active, ids,
                ids_masked=ids_masked),)

        _assert_same(*_both(run))

    @GENERATED
    @given(n=sizes, R=replicas, seed=seeds, density=densities,
           k=st.integers(1, 4),
           policy=st.sampled_from(["random", "by-id"]))
    def test_ball_walks(self, n, R, seed, density, k, policy):
        # ball_phase and ball_adopt are reached only through the Part II
        # adoption loop, whose numpy reference lives inline.
        art = graph_artifacts(_graph(n, seed))
        rng = np.random.default_rng(seed)
        leader0 = rng.random((R, n)) < density
        ks = k if R == 1 else rng.integers(1, k + 1, R)

        def run():
            streams = vecrng.replica_node_streams(
                range(n), [seed + r for r in range(R)],
                bounded_ranges=(2 ** 40,))
            leader = leader0.copy()
            details = [{} for _ in range(R)]
            udg_mod._part_two_kernel_batch(art, leader, ks, streams, policy,
                                           details)
            tallies = np.array([[d["part2_iterations"], d["part2_adopted"]]
                                for d in details], dtype=np.int64)
            return leader, tallies, streams._sh, streams._sl

        _assert_same(*_both(run))

    @GENERATED
    @given(n=sizes, R=replicas, seed=seeds, density=densities,
           convention=st.sampled_from(["open", "closed"]))
    def test_member_counts(self, n, R, seed, density, convention):
        art = graph_artifacts(_graph(n, seed))
        masks = np.random.default_rng(seed).random((R, n)) < density

        def run():
            return (kernels.member_counts(art, indicator=masks[0],
                                          convention=convention),
                    kernels.member_counts_batch(art, indicators=masks,
                                                convention=convention))

        _assert_same(*_both(run))

    @GENERATED
    @given(n=sizes, seed=seeds, density=densities,
           req=st.integers(0, 5), vector=st.booleans(),
           exempt=st.booleans())
    def test_deficit_vector(self, n, seed, density, req, vector, exempt):
        art = graph_artifacts(_graph(n, seed))
        rng = np.random.default_rng(seed)
        counts = rng.integers(0, 6, n)
        required = rng.integers(0, req + 1, n) if vector else req
        members = (rng.random(n) < density) if exempt else None

        def run():
            return (kernels.deficit_vector(art, counts, required,
                                           member_idx=members),)

        _assert_same(*_both(run))

    @GENERATED
    @given(n=st.integers(1, 600), seed=seeds, density=densities,
           sign=st.sampled_from([1, -1]))
    def test_scatter_cover(self, n, seed, density, sign):
        art = graph_artifacts(_graph(n, seed))
        rng = np.random.default_rng(seed)
        base = rng.integers(0, 4, n)
        promoted = np.flatnonzero(rng.random(n) < density)

        def run():
            cov = base.copy()
            touched = kernels.scatter_cover(cov, art, promoted, sign)
            return cov, touched

        _assert_same(*_both(run))

    @GENERATED
    @given(n=sizes, seed=seeds, density=densities,
           max_deg=st.integers(0, 12))
    def test_inbox_reduce(self, n, seed, density, max_deg):
        rng = np.random.default_rng(seed)
        indptr = np.concatenate(
            [[0], np.cumsum(rng.integers(0, max_deg + 1, n))]).astype(
                np.int64)
        m = int(indptr[-1])
        values = rng.standard_normal(m) * 10.0 ** rng.integers(-8, 8, m)
        values[rng.random(m) < 0.1] = -0.0
        mask = rng.random(m) < density
        init = rng.standard_normal(n)

        def run():
            return (columnar.inbox_reduce(indptr, values, mask, init),)

        _assert_same(*_both(run))

    @GENERATED
    @given(n=sizes, seed=seeds, shape=st.sampled_from(BATCHES),
           loops=st.integers(0, 3), epochs=st.integers(1, 3))
    def test_csr_patch(self, n, seed, shape, loops, epochs):
        # csr_patch is reached only through ArtifactDelta, whose numpy
        # reference is _Replay._resort.
        g = _graph(n, seed).nx.copy()
        rng = np.random.default_rng(seed)
        g.add_edges_from((v, v) for v in rng.permutation(n)[:loops].tolist())
        looped = {v for v in g if g.has_edge(v, v)}
        batches, art = [], GraphArtifacts(g)
        for _ in range(epochs):  # edits valid on the evolving node set
            batches.append(_batch(shape, art.nodes, looped, rng))
            art.delta_patcher().apply(batches[-1])

        def run():
            art = GraphArtifacts(g)
            out = []
            for edits in batches:
                handed = [a.copy() for a in art.closed_csr_arrays()]
                arrays = art.closed_csr_arrays()
                art.delta_patcher().apply(edits)
                # A commit never writes into arrays it handed out.
                assert all(np.array_equal(a, b)
                           for a, b in zip(arrays, handed))
                out += [art.indptr, art.indices, art.degrees,
                        art.nodes_array(),
                        np.array([art.n, art.m, art.delta_max, art._loops,
                                  art.version > 0])]
            return out

        _assert_same(*_both(run))

    def test_csr_patch_scrambled_rows(self):
        # Removing the low half of a clique moves the high half into
        # its slots in reverse, so every kept row comes out reversed:
        # past the insertion sort's shift budget.
        g = nx.complete_graph(40)

        def run():
            art = GraphArtifacts(g)
            art.delta_patcher().apply([("remove", v) for v in range(20)])
            return art.indptr, art.indices, art.nodes_array()

        _assert_same(*_both(run))

    @GENERATED
    @given(n=sizes, seed=seeds,
           dtype=st.sampled_from([np.float64, np.uint8, np.uint64]))
    def test_state_scatter(self, n, seed, dtype):
        rng = np.random.default_rng(seed)
        values = rng.integers(0, 255, n).astype(dtype)
        idx = rng.permutation(n).astype(np.int64)

        def run():
            return (columnar.take(values, idx),)

        _assert_same(*_both(run))


# ----------------------------------------------------------------------
# The memoized lookup
# ----------------------------------------------------------------------

class TestKernelMemo:
    def test_backend_flip_applies_on_next_call(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL_BACKEND", raising=False)
        auto = dispatch.kernel("member_counts")
        assert (auto is not None) == HAS_NATIVE
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "numpy")
        assert dispatch.kernel("member_counts") is None
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "native")
        if HAS_NATIVE:
            assert dispatch.kernel("member_counts") is _native.member_counts
        else:
            with pytest.raises(KernelBackendError):
                dispatch.kernel("member_counts")
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "bogus")
        for _ in range(2):  # errors are never memoized
            with pytest.raises(KernelBackendError, match="bogus"):
                dispatch.kernel("member_counts")
        monkeypatch.delenv("REPRO_KERNEL_BACKEND")
        assert dispatch.kernel("member_counts") is auto

    def test_loader_reset_applies_on_next_call(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL_BACKEND", raising=False)
        dispatch.kernel("elect_batch")
        monkeypatch.setattr(_native, "_lib", None)
        monkeypatch.setattr(_native, "_tried", False)
        monkeypatch.setenv("REPRO_NATIVE", "0")
        assert dispatch.kernel("elect_batch") is None
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "native")
        with pytest.raises(KernelBackendError, match="REPRO_NATIVE=0"):
            dispatch.kernel("elect_batch")

    def test_memo_answers_without_probing(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL_BACKEND", raising=False)
        first = dispatch.kernel("draw_masked")

        def boom(*args, **kwargs):
            raise AssertionError("memo hit resolved again")

        monkeypatch.setattr(dispatch, "provider", boom)
        monkeypatch.setattr(_native, "available", boom)
        assert dispatch.kernel("draw_masked") is first


# ----------------------------------------------------------------------
# The cached build, probed in a subprocess
# ----------------------------------------------------------------------

#: Runs every artifact case in one fresh interpreter and prints one JSON
#: line per case as it finishes; a crash ends the output early.
_PROBE = r'''
import hashlib, json, os, shutil, sys
from pathlib import Path

import numpy as np

from repro import _native
from repro.engine import dispatch
from repro.errors import KernelBackendError

root = Path(sys.argv[1])
source = _native._SOURCE


def fresh(case):
    here = root / case
    (here / "_build").mkdir(parents=True)
    shutil.copy(source, here / "kernels.c")
    _native._HERE = here
    _native._SOURCE = here / "kernels.c"
    _native._lib, _native._tried = None, False
    return here / "_build" / (
        f"kernels-{_native.build_digest()}{_native._EXT_SUFFIX}")


def report(case, target, seeded=None):
    ok = _native.available()
    out = {"case": case, "available": ok, "error": _native.load_error(),
           "status_error": dispatch.provider_status()["native"]["error"],
           "verified": _native._verified(target)}
    if seeded is not None:
        out["replaced"] = target.exists() and target.read_bytes() != seeded
    if ok:
        idx = np.array([2, 0, 1], dtype=np.int64)
        got = np.empty(3)
        _native.state_scatter(idx, np.array([1.0, 2.0, 3.0]), got)
        out["kernel_ok"] = got.tolist() == [3.0, 1.0, 2.0]
    os.environ["REPRO_KERNEL_BACKEND"] = "auto"
    out["auto"] = dispatch.kernel("member_counts") is not None
    os.environ["REPRO_KERNEL_BACKEND"] = "native"
    try:
        dispatch.kernel("member_counts")
        out["native"] = "served"
    except KernelBackendError as exc:
        out["native"] = str(exc)
    del os.environ["REPRO_KERNEL_BACKEND"]
    print(json.dumps(out), flush=True)


target = fresh("good")
good_ok = _native.available()
print(json.dumps({"case": "good", "available": good_ok,
                  "error": _native.load_error()}), flush=True)
if good_ok:
    good = target.read_bytes()
    good_record = (target.parent / (target.name + ".sha256")).read_text()

    def seeded(case, data, record):
        target = fresh(case)
        target.write_bytes(data)
        if record is not None:
            (target.parent / (target.name + ".sha256")).write_text(record)
        return target

    def forge(data):
        return f"{len(data)} {hashlib.sha256(data).hexdigest()}\n"

    junk = np.random.default_rng(0).bytes(len(good))
    cases = {
        "truncated": (good[:len(good) // 2], good_record),
        "empty": (b"", good_record),
        "garbage": (junk, good_record),
        "unrecorded": (good, None),
        "forged": (junk, forge(junk)),
    }
    for case, (data, record) in cases.items():
        report(case, seeded(case, data, record), data)
    target = seeded("no_compiler", good[:len(good) // 2], good_record)
    path = os.environ["PATH"]
    os.environ["PATH"] = str(root)
    report("no_compiler", target)
    os.environ["PATH"] = path

target = fresh("no_headers")
_native._include_dirs = lambda: []
report("no_headers", target)
'''


@pytest.fixture(scope="module")
def probe(tmp_path_factory):
    root = tmp_path_factory.mktemp("native-build")
    child_env = {k: v for k, v in os.environ.items()
                 if k not in ("REPRO_NATIVE", "REPRO_KERNEL_BACKEND",
                              "REPRO_NATIVE_THREADS")}
    child_env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", _PROBE, str(root)],
                          env=child_env, capture_output=True, text=True,
                          timeout=600)
    cases = {}
    for line in proc.stdout.splitlines():
        rec = json.loads(line)
        cases[rec["case"]] = rec
    return proc, cases


def _case(probe, name):
    proc, cases = probe
    assert name in cases, (
        f"probe exited {proc.returncode} before case {name!r}:\n"
        f"{proc.stderr[-2000:]}")
    return cases[name]


@pytest.mark.parametrize("case", ["truncated", "empty", "garbage",
                                  "unrecorded", "forged"])
def test_bad_artifact_is_rebuilt(probe, case):
    good = _case(probe, "good")
    if not good["available"]:
        pytest.skip(f"no compiled build on this host: {good['error']}")
    rec = _case(probe, case)
    assert rec["available"] and rec["error"] is None, rec
    assert rec["status_error"] is None
    # A good but unrecorded artifact rebuilds to the same bytes; the
    # record written beside it shows the rebuild.
    assert rec["replaced"] == (case != "unrecorded")
    assert rec["verified"] and rec["kernel_ok"]
    assert rec["auto"] and rec["native"] == "served"


def test_failed_rebuild_degrades(probe):
    good = _case(probe, "good")
    if not good["available"]:
        pytest.skip(f"no compiled build on this host: {good['error']}")
    rec = _case(probe, "no_compiler")
    assert not rec["available"] and not rec["verified"]
    assert "compile" in rec["error"]
    assert rec["status_error"] == rec["error"]
    assert rec["auto"] is False                      # auto serves numpy
    assert "unavailable" in rec["native"] and rec["error"] in rec["native"]


def test_missing_headers_degrade(probe):
    rec = _case(probe, "no_headers")
    assert not rec["available"] and "Python headers" in rec["error"]
    assert rec["status_error"] == rec["error"]
    assert rec["auto"] is False
    assert "Python headers" in rec["native"]
    assert probe[0].returncode == 0, probe[0].stderr[-2000:]


def test_native_module_has_no_ctypes():
    source = Path(_native.__file__).read_text()
    assert "ctypes" not in source
