"""Vectorized per-node PCG64 streams, bit-identical to ``spawn_node_rngs``.

:func:`repro.simulation.rng.spawn_node_rngs` gives every node an
independent ``numpy.random.Generator`` spawned from one root
``SeedSequence``.  That contract is perfect for reproducibility but
ruinous for the vectorized direct backends: at n = 10^5 the spawn alone
costs seconds, and every round of Algorithm 3's election pays one Python
``Generator.integers`` call per active node.

This module re-implements the exact numpy pipeline — SeedSequence
entropy pooling, ``generate_state``, PCG64 seeding, the 128-bit LCG
step, XSL-RR output, Lemire's bounded-rejection sampler, and the
53-bit ``random()`` mapping — as elementwise numpy array operations over
*all node streams at once*.  Per-node states live in four ``uint64``
limb arrays; a draw for a set of lanes steps exactly those lanes, so
every node's stream position stays equal to what the per-node reference
loop would have left behind.  Outputs are bit-identical, not just
statistically equivalent: the kernel-vs-reference equivalence suite
(tests/test_mode_equivalence.py) and this module's own import-time
self-test both compare against real ``Generator`` objects.

One lane space serves every shape.  :class:`GridReplicaStreams` holds
the streams of G graphs times R seeds: graph ``g``'s node ``i`` in
replica ``r`` is flat lane ``r * total + offsets[g] + i``, and its
limbs are a prefix slice of one master ``(R, n_max)`` pool, because
SeedSequence spawn child ``i`` depends only on (seed entropy, ``i``).
Each lane is therefore *definitionally* the stream
``spawn_node_rngs(range(n_g), seeds[r])`` gives node ``i``, and one
vector draw advances a whole (graphs x replicas) grid.  A replica sweep
is the one-graph case (:func:`replica_node_streams`) and a single run
the one-graph, one-seed case (:func:`node_stream_pool`); both label
their lanes with the node list's stable order.

Nodes that outgrow vector draws — e.g. a leader running the adoption
rule's ``choice``-based selection — call :meth:`GridReplicaStreams.generator`
to materialize a real ``Generator`` *positioned at the lane's current
stream state* (PCG64 accepts a raw ``(state, inc)`` assignment).  The
lane is then owned by that generator; vector draws for it are a
programming error and raise.  :meth:`GridReplicaStreams.snapshot_state`
hands out the state without claiming the lane.

Safety valve: the factories (:func:`grid_streams` and the two one-graph
forms) run a one-shot self-test of the whole vector pipeline against
numpy's own generators the first time they are called.  If numpy's
internals ever change (different SeedSequence mixing, a new bounded
sampler), the self-test fails and every caller transparently gets the
per-node fallback over the same lanes, which wraps real generators —
slower, but still bit-identical to the reference.  Bounded draws
additionally require Lemire's 64-bit path (range width > 2^32 - 1);
smaller ranges use numpy's buffered 32-bit sampler, which keeps
half-word state the limbs do not model, so those callers get the
fallback as well via ``bounded_ranges``.  Algorithm 3 draws
identifiers from ``[1, n^4]``, so UDGs with n <= 256 take it.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.simulation.rng import spawn_node_rngs
from repro.types import NodeId, stable_sorted

__all__ = ["GridReplicaStreams", "grid_streams", "node_stream_pool",
           "replica_node_streams", "vector_streams_available"]

# SeedSequence pool-mixing constants (O'Neill's seed_seq_fe as adopted
# by numpy; 32-bit arithmetic).
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16
_POOL_SIZE = 4

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1

# PCG64's 128-bit LCG multiplier, split into 64-bit halves (and the low
# half's 32-bit limbs, precomputed for the constant-multiplier step).
_PCG_MULT_HI = np.uint64(0x2360ED051FC65DA4)
_PCG_MULT_LO = np.uint64(0x4385DF649FCCF645)
_PCG_MULT_LO_0 = np.uint64(0x4385DF649FCCF645 & _M32)
_PCG_MULT_LO_1 = np.uint64(0x4385DF649FCCF645 >> 32)

_U32_MASK = np.uint64(_M32)
_SHIFT32 = np.uint64(32)

#: Lanes per internal block of a vector draw.  Chunking keeps the ~20
#: uint64 temporaries of the limb pipeline small enough to stay in the
#: allocator's reuse pools and the L2 cache (64 KiB each at 2^13 lanes;
#: beyond the ~128 KiB malloc mmap threshold every temporary would pay
#: fresh page faults), which matters once replica batching widens a
#: draw to R x n lanes — a 3e5-lane draw is ~2x faster chunked than
#: streamed through memory whole.
_CHUNK = 1 << 13

#: Throwaway entropy for generator materialization — the PCG64 state it
#: seeds is immediately overwritten with the lane's own state.
_MATERIALIZE_SS = np.random.SeedSequence(0)


def materialize_bit_generator() -> np.random.PCG64:
    """A throwaway-seeded ``PCG64`` meant to have a lane state assigned
    (see :meth:`GridReplicaStreams.snapshot_state`).  Avoids the no-arg
    form's OS-entropy pull (~80us; even ``PCG64(0)`` rebuilds a
    SeedSequence, ~4us) for state that is immediately overwritten.
    """
    return np.random.PCG64(_MATERIALIZE_SS)


def _dispatch():
    """The kernel provider registry (:mod:`repro.engine.dispatch`).

    Imported lazily inside the function: this module sits below the
    engine package in the import graph (``engine.kernels`` and the
    backends import it), so a top-level import would be circular.  One
    compiled C loop replaces the ~30 full-array passes of the limb
    pipeline on the batched hot paths; bit-exact with the NumPy paths
    (pinned by tests) and absent without a C compiler.
    """
    from repro.engine import dispatch
    return dispatch


# ----------------------------------------------------------------------
# SeedSequence emulation (scalar 32-bit arithmetic on Python ints; only
# the spawn-key word differs across lanes, so the per-lane work is a
# single vectorized hashmix/mix round)
# ----------------------------------------------------------------------

def _entropy_words(entropy: int) -> List[int]:
    """``entropy`` as little-endian 32-bit words (numpy's coercion)."""
    words = []
    while True:
        words.append(entropy & _M32)
        entropy >>= 32
        if entropy == 0:
            return words


def _pool_prefix(entropy: int):
    """The lane-independent part of ``SeedSequence(entropy).spawn``:
    the four pool words after the all-pairs mixing round plus the
    ``hash_const`` value at which the per-lane spawn-key mix begins."""
    words = _entropy_words(entropy)
    if len(words) < _POOL_SIZE:
        words = words + [0] * (_POOL_SIZE - len(words))

    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value = (value ^ hash_const) & _M32
        hash_const = (hash_const * _MULT_A) & _M32
        value = (value * hash_const) & _M32
        return value ^ (value >> _XSHIFT)

    def mix(x: int, y: int) -> int:
        result = (x * _MIX_MULT_L - y * _MIX_MULT_R) & _M32
        return result ^ (result >> _XSHIFT)

    # Pool fill + all-pairs mixing: identical for every child.
    pool = [hashmix(words[i]) for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    # Entropy words beyond the pool size: all scalar except the spawn
    # key, which is the final word and equals the lane index.
    for i_src in range(_POOL_SIZE, len(words)):
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(words[i_src]))
    return pool, hash_const


def _spawn_pools(entropy: int, n: int) -> np.ndarray:
    """Entropy pools of ``SeedSequence(entropy).spawn(n)``, shape (4, n).

    The assembled entropy of child ``i`` is the root's entropy words,
    zero-padded to the pool size, with the spawn key ``(i,)`` appended.
    Only that final word varies per child, so the pool fill and the
    full O(pool^2) mixing round are lane-independent scalars; each lane
    pays one hashmix + four mixes.
    """
    pool, hash_const = _pool_prefix(entropy)

    # The spawn-key word (= the lane index): mixed into each pool word
    # with a *fresh* hashmix — hash_const advances once per destination,
    # exactly as in the scalar loop above.
    lane = np.arange(n, dtype=np.uint64)
    pools = np.empty((_POOL_SIZE, n), dtype=np.uint64)
    mml = np.uint64(_MIX_MULT_L)
    mmr = np.uint64(_MIX_MULT_R)
    xs = np.uint64(_XSHIFT)
    for i_dst in range(_POOL_SIZE):
        value = (lane ^ np.uint64(hash_const)) & _U32_MASK
        hash_const = (hash_const * _MULT_A) & _M32
        value = (value * np.uint64(hash_const)) & _U32_MASK
        value ^= value >> xs
        result = (np.uint64(pool[i_dst]) * mml - value * mmr) & _U32_MASK
        pools[i_dst] = result ^ (result >> xs)
    return pools


def _generate_state_words(pools: np.ndarray) -> List[np.ndarray]:
    """``generate_state(4, uint64)`` per lane: four uint64 arrays."""
    hash_const = _INIT_B
    out32 = []
    for i in range(8):
        value = pools[i % _POOL_SIZE].copy()
        value = (value ^ np.uint64(hash_const)) & _U32_MASK
        hash_const = (hash_const * _MULT_B) & _M32
        value = (value * np.uint64(hash_const)) & _U32_MASK
        value ^= value >> np.uint64(_XSHIFT)
        out32.append(value)
    return [out32[2 * i] | (out32[2 * i + 1] << _SHIFT32) for i in range(4)]


# ----------------------------------------------------------------------
# 128-bit limb arithmetic (uint64 hi/lo pairs, wrapping)
# ----------------------------------------------------------------------

def _umulhi(a: np.ndarray, b) -> np.ndarray:
    """Upper 64 bits of a 64x64 product with a *scalar* ``b`` via
    32-bit schoolbook limbs (the low half of the product, when needed,
    is just the wrapping ``a * b``)."""
    b = np.uint64(b)
    b0 = b & _U32_MASK
    b1 = b >> _SHIFT32
    a0 = a & _U32_MASK
    a1 = a >> _SHIFT32
    p00 = a0 * b0
    p01 = a0 * b1
    p10 = a1 * b0
    mid = (p00 >> _SHIFT32) + (p01 & _U32_MASK) + (p10 & _U32_MASK)
    return a1 * b1 + (p01 >> _SHIFT32) + (p10 >> _SHIFT32) + (mid >> _SHIFT32)


def _step(sh, sl, ih, il):
    """One PCG64 LCG step: ``state = state * MULT + inc`` mod 2^128.

    The low-limb 64x64 -> 128 product is expanded inline against the
    multiplier's precomputed 32-bit limbs (``mid << 32`` wraps modulo
    2^64, which *is* the masked shift), keeping the hot path at the
    minimum number of full-array passes.
    """
    a0 = sl & _U32_MASK
    a1 = sl >> _SHIFT32
    p00 = a0 * _PCG_MULT_LO_0
    p01 = a0 * _PCG_MULT_LO_1
    p10 = a1 * _PCG_MULT_LO_0
    mid = (p00 >> _SHIFT32) + (p01 & _U32_MASK) + (p10 & _U32_MASK)
    lo = (p00 & _U32_MASK) | (mid << _SHIFT32)
    hi = (a1 * _PCG_MULT_LO_1 + (p01 >> _SHIFT32) + (p10 >> _SHIFT32)
          + (mid >> _SHIFT32))
    hi = hi + sl * _PCG_MULT_HI + sh * _PCG_MULT_LO
    new_lo = lo + il
    new_hi = hi + ih + (new_lo < lo)
    return new_hi, new_lo


def _output(sh, sl):
    """PCG64 XSL-RR output of a (post-step) state."""
    rot = sh >> np.uint64(58)
    value = sh ^ sl
    return (value >> rot) | (value << ((np.uint64(64) - rot) & np.uint64(63)))


def _seed_limbs_multi(seeds: Sequence, n: int):
    """The four uint64 limb arrays ``(ih, il, sh, sl)`` of the PCG64
    streams of ``len(seeds)`` concatenated per-seed pools — lanes
    ``[r*n, (r+1)*n)`` hold the ``n`` streams
    ``SeedSequence(seeds[r]).spawn(n)`` would seed.

    ``ih/il`` are the per-stream increments, ``sh/sl`` the post-seeding
    LCG states (``pcg_setseq_128_srandom_r``: ``state = step(inc +
    initstate)``).  Reading ``.entropy`` off a real root SeedSequence
    handles ``seed=None`` (OS entropy) and arbitrary-width ints
    uniformly.  Only the entropy-pool spawn is per-seed; the state-word
    generation and all limb arithmetic run once over the concatenated
    lane axis (per-lane operations, so the concatenation is bit-exact
    equal to per-seed calls).
    """
    if not len(seeds):
        z = np.zeros(0, dtype=np.uint64)
        return z, z.copy(), z.copy(), z.copy()
    seed_lanes = _dispatch().kernel("seed_lanes")
    if seed_lanes is not None:
        R = len(seeds)
        pool4 = np.empty((R, 4), dtype=np.uint32)
        hcs = np.empty(R, dtype=np.uint32)
        for r, s in enumerate(seeds):
            pool, hc = _pool_prefix(int(np.random.SeedSequence(s).entropy))
            pool4[r] = pool
            hcs[r] = hc
        total = R * n
        ih = np.empty(total, dtype=np.uint64)
        il = np.empty(total, dtype=np.uint64)
        sh = np.empty(total, dtype=np.uint64)
        sl = np.empty(total, dtype=np.uint64)
        seed_lanes(pool4, hcs, R, n, ih, il, sh, sl)
        return ih, il, sh, sl
    pools = [_spawn_pools(int(np.random.SeedSequence(s).entropy), n)
             for s in seeds]
    pools = pools[0] if len(pools) == 1 else np.concatenate(pools, axis=1)
    total = pools.shape[1]
    ih = np.empty(total, dtype=np.uint64)
    il = np.empty(total, dtype=np.uint64)
    sh = np.empty(total, dtype=np.uint64)
    sl = np.empty(total, dtype=np.uint64)
    one = np.uint64(1)
    # Same chunking as the draw path: the limb pipeline spins up ~30
    # temporaries, and at full replica width each would be a fresh
    # multi-MiB mmap'd allocation.
    with np.errstate(over="ignore"):
        for a in range(0, total, _CHUNK):
            b = min(a + _CHUNK, total)
            w0, w1, w2, w3 = _generate_state_words(pools[:, a:b])
            ih_c = (w2 << one) | (w3 >> np.uint64(63))
            il_c = (w3 << one) | one
            sl_c = il_c + w1
            sh_c = ih_c + w0 + (sl_c < il_c)
            sh_c, sl_c = _step(sh_c, sl_c, ih_c, il_c)
            ih[a:b] = ih_c
            il[a:b] = il_c
            sh[a:b] = sh_c
            sl[a:b] = sl_c
    return ih, il, sh, sl


# ----------------------------------------------------------------------
# The streams: lane = (replica, graph, node)
# ----------------------------------------------------------------------

class _LaneLayout:
    """The flat lane space both stream classes share.

    G graphs of ``node_counts`` nodes are concatenated into one node
    index space of ``total`` columns, and replica ``r`` (seeded with
    ``seeds[r]``) occupies flat lanes ``[r*total, (r+1)*total)``: graph
    ``g``'s node ``i`` in replica ``r`` is flat lane ``r * total +
    offsets[g] + i``.  SeedSequence spawn child ``i`` depends only on
    (seed entropy, ``i``), so that lane is *definitionally* the stream
    ``spawn_node_rngs(range(n_g), seeds[r])`` gives node ``i``.  A
    single run is the one-graph, one-seed case.

    One-graph streams built from a node list by :func:`node_stream_pool`
    or :func:`replica_node_streams` also carry ``nodes`` (the stable
    order) and ``lane`` (node id -> lane, built on first read).
    """

    nodes: List[NodeId]
    _lane: Optional[Dict[NodeId, int]] = None

    @property
    def lane(self) -> Dict[NodeId, int]:
        """Node id -> lane of one-graph streams.  Most runs draw by lane
        and never look a node up, so the map is built on first read."""
        if self._lane is None:
            self._lane = {v: i for i, v in enumerate(self.nodes)}
        return self._lane

    def __init__(self, node_counts: Sequence[int], seeds: Sequence):
        self.counts = [int(c) for c in node_counts]
        if any(c < 0 for c in self.counts):
            raise ValueError("node counts must be non-negative")
        self.seeds = list(seeds)
        self.offsets = np.zeros(len(self.counts) + 1, dtype=np.int64)
        np.cumsum(self.counts, out=self.offsets[1:])
        self.total = int(self.offsets[-1])

    @property
    def n(self) -> int:
        """Lanes per replica (``total``; a graph's node count when G = 1)."""
        return self.total

    @property
    def replicas(self) -> int:
        return len(self.seeds)

    def flat_lane(self, replica: int, lane: int) -> int:
        """The flat lane of column ``lane`` in ``replica``."""
        return replica * self.total + lane


class GridReplicaStreams(_LaneLayout):
    """The vector engine: ``R x total`` PCG64 streams as uint64 limbs.

    The limbs of every graph are prefix slices of one master
    ``(R, n_max)`` pool, and one vector draw over the flat plane
    advances an entire (replicas x graphs) grid at once; a draw for a
    set of lanes steps exactly those lanes.

    Construct through :func:`grid_streams` (or the one-graph factories),
    which checks :func:`vector_streams_available` for every bounded range
    the caller will draw and otherwise returns the per-node fallback.
    """

    def __init__(self, node_counts: Sequence[int], seeds: Sequence):
        super().__init__(node_counts, seeds)
        R = len(self.seeds)
        n_max = max(self.counts, default=0)
        master = _seed_limbs_multi(self.seeds, n_max)
        if len(self.counts) == 1:
            limbs = list(master)
        else:
            limbs = []
            for src in master:
                src2 = src.reshape(R, n_max)
                dst = np.empty(R * self.total, dtype=np.uint64)
                dst2 = dst.reshape(R, self.total)
                for g, n_g in enumerate(self.counts):
                    off = int(self.offsets[g])
                    dst2[:, off:off + n_g] = src2[:, :n_g]
                limbs.append(dst)
        self._ih, self._il, self._sh, self._sl = limbs
        self._materialized: Dict[int, np.random.Generator] = {}

    def _check_unowned(self, lanes) -> None:
        owned = [i for i in lanes if i in self._materialized]
        if owned:
            raise RuntimeError(
                f"lanes {owned[:5]} are owned by materialized "
                "generators; vector draws would desynchronize them")

    def _next64(self, lanes: np.ndarray) -> np.ndarray:
        if self._materialized:
            self._check_unowned(lanes.tolist())
        with np.errstate(over="ignore"):
            sh, sl = _step(self._sh[lanes], self._sl[lanes],
                           self._ih[lanes], self._il[lanes])
            self._sh[lanes] = sh
            self._sl[lanes] = sl
            return _output(sh, sl)

    def random(self, lanes: np.ndarray) -> np.ndarray:
        """One ``Generator.random()`` draw per lane, in lane order."""
        lanes = np.asarray(lanes)
        out = np.empty(lanes.size, dtype=np.float64)
        for a in range(0, lanes.size, _CHUNK):
            b = min(a + _CHUNK, lanes.size)
            out[a:b] = (self._next64(lanes[a:b]) >> np.uint64(11)) \
                * (2.0 ** -53)
        return out

    def draw_ints(self, lanes: np.ndarray, high: int,
                  need: np.ndarray | None = None) -> np.ndarray:
        """One ``Generator.integers(1, high + 1)`` draw per lane.

        ``need`` (optional boolean mask over ``lanes``): every lane's
        stream advances exactly as without it -- the accept test only
        needs the *wrapping* low product half -- but the upper-half
        product that materializes the sampled value is computed for
        needed lanes only; entries at ``~need`` are unspecified.
        Callers use this when a draw must happen for stream-position
        fidelity but its value is provably never read (e.g. an election
        identifier nobody is in range to compare).
        """
        # Generator.integers(1, high + 1): off = 1, inclusive range
        # width rng = high - 1.  The factories guarantee Lemire's
        # 64-bit path (rng > 2^32 - 1), whose acceptance threshold is
        # ((2^64 - rng_excl) % rng_excl) on the low product half;
        # each rejected lane consumes exactly one more raw u64.
        rng_excl = np.uint64(high)
        threshold = np.uint64(((1 << 64) - high) % high)
        lanes = np.asarray(lanes)
        out = np.empty(lanes.size, dtype=np.int64)
        for a in range(0, lanes.size, _CHUNK):
            b = min(a + _CHUNK, lanes.size)
            self._draw_chunk(lanes[a:b], rng_excl, threshold, out[a:b],
                             None if need is None else need[a:b])
        return out

    def draw_ints_masked(self, mask: np.ndarray, high: int,
                         need: np.ndarray | None = None,
                         out: np.ndarray | None = None) -> np.ndarray:
        """Bounded draws for every lane where ``mask`` holds.

        Equivalent to ``draw_ints(np.nonzero(mask)[0], high)`` scattered
        into a ``mask.size`` output, but dense chunks advance their
        states with pure *slice* arithmetic over the lane axis -- no
        index gather/scatter -- and the handful of idle lanes get their
        pre-step states restored.  Lanes outside ``mask`` end up
        untouched either way; output entries are defined only where
        ``mask`` (and ``need``, when given) hold.

        ``out`` (optional, C-contiguous int64 of ``mask.size``): write
        the drawn values into this buffer in place and return it.
        Entries at ``need & ~mask`` are set to 0 -- an impossible draw
        (values start at 1), so the persistent plane doubles as an
        *inactive-masked* value plane consumers can read without
        re-gathering the mask (``engine.kernels.elect_round_batch``'s
        ``ids_masked`` fast path).  Entries outside both keep their
        previous contents; entries at ``mask & ~need`` are unspecified
        (a backend may overwrite them with unmaterialized values).
        Callers that persist a value plane across rounds (e.g.
        election identifiers) pass the plane itself and skip an
        extract/scatter pair per round.
        """
        mask = np.ascontiguousarray(mask, dtype=bool)
        out = _check_out(mask, out)
        draw_masked = _dispatch().kernel("draw_masked")
        if draw_masked is not None:
            if self._materialized:
                self._check_unowned(i for i in self._materialized if mask[i])
            draw_masked(
                self._sh, self._sl, self._ih, self._il,
                mask.view(np.uint8),
                None if need is None else
                np.ascontiguousarray(need, dtype=bool).view(np.uint8),
                high, out)
            return out
        if need is not None:
            # Same plane contract as the native kernel: needed idle
            # lanes read as the impossible value 0.
            out[np.asarray(need, dtype=bool) & ~mask] = 0
        rng_excl = np.uint64(high)
        threshold = np.uint64(((1 << 64) - high) % high)
        one = np.uint64(1)
        retry = []
        with np.errstate(over="ignore"):
            for a in range(0, mask.size, _CHUNK):
                b = min(a + _CHUNK, mask.size)
                m = mask[a:b]
                cnt = int(m.sum())
                if cnt == 0:
                    continue
                if self._materialized:
                    self._check_unowned(i for i in self._materialized
                                        if a <= i < b and m[i - a])
                full = cnt == b - a
                if not full and cnt * 5 < 2 * (b - a):
                    # Sparse chunk: the gathered path touches less data.
                    lanes = np.nonzero(m)[0] + a
                    tmp = np.empty(lanes.size, dtype=np.int64)
                    self._draw_chunk(
                        lanes, rng_excl, threshold, tmp,
                        None if need is None else need[a:b][m])
                    out[lanes] = tmp
                    continue
                if full:
                    idle = None
                else:
                    idle = np.nonzero(~m)[0]
                    keep_h = self._sh[a:b][idle]
                    keep_l = self._sl[a:b][idle]
                sh, sl = _step(self._sh[a:b], self._sl[a:b],
                               self._ih[a:b], self._il[a:b])
                if idle is not None:
                    sh[idle] = keep_h
                    sl[idle] = keep_l
                self._sh[a:b] = sh
                self._sl[a:b] = sl
                value = _output(sh, sl)
                lo = value * rng_excl
                rej = (lo < threshold) & m
                sel = m if need is None else m & need[a:b]
                if rej.any():
                    # Rejected lanes re-draw through the gathered loop
                    # (each consumed exactly one raw u64 here already).
                    sel = sel & ~rej
                    retry.append(np.nonzero(rej)[0] + a)
                if sel.all():
                    out[a:b] = (_umulhi(value, rng_excl)
                                + one).astype(np.int64)
                else:
                    out[a:b][sel] = (_umulhi(value[sel], rng_excl)
                                     + one).astype(np.int64)
        if retry:
            lanes = np.concatenate(retry)
            tmp = np.empty(lanes.size, dtype=np.int64)
            self._draw_chunk(lanes, rng_excl, threshold, tmp,
                             None if need is None else need[lanes])
            out[lanes] = tmp
        return out

    def _draw_chunk(self, pending: np.ndarray, rng_excl, threshold,
                    out: np.ndarray, need: np.ndarray | None) -> None:
        """Lemire-rejection bounded draws for one lane block, writing
        the values (``+1`` offset applied) into the ``out`` view."""
        one = np.uint64(1)
        pos = None  # None = all of `out` still pending (the common case)
        while pending.size:
            value = self._next64(pending)
            with np.errstate(over="ignore"):
                lo = value * rng_excl  # wrapping low half: the accept test
            accepted = lo >= threshold
            if accepted.all():
                acc_pos, acc_val = pos, value
                pending = pending[:0]
            else:
                rejected = ~accepted
                if pos is None:
                    pos = np.arange(pending.size)
                acc_pos, acc_val = pos[accepted], value[accepted]
                pos, pending = pos[rejected], pending[rejected]
            sel = need if acc_pos is None else \
                (None if need is None else need[acc_pos])
            with np.errstate(over="ignore"):
                if sel is None:
                    vals = (_umulhi(acc_val, rng_excl) + one).astype(np.int64)
                else:
                    acc_pos = np.nonzero(sel)[0] if acc_pos is None \
                        else acc_pos[sel]
                    vals = (_umulhi(acc_val[sel], rng_excl)
                            + one).astype(np.int64)
            if acc_pos is None:
                out[:] = vals
            else:
                out[acc_pos] = vals

    def generator(self, lane: int) -> np.random.Generator:
        """A real ``Generator`` owning this lane's stream from here on
        (positioned at its current state; vector draws on the lane
        raise afterwards)."""
        gen = self._materialized.get(lane)
        if gen is None:
            bg = materialize_bit_generator()
            bg.state = self.snapshot_state(lane)
            gen = self._materialized[lane] = np.random.Generator(bg)
        return gen

    def snapshot_state(self, flat_lane: int) -> dict:
        """A lane's *current* stream state as a PCG64 state dict, without
        recording ownership: repeated calls return independent copies
        that diverge from the shared limbs.  The k-axis fusion keeps one
        pooled ``PCG64`` and swaps these states per event, running
        several adoption phases off one frozen post-election state (a
        full state round-trip, so streams continue bit-identically to a
        dedicated per-lane generator).  The caller must not vector-draw
        the lane afterwards."""
        return {
            "bit_generator": "PCG64",
            "state": {
                "state": (int(self._sh[flat_lane]) << 64)
                | int(self._sl[flat_lane]),
                "inc": (int(self._ih[flat_lane]) << 64)
                | int(self._il[flat_lane]),
            },
            "has_uint32": 0,
            "uinteger": 0,
        }


class _FallbackStreams(_LaneLayout):
    """The same lanes over real per-node generators (the safety net).

    Serves draws the vector engine does not model -- bounded widths at
    or below 2^32 - 1, i.e. numpy's buffered 32-bit sampler, whose
    half-word state the limbs do not carry -- and every draw after a
    failed self-test.  Each lane's ``Generator`` is built on first use
    from spawn child ``i`` of its replica's root ``SeedSequence``, so it
    is the very generator ``spawn_node_rngs`` would give that node.
    """

    def __init__(self, node_counts: Sequence[int], seeds: Sequence):
        super().__init__(node_counts, seeds)
        # One root per replica: a ``None`` seed pulls OS entropy once.
        self._roots = [np.random.SeedSequence(s) for s in self.seeds]
        self._rngs: Dict[int, np.random.Generator] = {}

    def generator(self, lane: int) -> np.random.Generator:
        """The lane's own ``Generator`` (the same object on every call)."""
        rng = self._rngs.get(lane)
        if rng is None:
            r, col = divmod(int(lane), self.total)
            g = int(np.searchsorted(self.offsets, col, side="right")) - 1
            root = self._roots[r]
            child = np.random.SeedSequence(
                root.entropy, spawn_key=(col - int(self.offsets[g]),),
                pool_size=root.pool_size)
            rng = self._rngs[lane] = np.random.default_rng(child)
        return rng

    def snapshot_state(self, flat_lane: int) -> dict:
        return self.generator(flat_lane).bit_generator.state

    def random(self, lanes: np.ndarray) -> np.ndarray:
        lanes = np.asarray(lanes, dtype=np.int64)
        return np.fromiter((self.generator(i).random()
                            for i in lanes.tolist()),
                           dtype=np.float64, count=lanes.size)

    def draw_ints(self, lanes: np.ndarray, high: int,
                  need: np.ndarray | None = None) -> np.ndarray:
        # `need` is advisory; drawing every value is within contract.
        lanes = np.asarray(lanes, dtype=np.int64)
        return np.fromiter((int(self.generator(i).integers(1, high + 1))
                            for i in lanes.tolist()),
                           dtype=np.int64, count=lanes.size)

    def draw_ints_masked(self, mask: np.ndarray, high: int,
                         need: np.ndarray | None = None,
                         out: np.ndarray | None = None) -> np.ndarray:
        """:meth:`GridReplicaStreams.draw_ints_masked`'s contract over
        per-lane draws (a fresh ``out`` is zero-filled)."""
        mask = np.asarray(mask, dtype=bool)
        out = _check_out(mask, out, fill=0)
        if need is not None:
            out[np.asarray(need, dtype=bool) & ~mask] = 0
        lanes = np.nonzero(mask)[0]
        out[lanes] = self.draw_ints(lanes, high)
        return out


def _check_out(mask: np.ndarray, out: np.ndarray | None,
               fill: int | None = None) -> np.ndarray:
    """Validate (or allocate) a masked draw's ``out`` buffer."""
    if out is None:
        return np.empty(mask.size, dtype=np.int64) if fill is None \
            else np.full(mask.size, fill, dtype=np.int64)
    if (out.dtype != np.int64 or out.size != mask.size
            or not out.flags.c_contiguous):
        raise ValueError(
            "out must be a C-contiguous int64 buffer of mask.size")
    return out


# ----------------------------------------------------------------------
# Factory + self-test
# ----------------------------------------------------------------------

_vector_verified: Optional[bool] = None


def _self_test() -> bool:
    """Compare the whole vector pipeline against numpy's generators."""
    try:
        for seed in (12345, 0):
            pool = GridReplicaStreams([6], [seed])
            ref = spawn_node_rngs(range(6), seed)
            lanes = np.arange(6)
            if [float(x) for x in pool.random(lanes)] != \
                    [ref[v].random() for v in range(6)]:
                return False
            high = 10 ** 16
            for _ in range(3):  # repeat to exercise rejection re-draws
                drawn = pool.draw_ints(lanes, high)
                want = [int(ref[v].integers(1, high + 1)) for v in range(6)]
                if [int(x) for x in drawn] != want:
                    return False
            # Materialization must continue the stream in place.
            gen = pool.generator(2)
            if gen.random() != ref[2].random():
                return False
            if [int(x) for x in gen.integers(0, 2 ** 62, size=3)] != \
                    [int(x) for x in ref[2].integers(0, 2 ** 62, size=3)]:
                return False
        return True
    except Exception:
        return False


def vector_streams_available(bounded_ranges: Sequence[int] = ()) -> bool:
    """Whether the vector engine would serve these draws.

    Every intended bounded-draw width must select Lemire's 64-bit path
    (width strictly between 2^32 - 1 and 2^64 - 1), and the vector
    pipeline must have passed its one-shot self-test against numpy's
    own generators.
    """
    global _vector_verified
    if not all(_M32 < r < _M64 for r in bounded_ranges):
        return False
    if _vector_verified is None:
        _vector_verified = _self_test()
    return _vector_verified


def grid_streams(node_counts: Sequence[int], seeds: Sequence,
                 *, bounded_ranges: Sequence[int] = ()):
    """Streams over the ``(replica, graph, node)`` lanes of G graphs of
    ``node_counts`` nodes, one replica per seed: the vector engine when
    it is exact for these draws, the per-node fallback otherwise.

    ``bounded_ranges`` lists the inclusive range widths of every
    ``integers``-style draw the caller intends to make; any width at or
    below 2^32 - 1 selects numpy's buffered 32-bit sampler, which the
    vector engine does not model.
    """
    if vector_streams_available(bounded_ranges):
        return GridReplicaStreams(node_counts, seeds)
    return _FallbackStreams(node_counts, seeds)


def replica_node_streams(nodes: Iterable[NodeId], seeds: Sequence,
                         *, bounded_ranges: Sequence[int] = ()):
    """One-graph :func:`grid_streams` over ``nodes``, one replica per
    seed.  Lane ``i`` is the ``i``-th node in stable order (``lane``
    maps node ids to lanes on first read), so replica ``r`` consumes
    exactly the streams of ``spawn_node_rngs(nodes, seeds[r])`` and a
    batched run draws as a sequential per-seed loop would.
    """
    node_list = stable_sorted(nodes)
    streams = grid_streams([len(node_list)], seeds,
                           bounded_ranges=bounded_ranges)
    streams.nodes = node_list
    return streams


def node_stream_pool(nodes: Iterable[NodeId], seed,
                     *, bounded_ranges: Sequence[int] = ()):
    """The single-run streams: :func:`replica_node_streams` with one seed."""
    return replica_node_streams(nodes, [seed],
                                bounded_ranges=bounded_ranges)
