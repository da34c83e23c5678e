"""Vectorized CSR kernels over cached :class:`GraphArtifacts`.

This module is the single *coverage-counting plane* of the codebase and
the kernel layer the ``mode="direct"`` backends of Algorithms 2 and 3
are built on.  Everything here operates in **artifact index space**
(``art.index[v] -> i``, ``art.nodes[i] -> v``) on numpy arrays:

- :func:`member_indicator` / :func:`member_counts` — per-node dominator
  counts as one sparse matvec over the closed-adjacency CSR (the only
  place in the library that counts coverage; :mod:`repro.core.verify`,
  the dynamics loop, and both direct kernels all route through it);
- :func:`deficit_vector` — the shortfall against a requirement vector,
  the signal the maintenance loop repairs;
- :func:`scatter_cover` — incremental coverage update for a batch of
  promotions (scatter-add over the promoted nodes' closed balls), the
  frontier primitive that replaces O(n)-per-iteration rescans;
- :func:`demotion_candidates` — the vectorized safety prefilter for
  demoting over-covering dominators (scatter-min of client coverage);
- :func:`udg_distance_csr` / :func:`supports_kernel_election` /
  :func:`elect_round_batch` — the flattened distance-sorted adjacency of
  a :class:`~repro.graphs.udg.UnitDiskGraph` and the lexicographic-argmax
  election kernel of Algorithm 3 Part I.

RNG discipline
--------------
Kernels never own randomness.  Callers draw from the **per-node**
streams of :func:`repro.simulation.rng.spawn_node_rngs` in exactly the
per-node reference order (one draw per active node per election round,
one ``choice`` per over-subscribed leader, ...), so kernelized execution
consumes each node's stream identically to the per-node generator loop
(the ``reference=True`` oracle) and results stay bit-identical — pinned
by ``tests/test_stepper_differential.py`` and the kernel-vs-reference
suite in ``tests/test_mode_equivalence.py``.
"""

from __future__ import annotations

from collections.abc import Collection
from typing import Iterable, Tuple

import numpy as np

from repro.engine import dispatch
from repro.engine.artifacts import GraphArtifacts, StackedGraphs
from repro.errors import GraphError
from repro.types import MemberSet

__all__ = [
    "member_indicator",
    "member_mask",
    "member_counts",
    "member_counts_batch",
    "member_counts_stacked",
    "deficit_vector",
    "scatter_cover",
    "scatter_cover_batch",
    "demotion_candidates",
    "udg_distance_csr",
    "stacked_distance_csr",
    "supports_kernel_election",
    "elect_round_batch",
]


# ======================================================================
# The coverage plane
# ======================================================================

def _identity_labels(art: GraphArtifacts) -> bool:
    """Whether ``art`` labels its nodes 0..n-1 at their own indices."""
    try:
        ids = art.nodes_array()
    except GraphError:
        return False
    return bool(np.array_equal(ids, np.arange(art.n)))


def _member_indices(art: GraphArtifacts, members: MemberSet):
    """The artifact indices of a :class:`MemberSet` without an id lookup:
    when both label nodes 0..n-1, or when its table is the artifacts'
    own stable node order.  ``None`` otherwise."""
    idx = members.indices
    if members.identity:
        if (_identity_labels(art)
                and (idx.size == 0 or idx[-1] < art.n)):
            return idx
        return None
    nodes, order, _ = art.stable_order()
    return order[idx] if members.nodes is nodes else None


def _table_indices(art: GraphArtifacts, members: Iterable):
    """The artifact indices of integer ``members`` through the bundle's
    dense id table (:meth:`GraphArtifacts.id_lookup`), or ``None`` when
    it has none or ``members`` is not a collection of integers (bools
    read as 0/1, as the dict lookup reads them).  An unknown member
    raises ``KeyError``."""
    lookup = art.id_lookup()
    if lookup is None or not isinstance(members, Collection):
        return None
    # numpy infers an integer (or bool) dtype only when every element is
    # one: a float, string, sequence or out-of-range int leaves the dict
    # to decide.
    try:
        ids = np.array(list(members))
    except ValueError:  # ragged sequences among the members
        return None
    if ids.dtype.kind not in "ib" or ids.ndim != 1:
        return None
    ids = ids.astype(np.int64, copy=False)
    lo, table = lookup
    # Offsets outside the range, wrapped ones included, exceed the span
    # as unsigned and clamp to the table's trailing -1.
    idx = table.take(np.minimum((ids - lo).view(np.uint64),
                                len(table) - 1).view(np.int64))
    if idx.size and idx.min() < 0:
        raise KeyError(int(ids[np.argmin(idx)]))
    return idx


def member_mask(art: GraphArtifacts, members: Iterable) -> np.ndarray:
    """Index-aligned boolean membership mask of ``members`` (the native
    coverage kernels' operand; ``.astype(float)`` of it is exactly
    :func:`member_indicator`).  A :class:`~repro.types.MemberSet` over
    the identity labels or the artifacts' own node order is one scatter
    of its index array.  Integer members of an integer-labelled bundle
    are read with one ``np.array`` and looked up in its dense id table;
    anything else is one ``np.fromiter`` over ``art.index``.  An unknown
    member raises ``KeyError``."""
    mask = np.zeros(art.n, dtype=bool)
    if isinstance(members, MemberSet):
        idx = _member_indices(art, members)
        if idx is not None:
            mask[idx] = True
            return mask
    idx = _table_indices(art, members)
    if idx is None:
        idx = np.fromiter(map(art.index.__getitem__, members),
                          dtype=np.int64)
    mask[idx] = True
    return mask


def member_indicator(art: GraphArtifacts, members: Iterable) -> np.ndarray:
    """Index-aligned 0/1 float vector of ``members`` (matvec-ready)."""
    return member_mask(art, members).astype(float)


def _counts_native(impl, indptr, idx32, mask: np.ndarray, n: int, R: int,
                   convention: str) -> np.ndarray:
    """Run a dispatched coverage-matvec provider over a boolean mask
    plane.  ``mask`` is (n,) for one vector, else (R, n); the batch
    shape is handed to the kernel lane-interleaved ((n, R) uint8 — one
    gathered row index serves all R lanes), which is where the batch
    speedup comes from.  The result has the mask's shape."""
    open_conv = 1 if convention == "open" else 0
    if mask.ndim == 1:
        xT = np.ascontiguousarray(mask).view(np.uint8)
        out = np.empty(n, dtype=np.int64)
    else:
        xT = np.ascontiguousarray(mask.T).view(np.uint8)
        out = np.empty((R, n), dtype=np.int64)
    impl(n, R, indptr, idx32, xT, open_conv, out)
    return out


def member_counts(art: GraphArtifacts, members=None, *,
                  indicator: np.ndarray | None = None,
                  convention: str = "open") -> np.ndarray:
    """Per-node dominator counts as one closed-adjacency CSR matvec.

    ``A_closed @ x`` counts members in each closed neighborhood; the
    open convention subtracts the node's own membership indicator.
    Pass either a ``members`` iterable of node ids or a prebuilt
    ``indicator`` vector (both is an error); a *boolean* indicator (or
    any ``members`` iterable) is eligible for the registry's compiled
    providers (:mod:`repro.engine.dispatch`), which are bit-identical
    to the scipy path — 0/1 row sums are exact small integers in any
    accumulation order.  Returns int64.
    """
    if (members is None) == (indicator is None):
        raise ValueError("pass exactly one of members / indicator")
    if indicator is None:
        mask = member_mask(art, members)
    else:
        ind = np.asarray(indicator)
        mask = ind if ind.dtype == np.bool_ else None
    if mask is not None and mask.ndim == 1 and mask.size == art.n and art.n:
        impl = dispatch.kernel("member_counts")
        if impl is not None:
            idx32 = art.closed_csr_indices32()
            if idx32 is not None:
                indptr, _ = art.closed_csr_arrays()
                return _counts_native(impl, indptr, idx32, mask, art.n, 1,
                                      convention)
    x = mask.astype(float) if mask is not None \
        else np.asarray(indicator, dtype=float)
    counts = art.closed_adjacency().dot(x)
    if convention == "open":
        counts -= x
    return counts.astype(np.int64)


def member_counts_batch(art: GraphArtifacts, members=None, *,
                        indicators: np.ndarray | None = None,
                        convention: str = "open") -> np.ndarray:
    """Replica-batched :func:`member_counts`: one CSR mat-mat over an
    ``(R, n)`` stack of membership indicators, returning ``(R, n)``
    int64 counts.

    Each row is computed exactly as ``member_counts`` computes a single
    replica (scipy's CSR mat-mat accumulates every column in the same
    row order as its matvec, and 0/1 float sums are exact), so row ``r``
    is bit-identical to the single-replica call.  Pass either a
    ``members`` sequence of per-replica member iterables or a prebuilt
    ``indicators`` array (both is an error).  Boolean indicators route
    through the registry's compiled providers, whose 16-lane integer
    accumulation computes the same exact counts (uint16 partial sums
    are bounded by the closed degree; the kernel engages only while
    ``Delta + 1 < 2^16``).
    """
    if (members is None) == (indicators is None):
        raise ValueError("pass exactly one of members / indicators")
    if indicators is None:
        masks = [member_mask(art, ms) for ms in members]
        mask = np.stack(masks) if masks \
            else np.zeros((0, art.n), dtype=bool)
    else:
        arr = np.asarray(indicators)
        mask = arr if arr.dtype == np.bool_ else None
    if mask is not None:
        if mask.ndim != 2:
            raise ValueError(
                f"indicators must be (replicas, n), got {mask.shape}")
        R = mask.shape[0]
        if R and art.n and art.delta_max + 1 < (1 << 16):
            impl = dispatch.kernel("member_counts_batch")
            if impl is not None:
                idx32 = art.closed_csr_indices32()
                if idx32 is not None:
                    indptr, _ = art.closed_csr_arrays()
                    return _counts_native(impl, indptr, idx32, mask,
                                          art.n, R, convention)
        x = mask.astype(float)
    else:
        x = np.asarray(indicators, dtype=float)
        if x.ndim != 2:
            raise ValueError(
                f"indicators must be (replicas, n), got {x.shape}")
    counts = art.closed_adjacency().dot(x.T).T
    if convention == "open":
        counts = counts - x
    return counts.astype(np.int64)


def deficit_vector(art: GraphArtifacts, counts: np.ndarray,
                   required: np.ndarray | int, *,
                   member_idx: np.ndarray | None = None) -> np.ndarray:
    """``max(0, required - counts)`` with members exempt (open conv.).

    ``member_idx`` (index array or boolean mask) zeroes the members'
    entries — under the open convention a dominator is never deficient.
    A boolean-mask ``member_idx`` (or none) with int64 ``counts`` is
    eligible for the registry's compiled providers — one fused pass
    instead of three full-array ones, same exact integers.
    """
    req = np.asarray(required, dtype=np.int64)
    mask = None
    native_ok = (counts.ndim == 1 and counts.dtype == np.int64
                 and counts.flags.c_contiguous and counts.size == art.n
                 and art.n > 0)
    if member_idx is not None:
        mi = np.asarray(member_idx)
        if mi.dtype == np.bool_ and mi.ndim == 1 and mi.size == art.n:
            mask = mi
        else:
            native_ok = False
    if native_ok and (req.ndim == 0
                      or (req.ndim == 1 and req.size == art.n)):
        impl = dispatch.kernel("deficit_vector")
        if impl is not None:
            out = np.empty(art.n, dtype=np.int64)
            req_vec = None if req.ndim == 0 else np.ascontiguousarray(req)
            members = None if mask is None \
                else np.ascontiguousarray(mask).view(np.uint8)
            impl(counts, req_vec, 0 if req.ndim else int(req), members,
                 out)
            return out
    deficit = np.maximum(req - counts, 0)
    if member_idx is not None:
        deficit[member_idx] = 0
    return deficit


def scatter_cover(coverage: np.ndarray, art: GraphArtifacts,
                  promoted_idx: np.ndarray, sign: int = 1) -> np.ndarray:
    """Add ``sign`` to every node in the closed ball of each promoted
    index; returns the concatenated (duplicated) touched indices.

    The incremental-frontier primitive: after a batch of promotions only
    the returned ball can change deficiency, so callers refresh exactly
    those entries instead of rescanning all ``n`` nodes.  An int64
    C-contiguous coverage plane routes through the registry's compiled
    providers — the same CSR segments in the same order, so the touched
    list and every increment are identical to the numpy path.
    """
    if len(promoted_idx) == 0:
        return np.zeros(0, dtype=np.int64)
    if (coverage.ndim == 1 and coverage.dtype == np.int64
            and coverage.flags.c_contiguous):
        impl = dispatch.kernel("scatter_cover")
        if impl is not None:
            indptr, indices = art.closed_csr_arrays()
            pi = np.ascontiguousarray(promoted_idx, dtype=np.int64)
            total = int((indptr[pi + 1] - indptr[pi]).sum())
            touched = np.empty(total, dtype=np.int64)
            impl(pi, indptr, indices, int(sign), coverage, touched)
            return touched
    touched, _ = _closed_balls(art, promoted_idx)
    np.add.at(coverage, touched, sign)
    return touched


def _closed_balls(art: GraphArtifacts, idx) -> Tuple[np.ndarray,
                                                      np.ndarray]:
    """The closed CSR rows of the (non-empty) ``idx`` concatenated in
    order, gathered in one vectorized expansion, and each row's length."""
    indptr, indices = art.closed_csr_arrays()
    pi = np.asarray(idx, dtype=np.int64)
    starts = indptr[pi]
    sizes = indptr[pi + 1] - starts
    ends = np.cumsum(sizes)
    ee = np.repeat(starts - (ends - sizes), sizes) \
        + np.arange(int(ends[-1]))
    return indices[ee], sizes


def scatter_cover_batch(coverage: np.ndarray, art: GraphArtifacts,
                        rep_idx: np.ndarray, promoted_idx: np.ndarray,
                        sign: int = 1):
    """Replica-batched :func:`scatter_cover`: add ``sign`` to the closed
    ball of each ``(rep_idx[j], promoted_idx[j])`` promotion inside the
    ``(R, n)`` coverage plane.

    Returns the ``(reps, touched)`` index pair (duplicated, aligned)
    of every updated entry, so callers can refresh deficiency for
    exactly the touched (replica, node) pairs.

    Balls are gathered from the closed CSR (one vectorized expansion,
    no per-promotion Python), and the scatter-add runs as a flat
    ``bincount`` plus one planar add — exact integer sums, so the
    result matches ``np.add.at`` on the same pairs bit for bit.
    """
    if len(promoted_idx) == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty
    touched, sizes = _closed_balls(art, promoted_idx)
    reps = np.repeat(np.asarray(rep_idx, dtype=np.int64), sizes)
    if coverage.flags.c_contiguous:
        n = coverage.shape[1]
        upd = np.bincount(reps * n + touched, minlength=coverage.size)
        flat = coverage.reshape(-1)
        if sign == 1:
            flat += upd
        else:
            flat += sign * upd
    else:  # pragma: no cover — no caller passes a strided plane today
        np.add.at(coverage, (reps, touched), sign)
    return reps, touched


def demotion_candidates(art: GraphArtifacts, member_mask: np.ndarray,
                        counts: np.ndarray,
                        required: np.ndarray | int) -> np.ndarray:
    """Indices of dominators that are *prima facie* safely removable.

    A member ``v`` passes iff (a) every non-member neighbor keeps
    coverage >= its requirement after losing ``v`` (scatter-min of
    client coverage over ``v``'s edges >= required + 1) and (b) ``v``
    itself, as a fresh client, would be covered (its open count of
    member neighbors >= its requirement).  The greedy confirmation pass
    (counts change as demotions land) lives with the caller; this is
    the vectorized O(m) prefilter.
    """
    n = art.n
    req = np.broadcast_to(np.asarray(required, dtype=np.int64), (n,))
    indptr, indices = art.open_csr()
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    to_client = ~member_mask[indices]
    min_client = np.full(n, np.iinfo(np.int64).max, dtype=np.int64)
    if to_client.any():
        np.minimum.at(min_client, src[to_client],
                      counts[indices[to_client]] - req[indices[to_client]])
    # min_client now holds min over client neighbors of (count - req);
    # >= 1 means every client survives losing one dominator.
    safe = member_mask & (counts >= req) & (min_client >= 1)
    return np.nonzero(safe)[0]


# ======================================================================
# UDG distance kernels (Algorithm 3 Part I)
# ======================================================================

def supports_kernel_election(udg) -> bool:
    """Whether Part I's election can run on the vectorized distance CSR.

    True for the stock geometric classes (including QUDG, whose pruning
    rebuilds the same distance CSR, and noisy sensing, whose per-edge
    factors are fixed).  A subclass that overrides
    ``neighbors_within`` with unknown semantics runs the per-node
    message loop instead — correctness over speed.
    """
    from repro.graphs.udg import NoisySensingUDG, UnitDiskGraph

    fn = type(udg).neighbors_within
    if fn is UnitDiskGraph.neighbors_within:
        return True
    return (isinstance(udg, NoisySensingUDG)
            and fn is NoisySensingUDG.neighbors_within)


def udg_distance_csr(udg) -> Tuple[np.ndarray, np.ndarray, np.ndarray,
                                   np.ndarray]:
    """The UDG's distance-sorted adjacency ``(indptr, src, nbr, dist)``
    (:attr:`~repro.graphs.udg.UnitDiskGraph.dist_csr`, whose rows are in
    ``neighbors_within`` order).

    ``dist`` holds the distances ``neighbors_within`` filters on — the
    stored (true) distances for plain/quasi UDGs, the *sensed* values
    for :class:`~repro.graphs.udg.NoisySensingUDG` — so a flat
    ``dist <= theta`` mask reproduces every ``N_v(theta)`` exactly.
    The arrays belong to the graph and are read-only.
    """
    from repro.graphs.udg import NoisySensingUDG

    indptr, src, nbr, dist = udg.dist_csr
    if isinstance(udg, NoisySensingUDG):
        dist = udg.sensed_dist
    return indptr, src, nbr, dist


def compress_within(indptr: np.ndarray, nbr: np.ndarray,
                    within: np.ndarray):
    """Compress one round's within-radius edge set of the distance CSR.

    Returns ``(deg_w, indptr_w, nbr_w)``: per-node within-degree, the
    compressed segment starts, and the admitted neighbor array.  The
    compression is shared by every replica of a round (the sensing
    radius admits the same edges in every replica), so callers driving
    :func:`elect_round_batch` round-by-round compute it once and pass
    it via ``within_csr`` instead of paying the O(m) scan twice.
    """
    wz = np.concatenate(([0], np.cumsum(within, dtype=np.int64)))
    deg_w = wz[indptr[1:]] - wz[indptr[:-1]]
    indptr_w = wz[indptr[:-1]]
    nbr_w = nbr[within]
    return deg_w, indptr_w, nbr_w


def elect_prep(within_csr):
    """Precompute the candidate view of a compressed within-CSR.

    Returns ``(has_cand, sub, starts, deg_sub, nbr_w)`` — the
    within-degree > 0 mask and nodes, their compressed segment starts
    and degrees, and the admitted neighbor array: everything
    :func:`elect_round_batch` reads, ready to hand it via ``prep=``.
    Pure function of the (static per round) compression, so
    round-driving callers cache it instead of the compression, whose
    two full per-node int64 vectors it drops.
    """
    deg_w, indptr_w, nbr_w = within_csr
    has_cand = deg_w > 0
    sub = np.nonzero(has_cand)[0]
    return has_cand, sub, indptr_w[sub], deg_w[sub], nbr_w


def elect_round_batch(indptr: np.ndarray, src: np.ndarray, nbr: np.ndarray,
                      within: np.ndarray | None, active: np.ndarray,
                      ids: np.ndarray, *, within_csr=None,
                      prep=None, ids_masked: bool = False) -> np.ndarray:
    """One Part I election round over ``(R, n)`` lane planes.

    Every active lane elects the lexicographically largest ``(id,
    node)`` among itself and its active neighbors at ``within``
    distance; a lane stays active iff somebody elected it.  Two passes
    give the exact lexicographic argmax without key packing (ids reach
    ``2^62``, so ``id * n + node`` would overflow int64): the winning
    identifier per elector, then the largest node index achieving it.
    The work is organized around the sweep's sparsity:

    1. the ``within`` edge set is compressed *once* and shared by every
       replica (each round's sensing radius admits the same edges in
       every replica);
    2. lanes whose node has **no** within-neighbors elect themselves by
       a single planar mask — no per-lane work at all.  In the early
       doubling rounds that is almost every lane;
    3. the remaining nodes' candidate lists live in one compressed
       edge array indexed identically for every replica, so the two
       lexicographic passes run as row-wise gathers plus ``axis=1``
       segment ``reduceat`` reductions over an ``(R, m_within)`` plane
       — contiguous streaming work whose cost tracks the populated
       part of the sweep (unlike ``np.maximum.at``, whose buffered
       inner loop balloons with the replica axis).

    Identifiers of *active* lanes must be >= 1 (every election
    identifier the algorithm draws is): inactive lanes are excluded
    from candidacy by zeroing their ids on a single ``(R, n)`` plane,
    which a positive identifier always beats — no per-candidate
    active-mask pass.  Every compressed segment is non-empty by
    construction (its node has within-degree > 0), so the reduceat
    needs no empty-segment fixups.  Each replica row is bit-identical
    to the per-row scatter-max election (``np.maximum.at`` passes over
    the flat CSR) the tests keep as its oracle.

    ``ids_masked=True`` asserts the caller's ``ids`` plane *already*
    holds 0 on every inactive candidate lane — exactly what a masked
    draw with ``need`` covering the candidate set leaves behind (see
    ``draw_ints_masked``).  The native scan then skips its
    per-candidate active gather, halving its random accesses; the
    NumPy path re-zeroes unconditionally, so the flag never changes
    results.  ``within`` is read only to compress it, so callers that
    pass ``within_csr`` or ``prep`` may pass ``None`` for it.
    """
    R, n = active.shape
    # --- shared edge compression (precomputed or done here) ----------
    if prep is None:
        if within_csr is None:
            within_csr = compress_within(indptr, nbr, within)
        prep = elect_prep(within_csr)
    has_cand, sub, starts, deg_sub, nbr_w = prep

    # --- lanes with no candidates: unopposed self-election -----------
    elected = active & ~has_cand[None, :]

    # --- lanes with candidates: 2-D segment-reduced argmax -----------
    if sub.size and R:
        impl = dispatch.kernel("elect_batch")
        if impl is not None:
            # One C scan per (replica, candidate node): reads active
            # lanes' ids directly, so inactive candidates are skipped
            # rather than zeroed — same election, no (R, m_w) planes.
            act = np.ascontiguousarray(active)
            impl(
                R, n, sub, starts,
                np.ascontiguousarray(deg_sub),
                np.ascontiguousarray(nbr_w, dtype=np.int64),
                np.ascontiguousarray(ids),
                act.view(np.uint8), elected.view(np.uint8),
                ids_masked=ids_masked)
            return active & elected
        ids_z = np.where(active, ids, 0)
        ids_w = ids_z[:, nbr_w]                       # (R, m_w)
        own = ids_z[:, sub]                           # (R, S)
        # Pass 1: the winning identifier (self is a candidate).
        best = np.maximum(own, np.maximum.reduceat(ids_w, starts, axis=1))
        # Pass 2: the largest node index achieving it.  Election runs
        # for every lane — active or not — of a within-degree > 0 node
        # (pure row-parallel arithmetic beats masking); inactive
        # electors' results are discarded below.
        rep = np.repeat(np.arange(sub.size), deg_sub)
        tie = np.where(ids_w == best[:, rep], nbr_w[None, :], -1)
        best_node = np.maximum(np.where(own == best, sub[None, :], -1),
                               np.maximum.reduceat(tie, starts, axis=1))
        ok = (best_node >= 0) & active[:, sub]
        rr, cc = np.nonzero(ok)
        elected.reshape(-1)[rr * n + best_node[rr, cc]] = True
    return active & elected


# ======================================================================
# Stacked (grid-batched) variants: one dispatch over G topologies
# ======================================================================

def stacked_distance_csr(stack: StackedGraphs):
    """The per-graph :func:`udg_distance_csr` planes of a
    :class:`StackedGraphs` concatenated into one flattened
    ``(indptr, src, nbr, dist)`` over the stacked node index space.

    The result is block-diagonal (graph ``g``'s rows reference only
    columns in ``[offsets[g], offsets[g+1])``), so every row-local
    kernel — :func:`compress_within`, :func:`elect_round_batch` — run
    over the stacked plane reproduces, per graph block, exactly what it
    computes on the graph alone.  A one-graph stack returns the graph's
    own (read-only) arrays; larger stacks cache the concatenation on
    the stack's per-instance ``kernel_cache``.
    """
    if len(stack.graphs) == 1:
        return udg_distance_csr(stack.graphs[0])
    cached = stack.kernel_cache.get("dist_csr")
    if cached is not None:
        return cached
    parts = [udg_distance_csr(g) for g in stack.graphs]
    indptr = np.zeros(stack.total + 1, dtype=np.int64)
    edge_off = 0
    src_chunks, nbr_chunks, dist_chunks = [], [], []
    for (p, s, b, d), off, n_g in zip(parts, stack.offsets[:-1],
                                      stack.counts):
        indptr[off + 1:off + n_g + 1] = p[1:] + edge_off
        src_chunks.append(s + off)
        nbr_chunks.append(b + off)
        dist_chunks.append(d)
        edge_off += int(p[-1])
    if src_chunks:
        src = np.concatenate(src_chunks)
        nbr = np.concatenate(nbr_chunks)
        dist = np.concatenate(dist_chunks)
    else:
        src = np.zeros(0, dtype=np.int64)
        nbr = np.zeros(0, dtype=np.int64)
        dist = np.zeros(0, dtype=np.float64)
    out = (indptr, src, nbr, dist)
    stack.kernel_cache["dist_csr"] = out
    return out


def member_counts_stacked(stack: StackedGraphs, *,
                          indicators: np.ndarray,
                          convention: str = "open") -> np.ndarray:
    """:func:`member_counts_batch` over the stacked closed adjacency:
    ``(R, total)`` indicators in, ``(R, total)`` int64 counts out.

    The stacked matrix is block-diagonal, so each graph's column block
    of the result is bit-identical to :func:`member_counts_batch` on
    that graph alone: same CSR row accumulation order, and every
    partial sum is a small integer (bounded by the largest closed
    degree, far below float32's 2^24 exact-integer range), so running
    the mat-mat in float32 — half the memory traffic of the per-graph
    float64 matvecs — produces the same int64 counts.  Boolean
    indicators route through the registry's compiled providers over the
    stacked CSR (a block-diagonal CSR is just a CSR), same exact
    integers again.  A one-graph stack is its graph's artifacts, so it
    takes :func:`member_counts_batch` and builds no float32 copy.
    """
    arr = np.asarray(indicators)
    if arr.ndim != 2 or arr.shape[1] != stack.total:
        raise ValueError(
            f"indicators must be (replicas, {stack.total}), got {arr.shape}")
    if len(stack.artifacts) == 1:
        return member_counts_batch(stack.artifacts[0], indicators=arr,
                                   convention=convention)
    R = arr.shape[0]
    if (arr.dtype == np.bool_ and R and stack.total
            and max((a.delta_max for a in stack.artifacts), default=0) + 1
            < (1 << 16)):
        impl = dispatch.kernel("member_counts_batch")
        if impl is not None:
            idx32 = stack.closed_csr_indices32()
            if idx32 is not None:
                indptr, _ = stack.closed_csr_arrays()
                return _counts_native(impl, indptr, idx32, arr,
                                      stack.total, R, convention)
    x = arr.astype(np.float32)
    adj = stack.kernel_cache.get("adj32")
    if adj is None:
        adj = stack.closed_adjacency().astype(np.float32)
        stack.kernel_cache["adj32"] = adj
    counts = adj.dot(x.T).T
    if convention == "open":
        counts = counts - x
    return counts.astype(np.int64)
