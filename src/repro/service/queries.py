"""The vectorized batch query plane over :class:`EpochSnapshot`.

Every public query takes a numpy array of node ids and answers the
whole batch with CSR gathers — no per-query Python loop:

- :func:`covered` — is each node fully k-covered right now?
- :func:`k_deficit` — each node's coverage shortfall (0 when covered);
- :func:`who_covers` — each node's covering dominators, CSR-shaped;
- :func:`dominator_of` — one live clusterhead per node (the paper's
  replicated-server use case: a client asks for *a* responsible
  dominator and gets a deterministic one);
- :func:`routes` — backbone routes via :func:`repro.apps.backbone_route`
  (per-pair shortest path; the one intrinsically non-vectorizable kind).

Unknown ids — dead, never deployed, or racing churn — are legal traffic
and answered with sentinels (``False`` / ``k`` / empty row / ``-1``),
never exceptions; :class:`~repro.errors.QueryError` is reserved for
*malformed* batches (wrong dtype/shape, unknown kind).

:func:`answer` is the dispatch entry the daemon's serving loop uses.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.errors import QueryError
from repro.service.snapshot import EpochSnapshot

__all__ = [
    "QUERY_KINDS",
    "covered",
    "k_deficit",
    "who_covers",
    "dominator_of",
    "routes",
    "answer",
]

#: Query kinds the dispatch plane accepts.
QUERY_KINDS = ("covered", "k_deficit", "dominator_of", "who_covers",
               "route")

_INT64_MAX = int(np.iinfo(np.int64).max)
#: 2**63 as a float: integral floats below it (and at or above its
#: negative) convert to int64 exactly.
_INT64_BOUND = 2.0 ** 63


def _id_batch(ids) -> np.ndarray:
    """Validate one batch of node ids (1-D, integers within int64).

    Integer, integral-float and object-int batches convert to int64.
    Rejected rather than parsed, wrapped or read as 0/1: string, bytes
    and bool dtypes; object elements that are not ints, or are bools;
    bools in a Python sequence; non-integral floats; and ids outside
    int64 (uint64 ids from 2**63, floats or Python ints out of range).
    """
    try:
        arr = np.asarray(ids)
        kind = arr.dtype.kind
        if kind not in "iufO":
            raise TypeError(f"got dtype {arr.dtype}")
        if kind == "O":
            # ``astype`` would parse strings and read bools as 0/1.
            if not all(isinstance(x, (int, np.integer))
                       and not isinstance(x, (bool, np.bool_))
                       for x in arr.flat):
                raise TypeError("non-integer elements")
        elif arr.ndim and not isinstance(ids, np.ndarray) and any(
                isinstance(x, (bool, np.bool_)) for x in ids):
            # numpy reads the bools of a list mixed with ints as 0/1.
            raise TypeError("boolean ids")
        elif kind == "f" and arr.size and not (
                np.equal(np.mod(arr, 1), 0).all()
                and arr.min() >= -_INT64_BOUND
                and arr.max() < _INT64_BOUND):
            raise ValueError("non-integral or out-of-range float ids")
        elif kind == "u" and arr.size and arr.max() > _INT64_MAX:
            raise OverflowError("ids beyond int64")
        arr = arr.astype(np.int64, copy=False)
    except (TypeError, ValueError, OverflowError) as exc:
        raise QueryError(f"query ids must be integers: {exc}") from None
    if arr.ndim != 1:
        raise QueryError(
            f"query ids must be a 1-D batch, got shape {arr.shape}")
    return arr


# ======================================================================
# Point-query kinds (vectorized)
# ======================================================================

def covered(snap: EpochSnapshot, ids) -> np.ndarray:
    """Boolean per id: fully k-covered in this epoch?  Members count as
    covered (open convention exempts them); unknown ids as not."""
    ids = _id_batch(ids)
    idx = snap.index_of(ids)
    if not snap.n:
        return np.zeros(len(ids), dtype=bool)
    # ``take(-1)`` reads the last node; the known mask discards it.
    return (idx >= 0) & (snap.deficit.take(idx) == 0)


def k_deficit(snap: EpochSnapshot, ids) -> np.ndarray:
    """Per-id coverage shortfall (0 = fully covered).  Unknown ids
    report the full requirement ``k`` — maximally uncovered."""
    ids = _id_batch(ids)
    idx = snap.index_of(ids)
    if not snap.n:
        return np.full(len(ids), snap.k, dtype=np.int64)
    return np.where(idx >= 0, snap.deficit.take(idx), np.int64(snap.k))


def who_covers(snap: EpochSnapshot, ids
               ) -> Tuple[np.ndarray, np.ndarray]:
    """Each id's covering dominators, CSR-shaped.

    Returns ``(indptr, dominators)``: query ``q``'s dominators are
    ``dominators[indptr[q]:indptr[q + 1]]`` — the *member* ids in its
    open neighborhood, in snapshot index order.  Unknown ids get empty
    rows; so do members themselves unless covered by other members
    (open convention: a dominator covers its neighbors, not itself).

    One gather over the snapshot's
    :meth:`~repro.service.snapshot.EpochSnapshot.dominator_csr` (derived
    by the writer before publication) for the whole batch: expand the
    queried rows' pool segments with ``repeat``/``arange`` — the
    self/non-member filtering already happened when the index was
    derived, so no per-batch masking remains.
    """
    ids = _id_batch(ids)
    idx = snap.index_of(ids)
    known = idx >= 0
    indptr = np.zeros(len(ids) + 1, dtype=np.int64)
    if not known.any():
        return indptr, np.zeros(0, dtype=np.int64)
    dom_starts, dom_counts, dom_ids = snap.dominator_csr()
    starts = dom_starts.take(idx)
    lens = np.where(known, dom_counts.take(idx), 0)
    np.cumsum(lens, out=indptr[1:])
    # Flat positions of every dominator entry of the batch.
    flat = np.repeat(starts - indptr[:-1], lens) \
        + np.arange(indptr[-1], dtype=np.int64)
    return indptr, dom_ids.take(flat)


def dominator_of(snap: EpochSnapshot, ids) -> np.ndarray:
    """One responsible dominator id per queried id, or ``-1``.

    A member answers for itself; a non-member covered by at least one
    dominator gets its smallest-id covering member (deterministic, so
    every client of a node agrees on the same clusterhead); an
    uncovered or unknown id gets ``-1``.

    Two gathers against the snapshot's index — the per-node minimum is
    derived once per snapshot, by the writer for a captured one
    (:meth:`~repro.service.snapshot.EpochSnapshot.min_dominator`).
    """
    ids = _id_batch(ids)
    idx = snap.index_of(ids)
    min_dom = snap.min_dominator()
    if not snap.n:
        return np.full(len(ids), -1, dtype=np.int64)
    return np.where(idx >= 0,
                    np.where(snap.member_mask.take(idx), ids,
                             min_dom.take(idx)),
                    np.int64(-1))


# ======================================================================
# Routing (per-pair, via repro.apps)
# ======================================================================

def routes(snap: EpochSnapshot, sources, targets
           ) -> List[Optional[List[int]]]:
    """Backbone route per (source, target) pair, or ``None``.

    Delegates each pair to :func:`repro.apps.backbone_route` over the
    snapshot topology and dominator set — intermediate hops stay on the
    backbone.  Unknown endpoints and disconnected pairs answer ``None``.
    """
    from repro.apps import backbone_route

    src = _id_batch(sources)
    dst = _id_batch(targets)
    if len(src) != len(dst):
        raise QueryError(
            f"route batch needs equal-length sources/targets, got "
            f"{len(src)} vs {len(dst)}")
    g = snap.graph()
    members = snap.member_ids()
    out: List[Optional[List[int]]] = []
    for s, t in zip(src.tolist(), dst.tolist()):
        if s not in g or t not in g:
            out.append(None)
            continue
        out.append(backbone_route(g, members, s, t))
    return out


# ======================================================================
# Dispatch
# ======================================================================

def answer(snap: EpochSnapshot, kind: str, ids,
           targets=None):
    """Answer one batch: the daemon serving loop's single entry point."""
    if kind == "covered":
        return covered(snap, ids)
    if kind == "k_deficit":
        return k_deficit(snap, ids)
    if kind == "dominator_of":
        return dominator_of(snap, ids)
    if kind == "who_covers":
        return who_covers(snap, ids)
    if kind == "route":
        if targets is None:
            raise QueryError("route queries need targets")
        return routes(snap, ids, targets)
    raise QueryError(
        f"unknown query kind {kind!r}; expected one of {QUERY_KINDS}")
