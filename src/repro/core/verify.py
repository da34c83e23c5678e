"""Verification oracle for k-fold dominating sets.

Two conventions appear in the paper and both are supported here:

- ``convention="open"`` — the Section 1 definition: every node
  **outside** S needs at least ``k`` neighbors in S (members of S are
  exempt; a node's own membership does not count toward its neighbors).
- ``convention="closed"`` — the LP ``(PP)`` of Section 4.1: **every** node
  needs at least ``k_i`` members of its closed neighborhood
  :math:`N_i \\ni i` in S (a node in S counts itself once).

A set valid under the closed convention with uniform ``k`` is always valid
under the open convention with the same ``k``; the converse is false.

Every oracle accepts either a graph (``networkx`` or any ``.nx``
wrapper) or a :class:`~repro.engine.artifacts.GraphArtifacts` bundle.
Given artifacts, counting routes through the shared coverage plane in
:mod:`repro.engine.kernels` — one sparse matvec over the cached
closed-adjacency CSR (indicator vector in, per-node member counts out)
instead of a Python loop over every adjacency.  That is the same kernel
the direct backends of Algorithms 2/3 and the maintenance loop use, so
there is exactly one coverage-counting implementation in the codebase.
:func:`coverage_vectors`, :func:`coverage_deficit_vector` and
:func:`membership_mask` expose the raw index-aligned arrays for callers
that want to stay in numpy.

:func:`advance_coverage` carries an earlier :func:`coverage_vectors`
result across one churn batch and a set of membership flips, working
only on the rows they change; :func:`coverage_vectors` is its oracle,
and the maintenance loop falls back to it whenever nothing exact can be
carried.
"""

from __future__ import annotations

from collections.abc import Set
from typing import (AbstractSet, Dict, Iterable, List, Optional, Tuple,
                    Union)

import numpy as np

from repro.engine import kernels
from repro.engine.artifacts import GraphArtifacts, SlotMap
from repro.errors import GraphError
from repro.graphs.properties import as_nx
from repro.types import CoverageMap, NodeId

CONVENTIONS = ("open", "closed")


def _coverage_map(graph, k: Union[int, CoverageMap]) -> Dict[NodeId, int]:
    nodes = as_nx(graph).nodes
    if isinstance(k, int):
        if k < 0:
            raise GraphError(f"k must be non-negative, got {k}")
        return {v: k for v in nodes}
    cov = {v: int(k[v]) for v in nodes}
    if any(val < 0 for val in cov.values()):
        raise GraphError("coverage requirements must be non-negative")
    return cov


def _required(art: GraphArtifacts,
              k: Union[int, CoverageMap]) -> Union[int, np.ndarray]:
    """The requirement in index space: ``k`` itself when uniform, else
    the coverage map as an index-aligned vector."""
    if isinstance(k, int):
        if k < 0:
            raise GraphError(f"k must be non-negative, got {k}")
        return k
    required = np.fromiter((int(k[v]) for v in art.nodes), dtype=np.int64,
                           count=art.n)
    if (required < 0).any():
        raise GraphError("coverage requirements must be non-negative")
    return required


def _check_members(member_set, nodes) -> None:
    """Raise unless every member is in ``nodes`` (O(|members|))."""
    unknown = [v for v in member_set if v not in nodes]
    if unknown:
        raise GraphError(
            f"dominating set contains {len(unknown)} unknown node(s), "
            f"e.g. {unknown[0]!r}"
        )


def _as_set(members: Iterable[NodeId]) -> AbstractSet[NodeId]:
    """``members`` itself when it is already a set (a
    :class:`~repro.types.MemberSet` stays one array for the mask),
    else a ``set`` copy of the iterable."""
    return members if isinstance(members, Set) else set(members)


def membership_mask(art: GraphArtifacts,
                    members: Iterable[NodeId]) -> np.ndarray:
    """The index-aligned boolean mask of ``members`` over ``art.nodes``.

    :func:`repro.engine.kernels.member_mask` with the oracles' error: an
    unknown member raises :class:`GraphError` naming it."""
    member_set = _as_set(members)
    try:
        return kernels.member_mask(art, member_set)
    except KeyError:
        _check_members(member_set, art.index)
        raise


def coverage_counts(graph, members: Iterable[NodeId], *,
                    convention: str = "open") -> Dict[NodeId, int]:
    """Per-node count of dominators, under the chosen convention.

    ``open``: for every node, the number of its (open-neighborhood)
    neighbors in ``members``.  ``closed``: the number of closed-neighborhood
    members (so a dominator counts itself once).

    Pass a :class:`GraphArtifacts` bundle instead of a graph to count
    with the vectorized CSR kernel.
    """
    if convention not in CONVENTIONS:
        raise GraphError(
            f"unknown convention {convention!r}; expected one of {CONVENTIONS}"
        )
    member_set = _as_set(members)
    if isinstance(graph, GraphArtifacts):
        counts_vec = kernels.member_counts(
            graph, indicator=membership_mask(graph, member_set),
            convention=convention)
        return dict(zip(graph.nodes, counts_vec.tolist()))
    g = as_nx(graph)
    _check_members(member_set, g.nodes)
    counts: Dict[NodeId, int] = {}
    for v in g.nodes:
        c = sum(1 for w in g.neighbors(v) if w in member_set)
        if convention == "closed" and v in member_set:
            c += 1
        counts[v] = c
    return counts


def coverage_vectors(art: GraphArtifacts, members: Iterable[NodeId],
                     k: Union[int, CoverageMap], *,
                     convention: str = "open"
                     ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index-aligned ``(mask, counts, deficit)``: the membership mask,
    the per-node dominator counts and ``max(0, required - actual)``.

    The all-numpy core of :func:`coverage_deficit` for callers that keep
    working in artifact index space (the maintenance loop, whose final
    verify hands all three to the service's snapshot).
    """
    if convention not in CONVENTIONS:
        raise GraphError(
            f"unknown convention {convention!r}; expected one of {CONVENTIONS}"
        )
    mask = membership_mask(art, members)
    counts = kernels.member_counts(art, indicator=mask,
                                   convention=convention)
    # The mask also exempts members under the open convention; the
    # deficit kernel's compiled provider reads it directly.
    deficit = kernels.deficit_vector(
        art, counts, _required(art, k),
        member_idx=mask if convention == "open" else None)
    return mask, counts, deficit


def row_positions(indptr: np.ndarray, rows: np.ndarray
                  ) -> Tuple[np.ndarray, np.ndarray]:
    """The flat CSR positions of ``rows``' entries, row after row, and
    each row's length."""
    lo = indptr.take(rows)
    lens = indptr.take(rows + 1) - lo
    ends = np.cumsum(lens)
    total = int(ends[-1]) if len(ends) else 0
    pos = np.repeat(lo - (ends - lens), lens) \
        + np.arange(total, dtype=np.int64)
    return pos, lens


def _scatter_open(counts: np.ndarray, art: GraphArtifacts, idx: np.ndarray,
                  sign: int) -> None:
    """Add ``sign`` to the open-convention count of every neighbor of
    each node in ``idx``: over its closed row, minus its own entry."""
    if idx.size:
        kernels.scatter_cover(counts, art, idx, sign)
        counts[idx] -= sign


def advance_coverage(art: GraphArtifacts, mask: np.ndarray,
                     counts: np.ndarray, k: Union[int, CoverageMap],
                     members: AbstractSet[NodeId], *,
                     slots: Optional[SlotMap] = None,
                     changed: Iterable[NodeId] = ()
                     ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`coverage_vectors` of ``members`` over ``art`` (open
    convention), carried from an earlier verify's ``mask`` and
    ``counts`` instead of recomputed.

    The earlier vectors describe the bundle and the member set before
    two changes, which apply in this order:

    - ``slots``: one :class:`~repro.engine.artifacts.SlotMap` batch of
      removals, additions and rewires, in which members left the set
      only by removal.  Kept slots gather their old entries.  The old
      rows of removed or rewired members lose one, the new rows of
      added or rewired members gain one, and only the new rows are
      recounted (their membership is read from ``members``);
    - ``changed``: the nodes whose membership may have flipped since;
      every other node kept its own (ids absent from ``art`` are
      skipped).  A flip adds or takes one over the node's closed row,
      minus its own entry (:func:`~repro.engine.kernels.scatter_cover`).

    Beyond a few O(n) gathers, the work is O(touched rows).  The input
    arrays are never written, so vectors handed out earlier stay valid.
    Bundles with self-loops are outside the contract.
    """
    owned = slots is not None  # the churn step writes new arrays
    if slots is not None:
        final, src = slots.final, slots.src
        lost = np.flatnonzero((final < 0) & mask)
        fresh = np.flatnonzero(src < 0)
        if len(mask):
            # A new row's -1 reads the last old entry; it is reset below.
            mask, counts = mask.take(src), counts.take(src)
        else:
            mask = np.zeros(art.n, dtype=bool)
            counts = np.zeros(art.n, dtype=np.int64)
        nodes = art.nodes
        mask[fresh] = [nodes[i] in members for i in fresh.tolist()]
        if lost.size:
            pos, _ = row_positions(slots.indptr, lost)
            hit = final.take(slots.indices.take(pos))
            np.subtract.at(counts, hit.compress(hit >= 0), 1)
        _scatter_open(counts, art, fresh.compress(mask.take(fresh)), 1)
        if fresh.size:
            # Every closed row holds its diagonal entry, so no row is
            # empty and the segment starts are strictly increasing.
            pos, lens = row_positions(art.indptr, fresh)
            cols = art.indices.take(pos)
            hits = mask.take(cols) & (cols != np.repeat(fresh, lens))
            counts[fresh] = np.add.reduceat(hits, np.cumsum(lens) - lens,
                                            dtype=np.int64)
    index = art.index
    idx = np.unique(np.fromiter((index[v] for v in changed if v in index),
                                dtype=np.int64))
    if idx.size:
        nodes = art.nodes
        now = np.fromiter((nodes[i] in members for i in idx.tolist()),
                          dtype=bool, count=idx.size)
        flip = now != mask.take(idx)
        if flip.any():
            if not owned:
                mask, counts = mask.copy(), counts.copy()
            mask[idx[flip]] = now[flip]
            _scatter_open(counts, art, idx[flip & now], 1)
            _scatter_open(counts, art, idx[flip & ~now], -1)
    deficit = kernels.deficit_vector(art, counts, _required(art, k),
                                     member_idx=mask)
    return mask, counts, deficit


def coverage_deficit_vector(art: GraphArtifacts, members: Iterable[NodeId],
                            k: Union[int, CoverageMap], *,
                            convention: str = "open"
                            ) -> Tuple[np.ndarray, List[NodeId]]:
    """Index-aligned deficit array ``max(0, required - actual)``:
    ``(deficit, nodes)`` with ``deficit[i]`` belonging to ``nodes[i]``
    (the deficit of :func:`coverage_vectors`)."""
    return coverage_vectors(art, members, k, convention=convention)[2], \
        art.nodes


def coverage_deficit(graph, members: Iterable[NodeId],
                     k: Union[int, CoverageMap], *,
                     convention: str = "open") -> Dict[NodeId, int]:
    """Per-node shortfall ``max(0, required - actual)``.

    Under ``open``, members of the set are exempt (their deficit is 0
    regardless of their neighborhood).  Pass a :class:`GraphArtifacts`
    bundle to compute on the vectorized CSR path.
    """
    member_set = _as_set(members)
    if isinstance(graph, GraphArtifacts):
        deficit_vec, nodes = coverage_deficit_vector(
            graph, member_set, k, convention=convention)
        return dict(zip(nodes, deficit_vec.tolist()))
    counts = coverage_counts(graph, member_set, convention=convention)
    cov = _coverage_map(graph, k)
    deficit: Dict[NodeId, int] = {}
    for v, c in counts.items():
        if convention == "open" and v in member_set:
            deficit[v] = 0
        else:
            deficit[v] = max(0, cov[v] - c)
    return deficit


def uncovered_nodes(graph, members: Iterable[NodeId],
                    k: Union[int, CoverageMap], *,
                    convention: str = "open") -> List[NodeId]:
    """Nodes whose coverage requirement is not met.

    On a :class:`GraphArtifacts` bundle the scan stays in numpy: the
    kernel deficit vector's nonzero entries, no per-node dict pass.
    """
    if isinstance(graph, GraphArtifacts):
        deficit_vec, nodes = coverage_deficit_vector(
            graph, members, k, convention=convention)
        return [nodes[i] for i in np.nonzero(deficit_vec)[0]]
    deficit = coverage_deficit(graph, members, k, convention=convention)
    return [v for v, d in deficit.items() if d > 0]


def is_k_dominating_set(graph, members: Iterable[NodeId],
                        k: Union[int, CoverageMap], *,
                        convention: str = "open") -> bool:
    """Whether ``members`` is a valid k-fold dominating set of ``graph``.

    Parameters
    ----------
    graph:
        The network graph.
    members:
        Candidate dominator set (any iterable of node ids).
    k:
        Uniform requirement (int) or per-node map.
    convention:
        ``"open"`` (Section 1 definition, default) or ``"closed"``
        (the LP's closed-neighborhood convention).
    """
    return not uncovered_nodes(graph, members, k, convention=convention)


def redundancy_profile(graph, members: Iterable[NodeId], *,
                       convention: str = "open") -> Dict[str, float]:
    """Summary of how redundantly the set covers the graph: min / mean /
    max coverage over non-member nodes (all nodes under ``closed``).  Used
    by the fault-tolerance experiments to compare k values."""
    member_set = _as_set(members)
    if isinstance(graph, GraphArtifacts):
        # All-numpy path: kernel counts, boolean mask, vector reduction.
        mask = membership_mask(graph, member_set)
        counts_vec = kernels.member_counts(graph, indicator=mask,
                                           convention=convention)
        if convention == "open":
            counts_vec = counts_vec[~mask]
        if counts_vec.size == 0:
            return {"min": 0.0, "mean": 0.0, "max": 0.0}
        return {
            "min": float(counts_vec.min()),
            "mean": float(counts_vec.mean()),
            "max": float(counts_vec.max()),
        }
    counts = coverage_counts(graph, member_set, convention=convention)
    if convention == "open":
        relevant = [c for v, c in counts.items() if v not in member_set]
    else:
        relevant = list(counts.values())
    if not relevant:
        return {"min": 0.0, "mean": 0.0, "max": 0.0}
    return {
        "min": float(min(relevant)),
        "mean": float(sum(relevant)) / len(relevant),
        "max": float(max(relevant)),
    }
