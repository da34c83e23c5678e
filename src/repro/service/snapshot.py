"""Immutable per-epoch coverage snapshots.

The service's isolation unit: an :class:`EpochSnapshot` is captured by
the single writer (the resident maintenance loop) **after** an epoch
verifies, and published by swapping one reference.  Readers never see a
half-updated epoch — they hold whatever snapshot was current when their
batch started, and the arrays inside a snapshot are read-only numpy
views, so a reader can never block (or corrupt) the writer.

What a snapshot holds (all index-aligned over ``n`` live nodes):

- the closed-adjacency CSR ``(indptr, indices)`` and the node-id table
  ``nodes`` (artifact index -> global id);
- the membership mask, per-node dominator counts (open convention,
  from :func:`repro.engine.kernels.member_counts` — the library's one
  coverage-counting plane) and the deficit vector against ``k``;
- the epoch number and a capture timestamp (the snapshot-age metric);
- the inverse of ``nodes`` for :meth:`EpochSnapshot.index_of`: a dense
  id -> index table (:func:`~repro.engine.artifacts.id_index_table`)
  when the ids span less than ``4 n``, else the ids in sorted order.

Capture shares the CSR pair and node table with the live artifacts
instead of copying them: they are the bundle's primary arrays, and an
:class:`~repro.engine.artifacts.ArtifactDelta` edit replaces them with
new arrays rather than writing into them, so a later epoch's churn can
never reach into a published snapshot.  What capture computes is
O(|members|) for the membership mask, one coverage matvec and the id
lookup (O(n) as a table, a sort otherwise).
"""

from __future__ import annotations

import time
from typing import Dict, Optional, TYPE_CHECKING

import numpy as np

from repro.engine.artifacts import id_index_table
from repro.engine.kernels import deficit_vector, member_counts, member_mask

if TYPE_CHECKING:  # pragma: no cover
    import networkx as nx

    from repro.dynamics.state import NetworkState

__all__ = ["EpochSnapshot"]


def _readonly(arr: np.ndarray) -> np.ndarray:
    """A read-only view (the base array stays writable for its owner)."""
    view = arr.view()
    view.flags.writeable = False
    return view


class EpochSnapshot:
    """One verified epoch's coverage state, frozen for readers.

    Construct via :meth:`capture`; all array attributes are read-only
    views.  Id-space queries go through :meth:`index_of`; the routing
    plane materializes :meth:`graph` lazily (cached — building a
    networkx graph is the one non-vectorizable consumer).
    """

    __slots__ = (
        "epoch", "k", "n", "nodes", "indptr", "indices",
        "member_mask", "coverage", "deficit", "captured_at",
        "_id_lo", "_id_table", "_order", "_sorted_ids", "_graph",
        "_member_ids",
        "_dom_csr", "_min_dom",
    )

    def __init__(self, *, epoch: int, k: int, nodes: np.ndarray,
                 indptr: np.ndarray, indices: np.ndarray,
                 member_mask: np.ndarray, coverage: np.ndarray,
                 deficit: np.ndarray,
                 captured_at: Optional[float] = None):
        self.epoch = int(epoch)
        self.k = int(k)
        self.n = int(len(nodes))
        self.nodes = _readonly(np.asarray(nodes, dtype=np.int64))
        self.indptr = _readonly(np.asarray(indptr, dtype=np.int64))
        self.indices = _readonly(np.asarray(indices, dtype=np.int64))
        self.member_mask = _readonly(np.asarray(member_mask, dtype=bool))
        self.coverage = _readonly(np.asarray(coverage, dtype=np.int64))
        self.deficit = _readonly(np.asarray(deficit, dtype=np.int64))
        #: ``time.monotonic()`` at capture (for the snapshot-age metric).
        self.captured_at = (time.monotonic() if captured_at is None
                            else float(captured_at))
        # Id lookup: a dense table over a compact id range, else the ids
        # in sorted order for a binary search.
        lookup = id_index_table(self.nodes)
        if lookup is None:
            order = np.argsort(self.nodes, kind="stable")
            self._id_lo, self._id_table = 0, None
            self._order = _readonly(order)
            self._sorted_ids = _readonly(self.nodes[order])
        else:
            self._id_lo, self._id_table = lookup[0], _readonly(lookup[1])
            self._order = self._sorted_ids = None
        self._graph: Optional["nx.Graph"] = None
        self._member_ids: Optional[frozenset] = None
        self._dom_csr = None
        self._min_dom: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    @classmethod
    def capture(cls, state: "NetworkState", k: int,
                epoch: int) -> "EpochSnapshot":
        """Freeze the live state's coverage view (writer side).

        Reads the live :class:`~repro.engine.artifacts.GraphArtifacts`
        arrays and runs one CSR matvec for the dominator counts — the
        same kernels the loop's verify step uses, so a published
        snapshot always agrees with ``fully_covered_after``.
        """
        art = state.artifacts()
        indptr, indices = art.closed_csr_arrays()
        nodes = art.nodes_array()
        mask = member_mask(art, state.members)
        counts = member_counts(art, indicator=mask, convention="open")
        deficit = deficit_vector(art, counts, k, member_idx=mask)
        return cls(epoch=epoch, k=k, nodes=nodes, indptr=indptr,
                   indices=indices, member_mask=mask, coverage=counts,
                   deficit=deficit)

    # ------------------------------------------------------------------
    @property
    def members(self) -> int:
        """Number of dominators in this epoch."""
        return int(self.member_mask.sum())

    @property
    def fully_covered(self) -> bool:
        """Whether every live node met its requirement this epoch."""
        return not self.deficit.any()

    def age(self) -> float:
        """Seconds since capture."""
        return time.monotonic() - self.captured_at

    # ------------------------------------------------------------------
    def index_of(self, ids: np.ndarray) -> np.ndarray:
        """Vectorized id -> artifact index; ``-1`` for unknown ids.

        Dead or never-deployed ids are *expected* query traffic (clients
        race churn), so they map to the sentinel instead of raising.
        A compact id range answers with one gather from the id table;
        a wide one binary-searches the sorted ids.
        """
        ids = np.asarray(ids, dtype=np.int64)
        table = self._id_table
        if table is not None:
            # Offsets outside the range, wrapped ones included, exceed
            # the span as unsigned and clamp to the table's trailing -1.
            off = np.minimum((ids - self._id_lo).view(np.uint64),
                             len(table) - 1)
            return table.take(off.view(np.int64))
        pos = np.searchsorted(self._sorted_ids, ids)
        pos_c = np.minimum(pos, max(0, self.n - 1))
        if self.n:
            known = self._sorted_ids[pos_c] == ids
            out = np.where(known, self._order[pos_c], np.int64(-1))
        else:
            out = np.full(ids.shape, -1, dtype=np.int64)
        return out.astype(np.int64, copy=False)

    # ------------------------------------------------------------------
    def graph(self) -> "nx.Graph":
        """The snapshot topology as a networkx graph over global ids
        (built lazily, cached — the routing queries' substrate)."""
        if self._graph is None:
            import networkx as nx

            g = nx.Graph()
            g.add_nodes_from(self.nodes.tolist())
            if self.n:
                counts = np.diff(self.indptr)
                rows = np.repeat(np.arange(self.n, dtype=np.int64), counts)
                cols = self.indices
                keep = rows < cols  # skip self-entries + dedupe (i, j)/(j, i)
                g.add_edges_from(zip(self.nodes[rows[keep]].tolist(),
                                     self.nodes[cols[keep]].tolist()))
            self._graph = g
        return self._graph

    def dominator_csr(self):
        """Per-node covering dominators, CSR-shaped over global ids.

        ``(indptr, dom_ids)``: node index ``i``'s covering members are
        ``dom_ids[indptr[i]:indptr[i + 1]]`` — its open-neighborhood
        members (a dominator never covers itself).  One O(n + m) filter
        of the closed CSR, built lazily and cached for the snapshot's
        lifetime: the query plane serves every ``who_covers`` /
        ``dominator_of`` batch from this with plain gathers, which is
        what keeps batched point queries >= 10^6/s while churn runs.

        The filter touches every CSR entry once, to find the member
        entries; the rest works on those alone, with gathers and
        ``compress`` (a boolean-mask index costs several times more)
        and each temporary dropped once read.
        """
        if self._dom_csr is None:
            n = self.n
            pos = np.flatnonzero(self.member_mask.take(self.indices))
            # Member entries per row: the positions split at the rows'
            # boundaries.
            per_row = np.diff(np.searchsorted(pos, self.indptr))
            cols = self.indices.take(pos)
            del pos
            rows = np.repeat(np.arange(n, dtype=np.int64), per_row)
            # Drop the diagonal entries (two in a self-loop's row).
            keep = cols != rows
            counts = per_row - np.bincount(rows.compress(~keep),
                                           minlength=n)
            del rows
            indptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(counts, out=indptr[1:])
            cols = cols.compress(keep)
            dom_ids = self.nodes.take(cols)
            self._dom_csr = (_readonly(indptr), _readonly(dom_ids))
        return self._dom_csr

    def min_dominator(self) -> np.ndarray:
        """Per node index: its smallest covering dominator id, or ``-1``
        (lazy, cached — the ``dominator_of`` answer vector)."""
        if self._min_dom is None:
            indptr, dom_ids = self.dominator_csr()
            out = np.full(self.n, -1, dtype=np.int64)
            nonempty = np.diff(indptr) > 0
            if nonempty.any():
                # Empty segments contribute no entries, so consecutive
                # non-empty starts delimit exactly the right slices.
                out[nonempty] = np.minimum.reduceat(
                    dom_ids, indptr[:-1][nonempty])
            self._min_dom = _readonly(out)
        return self._min_dom

    def member_ids(self) -> frozenset:
        """The dominator set as global ids (cached)."""
        if self._member_ids is None:
            self._member_ids = frozenset(
                self.nodes[self.member_mask].tolist())
        return self._member_ids

    # ------------------------------------------------------------------
    def describe(self) -> Dict[str, object]:
        """A small JSON-ready summary (the server's status payload)."""
        return {
            "epoch": self.epoch,
            "k": self.k,
            "n": self.n,
            "members": self.members,
            "fully_covered": self.fully_covered,
            "id_index": "sorted" if self._id_table is None else "table",
            "age_s": self.age(),
        }

    def __repr__(self) -> str:  # pragma: no cover — debugging aid
        return (f"<EpochSnapshot epoch={self.epoch} n={self.n} "
                f"members={self.members} k={self.k}>")
