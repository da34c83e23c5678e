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
  when the ids span less than ``4 n``, else the ids in sorted order;
- the dominator index behind ``who_covers`` / ``dominator_of``: each
  row's covering members as a ``(start, count)`` segment of an id pool,
  and each row's smallest covering member (:meth:`dominator_csr`,
  :meth:`min_dominator`).

Capture shares the CSR pair, the node table and the dense id table with
the live artifacts instead of copying them: they are the bundle's
arrays, and an :class:`~repro.engine.artifacts.ArtifactDelta` edit
replaces them with new arrays rather than writing into them, so a later
epoch's churn can never reach into a published snapshot.  It adopts the
maintenance loop's final verify (mask, counts, deficit) when that still
describes the state, and recomputes them otherwise.

The carried dominator index
---------------------------
Capture derives the dominator index in the writer, before publication,
so no reader ever waits on a build.  Given the previous snapshot of the
same state it *carries* the index: every row whose covering members
cannot have changed keeps its predecessor's pool segment and minimum
(found by id), and only these rows are rebuilt and appended to a copy
of the predecessor's pool:

- rows in the closed neighborhood of a member that was promoted,
  demoted or joined, or whose index moved (swap-with-last removal moves
  a member, which reorders its neighbors' rows);
- rows in the predecessor's closed neighborhood of a crashed member;
- every new node's own row.

It builds the index in full instead for the first snapshot of a state,
after a move or an artifact rebuild (a rewire changes rows that ids
alone cannot show; the state's counters say when one happened), after a
join the new ids do not account for (a node that left and rejoined
since the predecessor), and when the pool's dead entries would
outnumber its live ones.  Snapshots made with the constructor build
their index in full on first use.
"""

from __future__ import annotations

import time
import weakref
from typing import Dict, Optional, Tuple, TYPE_CHECKING

import numpy as np

from repro.core.verify import coverage_vectors, row_positions
from repro.engine.artifacts import id_index_table

if TYPE_CHECKING:  # pragma: no cover
    import networkx as nx

    from repro.dynamics.loop import VerifiedCoverage
    from repro.dynamics.state import NetworkState

__all__ = ["EpochSnapshot"]


def _readonly(arr: np.ndarray) -> np.ndarray:
    """A read-only view (the base array stays writable for its owner)."""
    view = arr.view()
    view.flags.writeable = False
    return view


def _segment_min(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The minimum of each consecutive ``counts``-long run of
    ``values``, or ``-1`` for an empty run."""
    out = np.full(len(counts), -1, dtype=np.int64)
    if values.size:
        # Empty runs contribute no entries, so consecutive non-empty
        # starts delimit exactly the right slices.
        nonempty = counts > 0
        starts = np.cumsum(counts) - counts
        out[nonempty] = np.minimum.reduceat(values, starts[nonempty])
    return out


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
        "_dom_csr", "_min_dom", "_index_path", "_lineage", "_previous",
        "__weakref__",
    )

    def __init__(self, *, epoch: int, k: int, nodes: np.ndarray,
                 indptr: np.ndarray, indices: np.ndarray,
                 member_mask: np.ndarray, coverage: np.ndarray,
                 deficit: np.ndarray,
                 captured_at: Optional[float] = None,
                 id_lookup: Optional[Tuple[int, np.ndarray]] = None):
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
        # in sorted order for a binary search.  ``id_lookup`` is the
        # caller's id_index_table(nodes), when it has one.
        lookup = (id_lookup if id_lookup is not None
                  else id_index_table(self.nodes))
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
        self._index_path: Optional[Dict[str, object]] = None
        # (state, moves, artifact rebuilds, joins) at capture: what a
        # successor checks before carrying this snapshot's index.
        self._lineage = None
        # The predecessor to carry from, held only until the first
        # dominator_csr() call (inside capture).
        self._previous: Optional["EpochSnapshot"] = None

    # ------------------------------------------------------------------
    @classmethod
    def capture(cls, state: "NetworkState", k: int, epoch: int, *,
                previous: Optional["EpochSnapshot"] = None,
                verified: Optional["VerifiedCoverage"] = None
                ) -> "EpochSnapshot":
        """Freeze the live state's coverage view (writer side).

        Reads the live :class:`~repro.engine.artifacts.GraphArtifacts`
        arrays, its id table included.  The mask, dominator counts and
        deficit are ``verified``'s (the maintenance loop's final verify,
        :meth:`~repro.dynamics.loop.MaintenanceLoop.take_verified`) when
        they still describe the state, else one mask and one CSR matvec
        with the same kernels the verify uses — so a published snapshot
        always agrees with ``fully_covered_after``.

        Then it derives the dominator index (:meth:`dominator_csr`,
        :meth:`min_dominator`): carried from ``previous`` where the
        module notes allow it, built in full otherwise.
        """
        art = state.artifacts()
        indptr, indices = art.closed_csr_arrays()
        nodes = art.nodes_array()
        if verified is not None and verified.describes(art, state, k):
            mask, counts, deficit = (verified.mask, verified.counts,
                                     verified.deficit)
        else:
            mask, counts, deficit = coverage_vectors(art, state.members, k)
        snap = cls(epoch=epoch, k=k, nodes=nodes, indptr=indptr,
                   indices=indices, member_mask=mask, coverage=counts,
                   deficit=deficit, id_lookup=art.id_lookup())
        snap._lineage = (weakref.ref(state), state.total_moves,
                         state.artifact_rebuilds, state.total_joins)
        snap._previous = previous
        snap.dominator_csr()
        snap.min_dominator()
        return snap

    # ------------------------------------------------------------------
    @property
    def members(self) -> int:
        """Number of dominators in this epoch."""
        return int(self.member_mask.sum())

    @property
    def fully_covered(self) -> bool:
        """Whether every live node met its requirement this epoch."""
        return not self.deficit.any()

    @property
    def index_path(self) -> Optional[Dict[str, object]]:
        """How the dominator index was derived: ``{"path": "carried",
        "rebuilt_rows": r}``, or ``{"path": "built", "reason": ...}``
        with reason ``first``, ``topology`` or ``compaction``; ``None``
        until it exists (a constructed snapshot before first use)."""
        return None if self._index_path is None else dict(self._index_path)

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
        """Per-node covering dominators over global ids.

        ``(starts, counts, dom_ids)``: node index ``i``'s covering
        members are ``dom_ids[starts[i]:starts[i] + counts[i]]`` — its
        open-neighborhood members (a dominator never covers itself), in
        snapshot index order.  A full build lays the rows out back to
        back (``starts`` is then an exclusive prefix sum of ``counts``);
        a carried index appends its rebuilt rows to a copy of the
        predecessor's pool, so other rows' segments sit where the
        predecessor had them and some pool entries belong to no row.

        Derived once per snapshot, in :meth:`capture` for a captured one
        (carried from the predecessor where possible, see the module
        notes), on first use for a constructed one.  The query plane
        serves every ``who_covers`` / ``dominator_of`` batch from it with
        plain gathers.
        """
        if self._dom_csr is None:
            previous, self._previous = self._previous, None
            reason = self._carry_blocker(previous)
            if reason is None:
                reason = self._carry(previous)
            if reason is not None:
                self._build(reason)
        return self._dom_csr

    def min_dominator(self) -> np.ndarray:
        """Per node index: its smallest covering dominator id, or ``-1``
        (cached — the ``dominator_of`` answer vector; a carried index
        derives it with the rows)."""
        if self._min_dom is None:
            _, counts, dom_ids = self.dominator_csr()
            if self._min_dom is None:
                # A full build's rows are back to back, in row order.
                self._min_dom = _readonly(_segment_min(dom_ids, counts))
        return self._min_dom

    def _build(self, reason: str) -> None:
        """The full build: one O(n + m) filter of the closed CSR.

        The filter touches every CSR entry once, to find the member
        entries; the rest works on those alone, with gathers and
        ``compress`` (a boolean-mask index costs several times more)
        and each temporary dropped once read.
        """
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
        counts = per_row - np.bincount(rows.compress(~keep), minlength=n)
        del rows
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        cols = cols.compress(keep)
        dom_ids = self.nodes.take(cols)
        self._dom_csr = (_readonly(indptr[:-1]), _readonly(counts),
                         _readonly(dom_ids))
        self._index_path = {"path": "built", "reason": reason}

    def _carry_blocker(self, previous: Optional["EpochSnapshot"]
                       ) -> Optional[str]:
        """Why the index cannot be carried from ``previous`` (a full
        build's reason), or ``None`` when the carry may try."""
        if previous is None or previous._lineage is None or not previous.n:
            return "first"
        ref, moves, rebuilds, _ = previous._lineage
        own, moves_now, rebuilds_now, _ = self._lineage
        if ref() is not own():
            return "first"
        if moves != moves_now or rebuilds != rebuilds_now:
            return "topology"
        return None

    def _carry(self, previous: "EpochSnapshot") -> Optional[str]:
        """Carry ``previous``'s index over (see the module notes);
        returns a full build's reason instead when it cannot."""
        n = self.n
        mask = self.member_mask
        old = previous.index_of(self.nodes)  # row -> predecessor row
        fresh = old < 0
        joins = self._lineage[3] - previous._lineage[3]
        if int(np.count_nonzero(fresh)) != joins:
            # A join left no new row: a node left and came back (or came
            # and left), and its edges changed unseen.
            return "topology"
        # ``take(-1)`` reads the predecessor's last row for a new node;
        # its row is rebuilt, so the value never survives.
        was = previous.member_mask.take(old) & ~fresh
        moved = old != np.arange(n, dtype=np.int64)
        seeds = np.flatnonzero((mask != was) | (mask & moved))
        dirty = fresh.copy()
        pos, _ = row_positions(self.indptr, seeds)
        dirty[self.indices.take(pos)] = True
        # Crashed members: the predecessor's members without a row here.
        # Their predecessor neighborhoods map to rows here by id.
        members = np.flatnonzero(previous.member_mask)
        crashed = members.compress(
            self.index_of(previous.nodes.take(members)) < 0)
        if crashed.size:
            pos, _ = row_positions(previous.indptr, crashed)
            hit = self.index_of(previous.nodes.take(
                previous.indices.take(pos)))
            dirty[hit[hit >= 0]] = True
        rows = np.flatnonzero(dirty)

        # The rebuilt rows, back to back: their member entries off the
        # diagonal, as ids.
        pos, lens = row_positions(self.indptr, rows)
        cols = self.indices.take(pos)
        keep = mask.take(cols) & (cols != np.repeat(rows, lens))
        kept_before = np.zeros(len(keep) + 1, dtype=np.int64)
        np.cumsum(keep, out=kept_before[1:])
        ends = np.cumsum(lens)
        row_counts = kept_before.take(ends) - kept_before.take(ends - lens)
        added = self.nodes.take(cols.compress(keep))

        prev_starts, prev_counts, pool = previous._dom_csr
        starts = prev_starts.take(old)
        counts = prev_counts.take(old)
        live = int(counts.sum() - counts.take(rows).sum()) + len(added)
        if len(pool) + len(added) - live > live:
            return "compaction"
        mins = previous._min_dom.take(old)
        starts[rows] = len(pool) + np.cumsum(row_counts) - row_counts
        counts[rows] = row_counts
        mins[rows] = _segment_min(added, row_counts)
        self._dom_csr = (_readonly(starts), _readonly(counts),
                         _readonly(np.concatenate((pool, added))))
        self._min_dom = _readonly(mins)
        self._index_path = {"path": "carried", "rebuilt_rows": len(rows)}
        return None

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
            "dominator_index": self.index_path,
            "age_s": self.age(),
        }

    def __repr__(self) -> str:  # pragma: no cover — debugging aid
        return (f"<EpochSnapshot epoch={self.epoch} n={self.n} "
                f"members={self.members} k={self.k}>")
