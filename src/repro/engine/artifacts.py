"""Per-graph cached derived structures, with batched incremental edits.

Every solver call used to rebuild the same derived data from scratch:
:class:`~repro.core.lp.CoveringLP` re-sorted every closed neighborhood,
``mode="direct"`` kernels re-assembled the closed-adjacency CSR matrix,
and every :class:`~repro.simulation.network.SynchronousNetwork` re-sorted
every neighbor list.  Inside a sweep (E1, E4, E6, ...) the same graph is
solved dozens of times, so this recomputation dominated setup cost.

:func:`graph_artifacts` returns a :class:`GraphArtifacts` bundle holding
all of it, cached per graph object.  Its primary form is array-native:

- node list, node -> index map, ``n``, ``m``, max degree ``Delta``;
- the closed-neighborhood CSR ``(indptr, indices)`` (row ``i`` is the
  paper's ``N_i`` as index-sorted node indices) and the index-aligned
  degree vector, built in numpy from one pass over the adjacency, or
  straight from the edge arrays of an array-primary graph.

Everything else derives from the CSR on first use: the scipy matrix
``A`` with ``A[i, j] = 1`` iff ``j in N_i`` and its COO pairs, the open
CSR, and the per-node views the per-node paths read — sorted neighbor
tuples (the simulator's stable order) and closed neighborhoods as
index arrays.

Incremental updates
-------------------
The maintenance loop (:mod:`repro.dynamics`) mutates its topology every
epoch; rebuilding artifacts from scratch is O(n + m) work per epoch.
:meth:`GraphArtifacts.delta_patcher` returns an :class:`ArtifactDelta`
whose :meth:`~ArtifactDelta.apply` takes one epoch's ordered node
removals, additions and rewires as one batch.  The index moves are
replayed on plain integers (O(edits)); then the CSR is committed once,
by the ``csr_patch`` dispatch entry in one native pass over the new
slots: each slot's old row is copied through the batch's slot map
(dropping removed and rewired columns), the slot's new entries are
appended, and only a row that came out of order is sorted.  Without
the compiled kernels, ``_Replay._resort`` (its numpy reference)
relabels every entry and restores row order with one stable sort.  An
edit allocates new arrays and never writes into ones it handed out, so
published snapshots and shared-memory exports may alias them.  Each
edit counts as one patch.  ``apply`` returns the batch's
:class:`SlotMap`, which index-aligned vectors over the old bundle
follow to the new one (:func:`repro.core.verify.advance_coverage`).

Edited artifacts maintain their *own* node order: removing a node moves
the last-indexed node into the freed slot, so the ``nodes`` list may be
a permutation of ``list(graph.nodes)``.  All internal fields stay
mutually consistent; consumers must go through ``index`` / ``nodes``
rather than assume insertion order.

Staleness detection
-------------------
The cache keeps each entry on its graph object (see
:class:`_GraphCache`), so artifacts die with their graph.  An
array-primary wrapper (:class:`~repro.graphs.udg.UnitDiskGraph`) is its
own key until its networkx graph is built: the bundle is built from the
wrapper's edge arrays, which nothing mutates, and never needs the
networkx graph.  Building ``udg.nx`` moves the entry onto the new
networkx graph (:func:`rekey`), so the same bundle answers both
``graph_artifacts(udg)`` and ``graph_artifacts(udg.nx)``; from then on
the networkx graph is the key and the rules below apply to it.

Staleness is detected by a **monotonic version token**: every key
carries a mutation token (lazily assigned), bumped by :func:`touch`
whenever code mutates a graph in place.  A cached entry built at an
older token is rebuilt.  A ``(number_of_nodes, number_of_edges)``
fingerprint remains as a safety net for legacy mutators that change
either count without calling :func:`touch`; an exact count-preserving
rewiring **must** go through :func:`touch` (or :func:`invalidate`) — the
dynamics and mobility layers do.
"""

from __future__ import annotations

import copy
import itertools
import weakref
from typing import (Dict, Iterable, List, NamedTuple, Optional, Sequence,
                    Tuple)

import networkx as nx
import numpy as np
import scipy.sparse as sp

from repro.engine import dispatch
from repro.errors import GraphError
from repro.graphs.properties import as_nx
from repro.types import NodeId, stable_sorted

#: Monotonic token source shared by build versions and mutation marks.
_VERSIONS = itertools.count(1)


def _int_ids(nodes: Sequence[NodeId]) -> Optional[np.ndarray]:
    """``nodes`` as an int64 array, or ``None`` unless every id is an
    integer."""
    if not nodes:
        return np.zeros(0, dtype=np.int64)
    try:
        raw = np.asarray(nodes)
    except (TypeError, ValueError):  # pragma: no cover — exotic ids
        return None
    if raw.ndim != 1 or raw.dtype.kind not in "iu":
        return None
    return raw.astype(np.int64, copy=False)


def id_index_table(ids: np.ndarray) -> Optional[Tuple[int, np.ndarray]]:
    """A dense id -> index lookup over unique int64 ``ids``, or ``None``
    when their range is wide (``max - min >= 4 * len(ids)``).

    Returns ``(lo, table)``: ``table[v - lo]`` is the position of id
    ``v`` in ``ids``, ``-1`` where no id is, and one trailing ``-1``
    past the range, which lookups can clamp out-of-range offsets to.
    """
    n = len(ids)
    lo = int(ids.min()) if n else 0
    span = int(ids.max()) - lo + 1 if n else 0
    if span > 4 * n:
        return None
    table = np.full(span + 1, -1, dtype=np.int64)
    table[ids - lo] = np.arange(n, dtype=np.int64)
    return lo, table


def _lazy_edges(graph) -> Optional[Tuple[np.ndarray, ...]]:
    """The edge arrays of an array-primary wrapper whose networkx graph
    is not built yet (:attr:`repro.graphs.udg.UnitDiskGraph.edge_arrays`),
    else ``None``."""
    return getattr(graph, "edge_arrays", None)


def _cache_key(graph):
    """The object a graph's cache entries live on: an array-primary
    wrapper until its networkx graph exists, then that networkx graph."""
    return graph if _lazy_edges(graph) is not None else as_nx(graph)


#: Edge keys pack ``row << _SHIFT | col``.  With node indices below
#: 2^30 a key is non-negative and its sum with ``_GONE`` negative.
_SHIFT = 32
_MASK = (1 << _SHIFT) - 1
_GONE = -(1 << 62)


class GraphArtifacts:
    """Derived structures for one graph, computed once and shared.

    Built from a networkx graph's adjacency, or from the edge arrays of
    an array-primary wrapper whose networkx graph is not built (the two
    give the same fields).  Do not construct directly — go through
    :func:`graph_artifacts` so repeated solver calls on the same graph
    hit the cache.  For evolving
    topologies, obtain an :class:`ArtifactDelta` via
    :meth:`delta_patcher` and edit instead of rebuilding.
    """

    def __init__(self, graph):
        #: What the bundle was built from: a networkx graph, or an
        #: array-primary wrapper (see :attr:`graph`); ``None`` for a
        #: caller-owned :meth:`copy`.
        self._source = graph
        edges = _lazy_edges(graph)
        if edges is not None:
            # An array-primary graph (node ids 0..n-1) without a
            # networkx graph: the CSR comes straight from its edge list.
            n = self.n = len(graph)
            self.nodes: List[NodeId] = list(range(n))
            self.index: Dict[NodeId, int] = dict(zip(self.nodes, self.nodes))
            ids = np.arange(n, dtype=np.int64)
            src = np.concatenate((edges[0], edges[1]))
            cols = np.concatenate((edges[1], edges[0]))
            lengths = np.bincount(src, minlength=n)
            total = len(src)
        else:
            graph = as_nx(graph)
            self.nodes = list(graph.nodes)
            self.index = {v: i for i, v in enumerate(self.nodes)}
            n = self.n = len(self.nodes)
            # One pass over the adjacency: row lengths, then every row's
            # neighbor ids flattened in row order.
            adj = graph._adj
            rows = [adj[v] for v in self.nodes]
            lengths = np.fromiter(map(len, rows), dtype=np.int64, count=n)
            total = int(lengths.sum())
            flat = itertools.chain.from_iterable(rows)
            ids = _int_ids(self.nodes)
            lookup = id_index_table(ids) if ids is not None else None
            if lookup is not None:
                # Vectorized id -> index relabel through a dense lookup
                # table.
                lo, lut = lookup
                cols = lut[np.fromiter(flat, dtype=np.int64, count=total)
                           - lo]
            else:
                cols = np.fromiter(map(self.index.__getitem__, flat),
                                   dtype=np.int64, count=total)
            src = np.repeat(np.arange(n, dtype=np.int64), lengths)
        diag = np.arange(n, dtype=np.int64)
        keys = np.concatenate(((src << _SHIFT) + cols, (diag << _SHIFT) + diag))
        keys.sort()
        #: Closed-neighborhood CSR over node indices (the paper's N_i):
        #: row ``i`` is ``indices[indptr[i]:indptr[i + 1]]``, sorted.
        self.indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(lengths + 1, out=self.indptr[1:])
        self.indices: np.ndarray = keys & _MASK
        #: Index-aligned degree vector.
        self.degrees: np.ndarray = lengths
        # A self-loop is one edge but one adjacency entry.
        self._loops = int(np.count_nonzero(src == cols))
        self.m = (total + self._loops) // 2
        #: The paper's Delta (0 on the empty graph).
        self.delta_max: int = int(lengths.max()) if n else 0
        #: Monotonic build/edit version (bumped by every delta edit).
        self.version: int = next(_VERSIONS)
        self._nodes_array: Optional[np.ndarray] = ids
        self._clear_derived()
        _STATS["full_rebuilds"] += 1

    @property
    def graph(self) -> Optional[nx.Graph]:
        """The networkx graph the bundle describes, resolved on read: an
        array-primary wrapper's graph is built only when this is read
        (``None`` for a caller-owned :meth:`copy`)."""
        return None if self._source is None else as_nx(self._source)

    def copy(self) -> "GraphArtifacts":
        """A caller-owned bundle over the same topology, detached from
        any graph and from the cache.

        The copy is a new object with its own node list and index that
        shares this bundle's arrays: an :class:`ArtifactDelta` edit
        replaces arrays and never writes into them, so editing the copy
        leaves this bundle as it is.  Costs O(n), not a rebuild."""
        clone = copy.copy(self)
        clone._source = None
        clone.nodes = list(self.nodes)
        clone.index = dict(self.index)
        clone.version = next(_VERSIONS)
        clone._clear_derived()
        return clone

    def _clear_derived(self) -> None:
        """Drop every structure derived from the CSR."""
        self._closed_adjacency: Optional[sp.csr_matrix] = None
        self._open_csr: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._closed_idx32: Optional[np.ndarray] = None
        self._sorted_neighbors: Optional[Dict[NodeId, Tuple[NodeId, ...]]] \
            = None
        self._closed_nbrs: Optional[List[np.ndarray]] = None
        self._stable_order: Optional[Tuple[List[NodeId], np.ndarray, bool]] \
            = None
        # ``False`` until built (``None`` is the wide-range answer).
        self._id_lookup = False
        #: Scratch for :mod:`repro.engine.kernels` over this graph alone
        #: (the ``kernel_cache`` of its one-graph :class:`StackedGraphs`);
        #: dropped by every :class:`ArtifactDelta` edit.
        self.kernel_cache: Dict = {}

    # ``delta`` predates the incremental API and names the paper's max
    # degree; keep it readable while ``delta()`` hands out patchers.
    @property
    def delta(self) -> int:
        """The paper's Delta (max degree; 0 on the empty graph)."""
        return self.delta_max

    @delta.setter
    def delta(self, value: int) -> None:
        self.delta_max = int(value)

    # ------------------------------------------------------------------
    # Per-node views (lazy; for the per-node paths on static graphs)
    # ------------------------------------------------------------------
    @property
    def sorted_neighbors(self) -> Dict[NodeId, Tuple[NodeId, ...]]:
        """Per-node neighbor tuples in the simulator's stable (id-sorted)
        order, derived from the CSR on first use."""
        if self._sorted_neighbors is None:
            indptr, indices = self.open_csr()
            nodes = self.nodes
            flat = list(map(nodes.__getitem__, indices.tolist()))
            bounds = indptr.tolist()
            self._sorted_neighbors = {
                v: tuple(stable_sorted(flat[bounds[i]:bounds[i + 1]]))
                for i, v in enumerate(nodes)}
        return self._sorted_neighbors

    @property
    def closed_nbrs(self) -> List[np.ndarray]:
        """Closed neighborhoods as sorted index arrays (the paper's
        ``N_i``): views of the CSR rows, split on first use."""
        if self._closed_nbrs is None:
            self._closed_nbrs = (np.split(self.indices, self.indptr[1:-1])
                                 if self.n else [])
        return self._closed_nbrs

    def stable_order(self) -> Tuple[List[NodeId], np.ndarray, bool]:
        """The nodes in stable order (:func:`~repro.types.stable_sorted`),
        the artifact index of each, and whether the labels sorted
        naturally (no ``repr`` fallback).  Built on first use and
        dropped by every edit; the node list is a new list per build,
        never edited, so tables that index it stay valid.

        Integer labels sort as one stable argsort; any other labels take
        ``stable_sorted`` itself."""
        if self._stable_order is None:
            try:
                ids = self.nodes_array()
            except GraphError:
                ids = None
            natural = True
            if ids is not None:
                order = np.argsort(ids, kind="stable")
                if np.array_equal(order, np.arange(order.size)):
                    nodes = list(self.nodes)
                else:
                    nodes = list(map(self.nodes.__getitem__, order.tolist()))
            else:
                # ``stable_sorted``, noting whether it falls back to repr.
                try:
                    nodes = sorted(self.nodes)
                except TypeError:
                    nodes = sorted(self.nodes, key=repr)
                    natural = False
                order = np.fromiter(map(self.index.__getitem__, nodes),
                                    dtype=np.int64, count=len(nodes))
            self._stable_order = (nodes, order, natural)
        return self._stable_order

    # ------------------------------------------------------------------
    def closed_adjacency(self) -> sp.csr_matrix:
        """Sparse 0/1 matrix ``A`` with ``A[i, j] = 1`` iff ``j in N_i``
        (the CSR arrays wrapped with unit data; built lazily)."""
        if self._closed_adjacency is None:
            data = np.ones(len(self.indices), dtype=float)
            self._closed_adjacency = sp.csr_matrix(
                (data, self.indices, self.indptr), shape=(self.n, self.n))
        return self._closed_adjacency

    def closed_csr_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """Closed-neighborhood CSR as raw int64 ``(indptr, indices)``.

        The bundle's primary arrays: flat contiguous int64 (unlike
        :meth:`closed_adjacency`, whose index dtypes scipy may narrow),
        suitable for exporting into shared memory and for vectorized
        row gathers.  An :class:`ArtifactDelta` edit replaces them with
        new arrays and never writes into these.
        """
        return self.indptr, self.indices

    def closed_csr_indices32(self) -> Optional[np.ndarray]:
        """The :meth:`closed_csr_arrays` indices as a contiguous int32
        copy, or ``None`` when the graph exceeds int32 indexing.

        The compiled coverage matvec (:mod:`repro._native`) gathers
        int32 column indices — half the index bandwidth of int64 on the
        memory-bound inner loop.  Every node index fits int32 whenever
        ``n < 2^31``, so the narrowing is lossless; cached here (and
        dropped by every :class:`ArtifactDelta` edit) so the copy is
        paid once per topology, not per matvec.
        """
        if self._closed_idx32 is None:
            if self.n >= 2 ** 31 or self.indices.size >= 2 ** 31:
                return None
            self._closed_idx32 = np.ascontiguousarray(self.indices,
                                                      dtype=np.int32)
        return self._closed_idx32

    def nodes_array(self) -> np.ndarray:
        """Index-aligned int64 array of node ids (``nodes_array()[i]`` is
        the id of the node at artifact index ``i``).

        Only integer-labelled graphs can be exported this way; the
        service/shared-memory layer depends on it, so a graph with
        non-integer node ids raises :class:`~repro.errors.GraphError`.
        Built with the bundle and carried through every edit.
        """
        if self._nodes_array is None:
            ids = _int_ids(self.nodes)
            if ids is None:
                raise GraphError(
                    "nodes_array() requires integer node ids; got labels "
                    f"like {self.nodes[0]!r}")
            self._nodes_array = ids
        return self._nodes_array

    def id_lookup(self) -> Optional[Tuple[int, np.ndarray]]:
        """The dense id -> index table (:func:`id_index_table`) over
        :meth:`nodes_array`, or ``None`` for non-integer labels and wide
        id ranges.  Built on first use and dropped by every edit."""
        if self._id_lookup is False:
            try:
                ids = self.nodes_array()
            except GraphError:
                ids = None
            self._id_lookup = None if ids is None else id_index_table(ids)
        return self._id_lookup

    def open_csr(self) -> Tuple[np.ndarray, np.ndarray]:
        """Open-neighborhood CSR ``(indptr, indices)`` over node indices:
        the closed CSR minus its diagonal entry, so row ``i`` holds
        ``index[w]`` for every neighbor ``w`` of ``nodes[i]``, sorted by
        index.  Built lazily, dropped by every :class:`ArtifactDelta`
        edit.
        """
        if self._open_csr is None:
            n = self.n
            src = np.repeat(np.arange(n, dtype=np.int64), self.degrees + 1)
            # Each row's first diagonal entry sits after the entries
            # below it (a self-loop keeps its second copy).
            below = np.bincount(src[self.indices < src], minlength=n)
            keep = np.ones(len(self.indices), dtype=bool)
            keep[self.indptr[:-1] + below] = False
            indptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(self.degrees, out=indptr[1:])
            self._open_csr = (indptr, self.indices[keep])
        return self._open_csr

    @property
    def self_loops(self) -> int:
        """The number of self-loop edges (a loop's row holds its node
        twice)."""
        return self._loops

    def fingerprint(self) -> Tuple[int, int]:
        """The (n, m) pair used as the cache's legacy safety net."""
        return (self.n, self.m)

    def delta_patcher(self) -> "ArtifactDelta":
        """An :class:`ArtifactDelta` bound to this bundle (detaches it
        from the global cache — patched artifacts are caller-owned)."""
        return ArtifactDelta(self)


def _pairs(mapping: Dict[int, int]) -> np.ndarray:
    """An int -> int dict's items as a ``(len, 2)`` int64 array."""
    flat = np.fromiter(itertools.chain.from_iterable(mapping.items()),
                       dtype=np.int64, count=2 * len(mapping))
    return flat.reshape(-1, 2)


#: One :meth:`ArtifactDelta.apply` edit: ``("remove", node)``,
#: ``("add", node, neighbors)`` or ``("rewire", node, neighbors)``.
Edit = Tuple


class SlotMap(NamedTuple):
    """How one :meth:`ArtifactDelta.apply` batch moved the bundle's rows.

    ``final[i]`` is the new slot of the node at old index ``i``, or -1
    once it was removed or rewired (its row was dropped);
    ``src[s]`` is the old index whose row new slot ``s`` keeps, or -1
    for a new row (an added or rewired node).  ``indptr`` / ``indices``
    are the closed CSR before the batch, ``version`` and ``after`` the
    bundle's versions before and after it.  Holding the map holds the
    old CSR: drop it once read.
    """

    version: int
    after: int
    indptr: np.ndarray
    indices: np.ndarray
    final: np.ndarray
    src: np.ndarray


class _Replay:
    """One batch's index moves and edge records, on plain integers.

    Every node alive during the batch has a *uid*: the bundle's old
    index for nodes present before it, ``n0 + j`` for the batch's
    ``j``-th addition (a node removed and re-added is a new uid).  The
    node list and index are edited as each event would edit them; slot
    occupancy and uid positions are kept as sparse overrides of the
    identity, so the replay costs O(edits + new edges), not O(n).
    :meth:`commit` turns them into the slot map (each old uid's final
    slot, and its inverse) and the new entries' keys, and commits the
    CSR through the ``csr_patch`` kernel, or through :meth:`_resort`,
    its numpy reference, when the kernel is unavailable.
    """

    def __init__(self, art: GraphArtifacts):
        self.art = art
        self.n0 = self.n = art.n
        self.occupant: Dict[int, int] = {}  # slot -> uid
        self.slot: Dict[int, int] = {}      # uid -> slot (-1: removed)
        self.reset: Dict[int, int] = {}     # uid -> time of last rewire
        self.edges: List[Tuple[int, int, int]] = []  # (uid, uid, time)
        self.added: List[NodeId] = []
        self.time = 0

    def _uid(self, node: NodeId) -> int:
        s = self.art.index[node]
        return self.occupant.get(s, s)

    def _neighbors(self, verb: str, node: NodeId,
                   neighbors: Iterable[NodeId]) -> List[NodeId]:
        nbrs = list(neighbors)
        index = self.art.index
        seen = set()
        for w in nbrs:
            if w not in index:
                raise GraphError(
                    f"cannot {verb} node {node!r}: unknown neighbor {w!r}")
            if w in seen:
                raise GraphError(
                    f"cannot {verb} node {node!r}: duplicate neighbor {w!r}")
            seen.add(w)
        return nbrs

    def __call__(self, edit: Edit) -> None:
        """Validate and replay one edit (raises before changing
        anything if it is invalid)."""
        op, node = edit[0], edit[1]
        art = self.art
        if op == "remove":
            if node not in art.index:
                raise GraphError(f"cannot remove node {node!r}: not present")
            i = art.index.pop(node)
            uid = self.occupant.get(i, i)
            last = self.n - 1
            if i != last:
                moved = art.nodes[last]
                art.nodes[i] = moved
                art.index[moved] = i
                mover = self.occupant.get(last, last)
                self.occupant[i] = mover
                self.slot[mover] = i
            art.nodes.pop()
            self.slot[uid] = -1
            self.n -= 1
        elif op == "add":
            if node in art.index:
                raise GraphError(f"cannot add node {node!r}: already present")
            nbrs = self._neighbors("add", node, edit[2])
            uid = self.n0 + len(self.added)
            self.added.append(node)
            art.index[node] = self.n
            art.nodes.append(node)
            self.occupant[self.n] = uid
            self.slot[uid] = self.n
            self.n += 1
            self.edges.extend((uid, self._uid(w), self.time) for w in nbrs)
        elif op == "rewire":
            if node not in art.index:
                raise GraphError(f"cannot rewire node {node!r}: not present")
            nbrs = self._neighbors("rewire", node, edit[2])
            if node in nbrs:
                raise GraphError(f"cannot rewire node {node!r} onto itself")
            uid = self._uid(node)
            self.reset[uid] = self.time
            self.edges.extend((uid, self._uid(w), self.time) for w in nbrs)
        else:
            raise GraphError(f"unknown artifact edit {op!r}")
        self.time += 1

    def commit(self) -> SlotMap:
        """Rebuild the bundle's arrays for the replayed edits (new
        arrays; the old ones are never written) and return the batch's
        slot map."""
        art, n0, n1 = self.art, self.n0, self.n
        slot, reset = self.slot, self.reset
        rewired = [u for u in reset if u < n0]
        # The batch's surviving new edges, and a fresh diagonal entry
        # for every added or rewired node still present, as sorted keys.
        new: List[int] = []
        for a, b, t in self.edges:
            sa, sb = slot.get(a, a), slot.get(b, b)
            if (sa >= 0 and sb >= 0 and reset.get(a, -1) <= t
                    and reset.get(b, -1) <= t):
                new += ((sa << _SHIFT) + sb, (sb << _SHIFT) + sa)
        for u in itertools.chain(range(n0, n0 + len(self.added)), rewired):
            s = slot.get(u, u)
            if s >= 0:
                new.append((s << _SHIFT) + s)
        new_keys = np.asarray(sorted(new), dtype=np.int64)
        # The slot map: each old uid's final slot, or -1 once it was
        # removed or rewired (a rewire drops all of the node's old
        # edges).
        final = np.arange(n0, dtype=np.int64)
        olds = _pairs(slot)
        olds = olds[olds[:, 0] < n0]
        final[olds[:, 0]] = olds[:, 1]
        final[rewired] = -1
        # Slot -> the old uid whose row it keeps (-1: a new row).
        src = np.full(n1, -1, dtype=np.int64)
        live = np.flatnonzero(final >= 0)
        src[final[live]] = live
        version, old_indptr, old_indices = (art.version, art.indptr,
                                            art.indices)
        impl = dispatch.kernel("csr_patch")
        indptr, indices = (self._resort(final, new_keys) if impl is None
                           else self._patch(impl, final, src, new_keys))
        degrees = np.diff(indptr) - 1
        if art._loops:
            art._loops = int(np.count_nonzero(
                indices == np.repeat(np.arange(n1), degrees + 1))) - n1
        ids = art._nodes_array
        moves = _pairs(self.occupant)
        moves = moves[moves[:, 0] < n1]
        if ids is not None and len(moves):
            added = _int_ids(self.added)
            if added is None:
                ids = None
            else:
                uid_at = np.arange(n1, dtype=np.int64)
                uid_at[moves[:, 0]] = moves[:, 1]
                ids = np.concatenate((ids, added))[uid_at]
        elif ids is not None:
            ids = ids[:n1]
        art.n = n1
        art.m = (len(indices) - n1 + art._loops) // 2
        art.indptr, art.indices = indptr, indices
        art.degrees = degrees
        art.delta_max = int(degrees.max()) if n1 else 0
        art._nodes_array = ids
        art.version = next(_VERSIONS)
        art._clear_derived()
        return SlotMap(version, art.version, old_indptr, old_indices, final,
                       src)

    def _patch(self, impl, final: np.ndarray, src: np.ndarray,
               new_keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The closed CSR ``(indptr, indices)`` after the batch, from
        the ``csr_patch`` kernel: one walk over the new slots that
        copies each kept row through ``final`` (``src`` is its
        inverse), appends the slot's new keys and sorts only the rows
        that came out of order."""
        art, n1 = self.art, self.n
        indptr = np.empty(n1 + 1, dtype=np.int64)
        indices = np.empty(len(art.indices) + len(new_keys), dtype=np.int64)
        total = impl(art.indptr, art.indices, final, src, new_keys, indptr,
                     indices)
        # Nothing else refers to the fresh buffer: shrink it in place.
        indices.resize(total, refcheck=False)
        return indptr, indices

    def _resort(self, final: np.ndarray, new_keys: np.ndarray
                ) -> Tuple[np.ndarray, np.ndarray]:
        """The closed CSR ``(indptr, indices)`` after the batch: the
        numpy reference of the ``csr_patch`` kernel, and its fallback.

        Every old entry becomes the key over its endpoints' final
        slots, or a negative key once an endpoint is gone (``final``
        is -1); the surviving keys and the new ones go through one
        stable sort.  Only rows holding a relabelled or new entry are
        out of order, so the sort (a run-merging timsort) costs little
        more than a linear pass, but every pass here is over all
        entries.
        """
        art = self.art
        gone = final < 0
        row_key = np.where(gone, _GONE, final << _SHIFT)
        col_key = np.where(gone, _GONE, final)
        keys = np.repeat(row_key, art.degrees + 1) + col_key[art.indices]
        if gone.any():
            keys = keys[keys >= 0]
        keys = np.concatenate((keys, new_keys))
        keys.sort(kind="stable")
        indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(np.bincount(keys >> _SHIFT, minlength=self.n),
                  out=indptr[1:])
        return indptr, keys & _MASK


class ArtifactDelta:
    """Batched incremental editor for one :class:`GraphArtifacts` bundle.

    :meth:`apply` takes an ordered list of edits — node removals,
    additions and rewires — and leaves the bundle exactly as applying
    them one at a time would: same node order, same CSR, same counters.
    The index moves are replayed on plain integers; the CSR is then
    committed once per batch, in one native pass over the new slots or
    by its numpy reference (see the module notes).
    :meth:`add_node`, :meth:`remove_node` and :meth:`rewire` are
    one-edit batches.

    The editor does **not** mutate the underlying graph — callers that
    own an evolving topology (e.g. :class:`repro.dynamics.NetworkState`)
    apply the same change to both sides and the property suite pins the
    equivalence.  Removing a node keeps the index dense by moving the
    last-indexed node into the freed slot (order is *not* insertion
    order afterwards).
    """

    def __init__(self, artifacts: GraphArtifacts):
        self.art = artifacts
        #: Number of edits applied through this patcher.
        self.patches = 0
        # A patched bundle no longer mirrors the graph object it was
        # built from; evict it so cache users rebuild honestly.
        if artifacts._source is not None:
            _CACHE.pop(_cache_key(artifacts._source), None)

    def apply(self, edits: Iterable[Edit]) -> Optional[SlotMap]:
        """Apply ``edits`` in order as one batch; returns its
        :class:`SlotMap` (``None`` for an empty batch).

        Each edit counts as one patch.  An added or rewired node's
        neighbors must be present, and distinct, when its edit runs
        (earlier edits of the batch count).  An invalid edit raises
        :class:`GraphError` after the edits before it are applied; it
        and the rest are not.
        """
        replay = _Replay(self.art)
        slots = None
        try:
            for edit in edits:
                replay(edit)
        finally:
            if replay.time:
                slots = replay.commit()
                self.patches += replay.time
                _STATS["delta_patches"] += replay.time
        return slots

    def add_node(self, node: NodeId, neighbors: Iterable[NodeId]) -> None:
        """Append ``node`` with edges to ``neighbors`` (all present,
        no repeats)."""
        self.apply([("add", node, neighbors)])

    def remove_node(self, node: NodeId) -> None:
        """Drop ``node`` and its edges; the last-indexed node takes its
        slot (swap-with-last keeps the index dense)."""
        self.apply([("remove", node)])

    def rewire(self, node: NodeId, neighbors: Iterable[NodeId]) -> None:
        """Replace ``node``'s adjacency with ``neighbors`` in place
        (a move event: same node set, different edges)."""
        self.apply([("rewire", node, neighbors)])


class StackedGraphs:
    """G graph topologies concatenated into one node index space.

    Graph ``g``'s node ``i`` occupies stacked index ``offsets[g] + i``;
    the stacked closed-adjacency/distance CSRs are block-diagonal, so
    any row-local kernel (election rounds, coverage counts) run over the
    stacked plane produces, per graph block, bit-identical results to
    running the same kernel on the graph alone — that is what lets an
    entire experiment grid become one kernel dispatch
    (:func:`repro.core.udg.solve_kmds_udg_grid`).

    ``kernel_cache`` is per-instance scratch for :mod:`repro.engine.kernels`
    (stacked distance CSR, per-round compressed within-CSRs): the graphs
    and their per-round election structures are static for the lifetime
    of the bundle, so repeated grid dispatches over the same stack reuse
    them.  Obtain instances via :func:`stacked_graphs` so the cache is
    shared.

    A one-graph stack (how single and replica runs execute) copies
    nothing: its CSR accessors return the graph's own artifact arrays,
    and its ``kernel_cache`` is the artifacts' own, so it is cheap to
    build per call and its caches live exactly as long as the graph's
    artifacts.
    """

    def __init__(self, graphs):
        self.graphs = list(graphs)
        self.artifacts: List[GraphArtifacts] = [
            graph_artifacts(g) for g in self.graphs]
        self.counts = np.asarray([a.n for a in self.artifacts],
                                 dtype=np.int64)
        self.offsets = np.zeros(len(self.artifacts) + 1, dtype=np.int64)
        np.cumsum(self.counts, out=self.offsets[1:])
        self.total = int(self.offsets[-1])
        self._closed_arrays: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._closed_adjacency: Optional[sp.csr_matrix] = None
        self.kernel_cache: Dict = (self.artifacts[0].kernel_cache
                                   if len(self.artifacts) == 1 else {})

    def closed_csr_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """Stacked closed-neighborhood CSR ``(indptr, indices)``: the
        per-graph :meth:`GraphArtifacts.closed_csr_arrays` concatenated,
        rows and column indices shifted by each graph's offset."""
        if len(self.artifacts) == 1:
            return self.artifacts[0].closed_csr_arrays()
        if self._closed_arrays is None:
            parts = [a.closed_csr_arrays() for a in self.artifacts]
            indptr = np.zeros(self.total + 1, dtype=np.int64)
            edge_off = 0
            chunks = []
            for (p, idx), a, off in zip(parts, self.artifacts,
                                        self.offsets[:-1]):
                indptr[off + 1:off + a.n + 1] = p[1:] + edge_off
                chunks.append(idx + off)
                edge_off += int(p[-1])
            indices = np.concatenate(chunks) if chunks else \
                np.zeros(0, dtype=np.int64)
            self._closed_arrays = (indptr, indices)
        return self._closed_arrays

    def closed_csr_indices32(self) -> Optional[np.ndarray]:
        """The stacked CSR indices as a contiguous int32 copy (for the
        compiled coverage matvec), or ``None`` past int32 indexing.
        Cached in ``kernel_cache`` — stacks are immutable for their
        lifetime, so no invalidation hook is needed."""
        if len(self.artifacts) == 1:
            return self.artifacts[0].closed_csr_indices32()
        idx32 = self.kernel_cache.get("closed_idx32", False)
        if idx32 is False:
            _, indices = self.closed_csr_arrays()
            if self.total >= 2 ** 31 or indices.size >= 2 ** 31:
                idx32 = None
            else:
                idx32 = np.ascontiguousarray(indices, dtype=np.int32)
            self.kernel_cache["closed_idx32"] = idx32
        return idx32

    def closed_adjacency(self) -> sp.csr_matrix:
        """The stacked (block-diagonal) closed-adjacency CSR matrix."""
        if len(self.artifacts) == 1:
            return self.artifacts[0].closed_adjacency()
        if self._closed_adjacency is None:
            indptr, indices = self.closed_csr_arrays()
            data = np.ones(len(indices), dtype=float)
            self._closed_adjacency = sp.csr_matrix(
                (data, indices, indptr), shape=(self.total, self.total))
        return self._closed_adjacency


class _Entry:
    """A cache value parked on its graph.  Pickles and deep-copies as
    ``None``, so serializing a graph never drags its bundles along."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def __reduce__(self):
        return (type(None), ())


class _GraphCache:
    """graph -> value, with each entry stored on its graph object.

    A value that refers back to its graph (``GraphArtifacts.graph``,
    ``StackedGraphs.graphs``) would keep its key alive forever in a
    :class:`weakref.WeakKeyDictionary`; parked in an attribute of the
    graph instead, it forms an ordinary cycle that the garbage collector
    frees once the graph is unreachable.  A lookup is one attribute
    read.  A weak set of the graphs holding an entry backs :meth:`clear`
    and ``len()``.  Graph types without an instance ``__dict__`` or weak
    references raise ``TypeError`` on insertion (callers skip caching).
    """

    def __init__(self, attr: str):
        self._attr = attr
        self._graphs: "weakref.WeakSet[nx.Graph]" = weakref.WeakSet()

    def get(self, g):
        entry = getattr(g, self._attr, None)
        return None if entry is None else entry.value

    def __setitem__(self, g, value) -> None:
        slots = vars(g)
        self._graphs.add(g)
        slots[self._attr] = _Entry(value)

    def pop(self, g, default=None):
        self._graphs.discard(g)
        entry = getattr(g, "__dict__", {}).pop(self._attr, None)
        return default if entry is None else entry.value

    def clear(self) -> None:
        """Drop every entry (from every graph still alive)."""
        for g in list(self._graphs):
            vars(g).pop(self._attr, None)
        self._graphs.clear()

    def __len__(self) -> int:
        return len(self._graphs)

    def __contains__(self, g) -> bool:
        return self.get(g) is not None


#: first graph -> StackedGraphs (anchored on the first graph's cache key).
_STACK_CACHE = _GraphCache("_repro_stacked_graphs")


def stacked_graphs(graphs) -> StackedGraphs:
    """Return a (cached) :class:`StackedGraphs` over ``graphs``.

    The cache is anchored where the first graph's artifacts are (its
    ``nx`` object, or an array-primary wrapper until that exists; see
    :func:`graph_artifacts`) and revalidated by identity of every member
    *and* of its current :func:`graph_artifacts` bundle — a mutated
    (touched) graph gets a fresh artifacts object, which transparently
    invalidates any stack containing it.

    One-graph stacks (single and replica runs) are not cached: they
    alias their graph's artifacts, caches included, so building one is
    cheap, and the grid stack a graph anchors is never evicted.
    """
    graphs = list(graphs)
    if len(graphs) < 2:
        return StackedGraphs(graphs)
    try:
        anchor = _cache_key(graphs[0])
    except GraphError:
        anchor = None
    if anchor is not None:
        hit = _STACK_CACHE.get(anchor)
        if (hit is not None and len(hit.graphs) == len(graphs)
                and all(x is y for x, y in zip(hit.graphs, graphs))
                and all(graph_artifacts(g) is a
                        for g, a in zip(graphs, hit.artifacts))):
            return hit
    stack = StackedGraphs(graphs)
    if anchor is not None:
        try:
            _STACK_CACHE[anchor] = stack
        except TypeError:  # pragma: no cover — unweakrefable graph type
            pass
    return stack


#: graph -> (token, artifacts); entries die with their graphs.
_CACHE = _GraphCache("_repro_artifacts")

#: graph -> current mutation token (bumped by :func:`touch`).
_MUTATION_TOKENS: "weakref.WeakKeyDictionary[nx.Graph, int]" \
    = weakref.WeakKeyDictionary()

#: Cache-effectiveness counters (read by the engine-overhead benchmark
#: and the dynamics epoch records).
_STATS = {"hits": 0, "misses": 0, "delta_patches": 0, "full_rebuilds": 0}


def _mutation_token(g: nx.Graph) -> int:
    token = _MUTATION_TOKENS.get(g)
    if token is None:
        token = next(_VERSIONS)
        try:
            _MUTATION_TOKENS[g] = token
        except TypeError:  # pragma: no cover — unweakrefable graph type
            pass
    return token


def touch(graph) -> None:
    """Declare an in-place mutation of ``graph`` (bumps its version token).

    Any code that rewires a graph without changing its node/edge counts
    **must** call this (or :func:`invalidate`) — the ``(n, m)`` safety
    net cannot see an exact rewiring.  The mobility and dynamics layers
    do; the next :func:`graph_artifacts` call then rebuilds.  On an
    array-primary wrapper whose networkx graph is not built yet (nothing
    to mutate) it only drops the cached bundle.
    """
    g = _cache_key(graph)
    try:
        _MUTATION_TOKENS[g] = next(_VERSIONS)
    except TypeError:  # pragma: no cover — unweakrefable graph type
        pass
    _CACHE.pop(g, None)


def _fingerprint_matches(art: GraphArtifacts, g: nx.Graph) -> bool:
    """Cheap ``(n, m)`` revalidation for the cache hit path.

    ``Graph.number_of_edges()`` iterates a degree view — an O(n) Python
    loop that used to dominate warm ``graph_artifacts`` lookups (~10ms
    at n=10^4, once per engine invocation).  Summing the adjacency-dict
    sizes directly is ~20x faster and agrees with it on simple graphs;
    on a mismatch (e.g. self-loops, which the halved sum undercounts)
    fall back to the exact count before declaring the entry stale.
    """
    adj = getattr(g, "_adj", None)
    if adj is None:  # exotic graph type: exact check only
        return art.fingerprint() == (g.number_of_nodes(),
                                     g.number_of_edges())
    if art.fingerprint() == (len(adj), sum(map(len, adj.values())) // 2):
        return True
    return art.fingerprint() == (g.number_of_nodes(), g.number_of_edges())


def graph_artifacts(graph) -> GraphArtifacts:
    """Return the (cached) :class:`GraphArtifacts` for ``graph``.

    Accepts a ``networkx.Graph`` or any wrapper exposing ``.nx`` (such as
    :class:`repro.graphs.udg.UnitDiskGraph`).  An array-primary wrapper
    whose networkx graph has not been built keys the cache itself, and
    its bundle builds from the edge arrays; when the networkx graph is
    built, :func:`rekey` moves the bundle onto it, so
    ``graph_artifacts(udg) is graph_artifacts(udg.nx)`` from then on.
    Otherwise the cache is keyed by the underlying plain graph.  Entries
    are revalidated against the key's monotonic mutation token (see
    :func:`touch`), with the ``(n, m)`` fingerprint kept as a safety net
    for untracked mutators.
    """
    g = _cache_key(graph)
    token = _mutation_token(g)
    entry = _CACHE.get(g)
    if entry is not None:
        built_at, art = entry
        if built_at == token and _fingerprint_matches(art, g):
            _STATS["hits"] += 1
            return art
    _STATS["misses"] += 1
    art = GraphArtifacts(g)
    try:
        _CACHE[g] = (token, art)
    except TypeError:  # pragma: no cover — unweakrefable graph type
        pass
    return art


def rekey(wrapper, g: nx.Graph) -> None:
    """Move the cache entries of an array-primary ``wrapper`` onto its
    just-built networkx graph ``g`` (the artifacts bundle and the grid
    stack it anchors), so the same objects serve both keys' lookups and
    :func:`touch` on ``g`` governs them from now on."""
    entry = _CACHE.pop(wrapper)  # current: touch() pops stale ones
    if entry is not None:
        _CACHE[g] = (_mutation_token(g), entry[1])
    stack = _STACK_CACHE.pop(wrapper)
    if stack is not None:
        _STACK_CACHE[g] = stack


def invalidate(graph) -> None:
    """Drop the cached artifacts for ``graph`` (after an in-place mutation
    that preserved the node and edge counts).  Equivalent to :func:`touch`."""
    touch(graph)


def cache_stats() -> Dict[str, int]:
    """Cache and rebuild counters since process start (benchmark
    diagnostics): ``hits`` / ``misses`` on the per-graph cache,
    ``delta_patches`` applied through :class:`ArtifactDelta`, and
    ``full_rebuilds`` (from-scratch :class:`GraphArtifacts` builds)."""
    return dict(_STATS)
