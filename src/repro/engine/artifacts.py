"""Per-graph cached derived structures, with incremental delta patching.

Every solver call used to rebuild the same derived data from scratch:
:class:`~repro.core.lp.CoveringLP` re-sorted every closed neighborhood,
``mode="direct"`` kernels re-assembled the closed-adjacency CSR matrix,
and every :class:`~repro.simulation.network.SynchronousNetwork` re-sorted
every neighbor list.  Inside a sweep (E1, E4, E6, ...) the same graph is
solved dozens of times, so this recomputation dominated setup cost.

:func:`graph_artifacts` returns a :class:`GraphArtifacts` bundle holding
all of it, cached per graph object:

- node list, node -> index map, ``n``, ``m``, max degree ``Delta``;
- degree vector (index-aligned numpy array);
- per-node sorted neighbor tuples (the simulator's stable order);
- closed neighborhoods as sorted index arrays (the paper's ``N_i``);
- the closed-adjacency CSR matrix ``A`` with ``A[i, j] = 1`` iff
  ``j in N_i`` and its COO pair list (built lazily — only direct-mode
  kernels and the vectorized verify oracle need them).

Incremental updates
-------------------
The maintenance loop (:mod:`repro.dynamics`) mutates its topology every
epoch; rebuilding artifacts from scratch is O(n + m) of Python-loop work
per event and dominates the epoch at n >= 10^4.
:meth:`GraphArtifacts.delta_patcher` returns an :class:`ArtifactDelta`
whose ``add_node`` / ``remove_node`` /
``rewire`` patch the node index, degree vector, neighbor orders, and
closed neighborhoods in time proportional to the touched 1-hop ball.
The closed-adjacency CSR is invalidated by a patch and regenerated
lazily by a pure-numpy kernel (one memcpy-speed pass, at most once per
verify call, instead of per event).

Patched artifacts maintain their *own* node order: ``remove_node`` moves
the last-indexed node into the freed slot, so the ``nodes`` list may be
a permutation of ``list(graph.nodes)``.  All internal fields stay
mutually consistent; consumers must go through ``index`` / ``nodes``
rather than assume insertion order.

Staleness detection
-------------------
The cache keeps each entry on its ``networkx.Graph`` key (see
:class:`_GraphCache`), so artifacts die with their graph.  Staleness
is detected by a **monotonic version token**: every graph carries a
mutation token (lazily assigned), bumped by :func:`touch` whenever code
mutates a graph in place.  A cached entry built at an older token is
rebuilt.  A ``(number_of_nodes, number_of_edges)`` fingerprint remains
as a safety net for legacy mutators that change either count without
calling :func:`touch`; an exact count-preserving rewiring **must** go
through :func:`touch` (or :func:`invalidate`) — the dynamics and
mobility layers do.
"""

from __future__ import annotations

import itertools
import weakref
from typing import Dict, Iterable, List, Optional, Tuple

import networkx as nx
import numpy as np
import scipy.sparse as sp

from repro.errors import GraphError
from repro.graphs.properties import as_nx
from repro.types import NodeId, stable_sorted

#: Monotonic token source shared by build versions and mutation marks.
_VERSIONS = itertools.count(1)


class GraphArtifacts:
    """Derived structures for one graph, computed once and shared.

    Do not construct directly — go through :func:`graph_artifacts` so
    repeated solver calls on the same graph hit the cache.  For evolving
    topologies, obtain an :class:`ArtifactDelta` via :meth:`delta` and
    patch instead of rebuilding.
    """

    def __init__(self, graph: nx.Graph):
        self.graph = graph
        self.nodes: List[NodeId] = list(graph.nodes)
        self.index: Dict[NodeId, int] = {v: i for i, v in enumerate(self.nodes)}
        self.n = len(self.nodes)
        self.m = graph.number_of_edges()
        #: Per-node sorted neighbor tuples (the simulator's stable order).
        self.sorted_neighbors: Dict[NodeId, Tuple[NodeId, ...]] = {
            v: tuple(stable_sorted(graph.neighbors(v))) for v in self.nodes
        }
        #: Index-aligned degree vector.
        self.degrees: np.ndarray = np.asarray(
            [len(self.sorted_neighbors[v]) for v in self.nodes], dtype=np.int64
        )
        #: The paper's Delta (0 on the empty graph).
        self.delta_max: int = int(self.degrees.max()) if self.n else 0
        #: Closed neighborhoods as sorted index arrays (the paper's N_i).
        self.closed_nbrs: List[np.ndarray] = [
            np.asarray(
                sorted([self.index[v]]
                       + [self.index[w] for w in self.sorted_neighbors[v]]),
                dtype=np.int64,
            )
            for v in self.nodes
        ]
        #: Monotonic build/patch version (bumped by every delta patch).
        self.version: int = next(_VERSIONS)
        self._closed_adjacency: Optional[sp.csr_matrix] = None
        self._closed_pairs: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._open_csr: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._closed_arrays: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._closed_idx32: Optional[np.ndarray] = None
        self._nodes_array: Optional[np.ndarray] = None
        #: Scratch for :mod:`repro.engine.kernels` over this graph alone
        #: (the ``kernel_cache`` of its one-graph :class:`StackedGraphs`);
        #: dropped by every :class:`ArtifactDelta` patch.
        self.kernel_cache: Dict = {}
        _STATS["full_rebuilds"] += 1

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
    def closed_adjacency(self) -> sp.csr_matrix:
        """Sparse 0/1 matrix ``A`` with ``A[i, j] = 1`` iff ``j in N_i``.

        Assembled directly in CSR form (indptr from the degree vector,
        indices by concatenating the already-sorted closed neighborhoods)
        — a vectorized memcpy-speed pass, no COO sort.
        """
        if self._closed_adjacency is None:
            if self.n:
                lengths = self.degrees + 1
                indptr = np.zeros(self.n + 1, dtype=np.int64)
                np.cumsum(lengths, out=indptr[1:])
                indices = np.concatenate(self.closed_nbrs)
                data = np.ones(len(indices), dtype=float)
            else:
                indptr = np.zeros(1, dtype=np.int64)
                indices = np.zeros(0, dtype=np.int64)
                data = np.zeros(0, dtype=float)
            self._closed_adjacency = sp.csr_matrix(
                (data, indices, indptr), shape=(self.n, self.n)
            )
        return self._closed_adjacency

    def closed_csr_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """Closed-neighborhood CSR as raw int64 ``(indptr, indices)``.

        The same row structure as :meth:`closed_adjacency` but without
        the scipy matrix wrapper (whose index dtypes scipy may narrow):
        flat contiguous int64 arrays suitable for exporting into shared
        memory and for vectorized row gathers.  Built lazily, dropped by
        every :class:`ArtifactDelta` patch.
        """
        if self._closed_arrays is None:
            indptr = np.zeros(self.n + 1, dtype=np.int64)
            if self.n:
                np.cumsum(self.degrees + 1, out=indptr[1:])
                indices = np.ascontiguousarray(
                    np.concatenate(self.closed_nbrs), dtype=np.int64)
            else:
                indices = np.zeros(0, dtype=np.int64)
            self._closed_arrays = (indptr, indices)
        return self._closed_arrays

    def closed_csr_indices32(self) -> Optional[np.ndarray]:
        """The :meth:`closed_csr_arrays` indices as a contiguous int32
        copy, or ``None`` when the graph exceeds int32 indexing.

        The compiled coverage matvec (:mod:`repro._native`) gathers
        int32 column indices — half the index bandwidth of int64 on the
        memory-bound inner loop.  Every node index fits int32 whenever
        ``n < 2^31``, so the narrowing is lossless; cached here (and
        dropped by every :class:`ArtifactDelta` patch) so the copy is
        paid once per topology, not per matvec.
        """
        if self._closed_idx32 is None:
            _, indices = self.closed_csr_arrays()
            if self.n >= 2 ** 31 or indices.size >= 2 ** 31:
                return None
            self._closed_idx32 = np.ascontiguousarray(indices,
                                                      dtype=np.int32)
        return self._closed_idx32

    def nodes_array(self) -> np.ndarray:
        """Index-aligned int64 array of node ids (``nodes_array()[i]`` is
        the id of the node at artifact index ``i``).

        Only integer-labelled graphs can be exported this way; the
        service/shared-memory layer depends on it, so a graph with
        non-integer node ids raises :class:`~repro.errors.GraphError`.
        Built lazily, dropped by every :class:`ArtifactDelta` patch.
        """
        if self._nodes_array is None:
            try:
                raw = np.asarray(self.nodes)
            except (TypeError, ValueError):  # pragma: no cover — exotic ids
                raw = np.empty(0, dtype=object)
            if self.n and (raw.ndim != 1 or raw.dtype.kind not in "iu"):
                sample = self.nodes[0]
                raise GraphError(
                    "nodes_array() requires integer node ids; got labels "
                    f"like {sample!r}")
            self._nodes_array = raw.astype(np.int64) if self.n else \
                np.zeros(0, dtype=np.int64)
        return self._nodes_array

    def open_csr(self) -> Tuple[np.ndarray, np.ndarray]:
        """Open-neighborhood CSR ``(indptr, indices)`` over node indices.

        Row ``i`` lists ``index[w]`` for every neighbor ``w`` of
        ``nodes[i]``, in the same stable (id-sorted) order as
        ``sorted_neighbors`` — the broadcast fan-out order the columnar
        transport and vectorized per-neighbor kernels share.  Built
        lazily, dropped by every :class:`ArtifactDelta` patch.
        """
        if self._open_csr is None:
            index = self.index
            indptr = np.zeros(self.n + 1, dtype=np.int64)
            if self.n:
                np.cumsum(self.degrees, out=indptr[1:])
                indices = np.fromiter(
                    (index[w] for v in self.nodes
                     for w in self.sorted_neighbors[v]),
                    dtype=np.int64, count=int(indptr[-1]),
                )
            else:
                indices = np.zeros(0, dtype=np.int64)
            self._open_csr = (indptr, indices)
        return self._open_csr

    def closed_pairs(self) -> Tuple[np.ndarray, np.ndarray]:
        """The directed closed-neighborhood pairs ``(covered_i, contributor_j)``
        of the adjacency matrix, in CSR order (used by the dual bookkeeping)."""
        if self._closed_pairs is None:
            coo = self.closed_adjacency().tocoo()
            self._closed_pairs = (coo.row.copy(), coo.col.copy())
        return self._closed_pairs

    def fingerprint(self) -> Tuple[int, int]:
        """The (n, m) pair used as the cache's legacy safety net."""
        return (self.n, self.m)

    def delta_patcher(self) -> "ArtifactDelta":
        """An :class:`ArtifactDelta` bound to this bundle (detaches it
        from the global cache — patched artifacts are caller-owned)."""
        return ArtifactDelta(self)


class ArtifactDelta:
    """Incremental patcher for one :class:`GraphArtifacts` bundle.

    Each operation touches only the 1-hop ball of the affected node:
    the node list/index, degree vector, sorted neighbor tuples, and
    closed-neighborhood index arrays are edited in place, the version
    token is bumped, and the lazy CSR/pairs caches are dropped (they
    regenerate vectorized on next access).  The patcher does **not**
    mutate the underlying graph — callers that own an evolving topology
    (e.g. :class:`repro.dynamics.NetworkState`) apply the same change to
    both sides and the property suite pins the equivalence.

    ``remove_node`` keeps the index dense by moving the last-indexed
    node into the freed slot (order is *not* insertion order afterwards).
    """

    def __init__(self, artifacts: GraphArtifacts):
        self.art = artifacts
        #: Number of patch operations applied through this patcher.
        self.patches = 0
        # A patched bundle no longer mirrors the graph object it was
        # built from; evict it so cache users rebuild honestly.
        if artifacts.graph is not None:
            _CACHE.pop(as_nx(artifacts.graph), None)

    # ------------------------------------------------------------------
    def _bump(self) -> None:
        art = self.art
        art.version = next(_VERSIONS)
        art._closed_adjacency = None
        art._closed_pairs = None
        art._open_csr = None
        art._closed_arrays = None
        art._closed_idx32 = None
        art._nodes_array = None
        art.kernel_cache = {}
        self.patches += 1
        _STATS["delta_patches"] += 1

    def _refresh_delta(self) -> None:
        art = self.art
        art.delta_max = int(art.degrees.max()) if art.n else 0

    # ------------------------------------------------------------------
    def add_node(self, node: NodeId, neighbors: Iterable[NodeId]) -> None:
        """Append ``node`` with edges to ``neighbors`` (all existing)."""
        art = self.art
        if node in art.index:
            raise GraphError(f"cannot add node {node!r}: already present")
        nbrs = tuple(stable_sorted(neighbors))
        unknown = [w for w in nbrs if w not in art.index]
        if unknown:
            raise GraphError(
                f"cannot add node {node!r}: unknown neighbor {unknown[0]!r}")
        i = art.n
        art.nodes.append(node)
        art.index[node] = i
        art.sorted_neighbors[node] = nbrs
        art.degrees = np.append(art.degrees, np.int64(len(nbrs)))
        art.closed_nbrs.append(np.asarray(
            sorted([i] + [art.index[w] for w in nbrs]), dtype=np.int64))
        for w in nbrs:
            j = art.index[w]
            art.sorted_neighbors[w] = tuple(
                stable_sorted(art.sorted_neighbors[w] + (node,)))
            art.degrees[j] += 1
            art.closed_nbrs[j] = np.append(art.closed_nbrs[j], np.int64(i))
        art.n += 1
        art.m += len(nbrs)
        self._refresh_delta()
        self._bump()

    def remove_node(self, node: NodeId) -> None:
        """Drop ``node`` and its edges; the last-indexed node takes its
        slot (swap-with-last keeps the index dense in O(ball) time)."""
        art = self.art
        if node not in art.index:
            raise GraphError(f"cannot remove node {node!r}: not present")
        i = art.index.pop(node)
        nbrs = art.sorted_neighbors.pop(node)
        # Detach the node from its neighbors' views.
        for w in nbrs:
            j = art.index[w]
            art.sorted_neighbors[w] = tuple(
                x for x in art.sorted_neighbors[w] if x != node)
            art.degrees[j] -= 1
            arr = art.closed_nbrs[j]
            art.closed_nbrs[j] = arr[arr != i]
        last_i = art.n - 1
        if i != last_i:
            # Move the last-indexed node into the freed slot and rewrite
            # the index everywhere it appears (its closed ball).
            last = art.nodes[last_i]
            art.nodes[i] = last
            art.index[last] = i
            art.degrees[i] = art.degrees[last_i]
            art.closed_nbrs[i] = art.closed_nbrs[last_i]
            for w in art.sorted_neighbors[last] + (last,):
                j = art.index[w]
                arr = art.closed_nbrs[j]
                arr[arr == last_i] = i
                art.closed_nbrs[j] = np.sort(arr)
        art.nodes.pop()
        art.closed_nbrs.pop()
        art.degrees = art.degrees[:last_i].copy()
        art.n -= 1
        art.m -= len(nbrs)
        self._refresh_delta()
        self._bump()

    def rewire(self, node: NodeId, neighbors: Iterable[NodeId]) -> None:
        """Replace ``node``'s adjacency with ``neighbors`` in place
        (a move event: same node set, different edges)."""
        art = self.art
        if node not in art.index:
            raise GraphError(f"cannot rewire node {node!r}: not present")
        i = art.index[node]
        new = tuple(stable_sorted(neighbors))
        unknown = [w for w in new if w not in art.index]
        if unknown:
            raise GraphError(
                f"cannot rewire node {node!r}: unknown neighbor "
                f"{unknown[0]!r}")
        old = art.sorted_neighbors[node]
        old_set, new_set = set(old), set(new)
        if node in new_set:
            raise GraphError(f"cannot rewire node {node!r} onto itself")
        for w in old_set - new_set:
            j = art.index[w]
            art.sorted_neighbors[w] = tuple(
                x for x in art.sorted_neighbors[w] if x != node)
            art.degrees[j] -= 1
            arr = art.closed_nbrs[j]
            art.closed_nbrs[j] = arr[arr != i]
        for w in new_set - old_set:
            j = art.index[w]
            art.sorted_neighbors[w] = tuple(
                stable_sorted(art.sorted_neighbors[w] + (node,)))
            art.degrees[j] += 1
            art.closed_nbrs[j] = np.sort(
                np.append(art.closed_nbrs[j], np.int64(i)))
        art.sorted_neighbors[node] = new
        art.degrees[i] = len(new)
        art.closed_nbrs[i] = np.asarray(
            sorted([i] + [art.index[w] for w in new]), dtype=np.int64)
        art.m += len(new_set) - len(old_set)
        self._refresh_delta()
        self._bump()


class StackedGraphs:
    """G graph topologies concatenated into one node index space.

    Graph ``g``'s node ``i`` occupies stacked index ``offsets[g] + i``;
    the stacked closed-adjacency/distance CSRs are block-diagonal, so
    any row-local kernel (election rounds, coverage counts) run over the
    stacked plane produces, per graph block, bit-identical results to
    running the same kernel on the graph alone — that is what lets an
    entire experiment grid become one kernel dispatch
    (:func:`repro.engine.backends.execute_grid`).

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

    def __len__(self) -> int:
        return len(self.graphs)

    def graph_slice(self, g: int) -> Tuple[int, int]:
        """``(offset, n)`` of graph ``g`` in the stacked index space."""
        return int(self.offsets[g]), int(self.counts[g])

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


#: first graph -> StackedGraphs (anchored on the first graph's nx object).
_STACK_CACHE = _GraphCache("_repro_stacked_graphs")


def stacked_graphs(graphs) -> StackedGraphs:
    """Return a (cached) :class:`StackedGraphs` over ``graphs``.

    The cache is anchored on the first graph's underlying ``nx`` object
    and revalidated by identity of every member *and* of its current
    :func:`graph_artifacts` bundle — a mutated (touched) graph gets a
    fresh artifacts object, which transparently invalidates any stack
    containing it.

    One-graph stacks (single and replica runs) are not cached: they
    alias their graph's artifacts, caches included, so building one is
    cheap, and the grid stack a graph anchors is never evicted.
    """
    graphs = list(graphs)
    if len(graphs) < 2:
        return StackedGraphs(graphs)
    try:
        anchor = as_nx(graphs[0])
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
    do; the next :func:`graph_artifacts` call then rebuilds.
    """
    g = as_nx(graph)
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
    :class:`repro.graphs.udg.UnitDiskGraph`); the cache is keyed by the
    underlying plain graph.  Entries are revalidated against the graph's
    monotonic mutation token (see :func:`touch`), with the ``(n, m)``
    fingerprint kept as a safety net for untracked mutators.
    """
    g = as_nx(graph)
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
