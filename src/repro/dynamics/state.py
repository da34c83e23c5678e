"""Mutable network state for the maintenance loop.

:class:`NetworkState` is the ground truth a long-running clustering
evolves against: node positions, liveness, battery levels, and the
currently maintained dominator set.  It interprets the event records of
:mod:`repro.dynamics.events` and lazily materializes graph views:

- :meth:`graph` — the live topology as a ``networkx`` view (what
  the repair policies consume).  Built from a cached full unit-disk
  graph and an induced-subgraph view, so pure crash churn never pays a
  geometric rebuild.  A state started from a deployment
  (:meth:`NetworkState.from_udg`) adopts the deployment's networkx
  graph, copy-on-write, on the first call only;
- :meth:`artifacts` — incrementally edited
  :class:`~repro.engine.artifacts.GraphArtifacts` over the live
  topology (what the vectorized :mod:`repro.core.verify` oracle and the
  sharded loop consume).  A state started from a deployment adopts a
  copy of the deployment's cached bundle (new object, shared arrays)
  instead of building a second one, and a state without a base graph
  (a fresh one, or one after a bulk move) whose nodes are all alive
  with ids ``0..n-1`` adopts a fresh unit disk graph's edge-array
  bundle, so the artifacts-only fast path never builds a networkx
  graph;
- :meth:`live_udg` — a fresh :class:`~repro.graphs.udg.UnitDiskGraph`
  over only the live nodes (what a full recompute needs), plus the
  local-id -> global-id mapping.

Scaling model
-------------
A uniform-grid spatial hash (cell size = radius) over every positioned
node is kept **alive across events**, so a join or a small move is an
O(1)-expected local query instead of an O(n) geometric rebuild: the
event patches the grid and (deferred) the cached base graph, and
records one artifact edit — a removal, an addition with the neighbors
the hash finds among the nodes live at that moment, or a rewire.
:meth:`NetworkState.apply_all` hands its events' edits to the live
:class:`~repro.engine.artifacts.ArtifactDelta` as one batch at its end,
so the live CSR is rebuilt once per epoch, not once per event, and
returns the batch's :class:`~repro.engine.artifacts.SlotMap` (what the
maintenance loop carries its coverage vectors through).  Only a
bulk move (full-network mobility, more than ``_MOVE_PATCH_FRACTION`` of
the nodes) falls back to a from-scratch rebuild; it drops the live
artifacts, pending edits included.  ``incremental=False`` restores the
rebuild-on-change behavior (kept as the scaling benchmark's baseline).
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Set, Tuple

import networkx as nx
import numpy as np

from repro.dynamics.events import (
    CrashEvent,
    DrainEvent,
    Event,
    JoinEvent,
    MoveEvent,
)
from repro.engine.artifacts import (ArtifactDelta, GraphArtifacts, SlotMap,
                                    graph_artifacts, touch)
from repro.errors import GraphError
from repro.graphs.udg import UnitDiskGraph
from repro.types import NodeId, stable_sorted

#: Moves touching more than this fraction of the positioned nodes are
#: served by a full rebuild — patching every node's ball one by one
#: would do the same work with per-node overhead on top.
_MOVE_PATCH_FRACTION = 0.25

Cell = Tuple[int, int]


def _dense(ids: List[NodeId]) -> bool:
    """Whether the stably sorted ``ids`` are exactly the ints 0..n-1."""
    return (all(type(v) is int for v in ids)
            and ids == list(range(len(ids))))


class NetworkState:
    """The evolving network a maintained clustering lives on.

    Parameters
    ----------
    positions:
        Initial node positions (one entry per deployed node).
    radius:
        Communication radius (edges connect nodes within it).
    members:
        The initially maintained dominator set.
    battery_capacity:
        Initial battery level of every node (joins start full too).
    incremental:
        Keep the spatial hash and live artifacts alive across events,
        editing the artifacts once per :meth:`apply_all` batch
        (default).  ``False`` restores the rebuild-on-change baseline
        behavior.
    """

    def __init__(self, positions: Dict[NodeId, Tuple[float, float]],
                 radius: float = 1.0, *,
                 members: Iterable[NodeId] = (),
                 battery_capacity: float = 1.0,
                 incremental: bool = True):
        if radius <= 0:
            raise GraphError(f"radius must be positive, got {radius}")
        if battery_capacity <= 0:
            raise GraphError(
                f"battery_capacity must be positive, got {battery_capacity}")
        self.radius = float(radius)
        self.battery_capacity = float(battery_capacity)
        self.incremental = bool(incremental)
        self.positions: Dict[NodeId, Tuple[float, float]] = {
            v: (float(p[0]), float(p[1])) for v, p in positions.items()
        }
        self.alive: Set[NodeId] = set(self.positions)
        self.battery: Dict[NodeId, float] = {
            v: self.battery_capacity for v in self.positions
        }
        self.members: Set[NodeId] = set(members)
        unknown = self.members - self.alive
        if unknown:
            raise GraphError(
                f"members contains {len(unknown)} unknown node(s), "
                f"e.g. {next(iter(unknown))!r}"
            )
        #: Cumulative event counters (inspected by the metrics layer).
        self.total_crashes = 0
        self.total_joins = 0
        self.total_moves = 0
        #: Bumped by every change to ``members`` made through a crash,
        #: :meth:`promote` or :meth:`demote` (so a coverage vector
        #: computed earlier can tell whether it still describes them).
        self.members_version = 0
        #: Incremental-maintenance counters (surfaced per epoch by the
        #: maintenance loop next to engine ``cache_stats()``).
        self.artifact_patches = 0
        self.artifact_rebuilds = 0
        # Graph cache: _base_nx spans every node ever positioned (the
        # live view filters); rebuilt only when geometry changes beyond
        # what incremental patching covers.  A base seeded from a
        # caller-owned graph (``from_udg``) is shared until the first
        # mutating event copies it (copy-on-write).  _base_udg is such a
        # deployment whose networkx graph is not adopted yet (the first
        # graph() call adopts it; a geometry rebuild drops it).
        # _base_snapshot holds the (points, ids) the live artifacts were
        # built from when no base existed: the first graph() call builds
        # the base from them, as it would have been built then.
        self._base_nx: nx.Graph | None = None
        self._base_shared = False
        self._base_udg: UnitDiskGraph | None = None
        self._base_snapshot: Tuple[np.ndarray, List[NodeId]] | None = None
        # Nodes whose base-graph adjacency is stale (deferred join/move
        # patches; flushed lazily by graph() so the artifacts-only fast
        # path never pays nx mutation costs).
        self._base_dirty: Set[NodeId] = set()
        self._live_view: nx.Graph | None = None
        # Spatial hash over *all* positioned nodes (alive and dead),
        # mirroring the base graph's universe.  Kept alive across events.
        self._grid: Dict[Cell, Set[NodeId]] | None = None
        # Live-topology artifacts, edited once per apply_all batch via
        # ArtifactDelta; the batch's edits wait in _pending_edits.
        self._live_art: GraphArtifacts | None = None
        self._live_delta: ArtifactDelta | None = None
        self._pending_edits: List[Tuple] = []

    @classmethod
    def from_udg(cls, udg: UnitDiskGraph, *,
                 members: Iterable[NodeId] = (),
                 battery_capacity: float = 1.0,
                 incremental: bool = True) -> "NetworkState":
        """Start from an existing deployment (ids ``0..n-1``).

        The deployment's geometry is adopted, not rebuilt: its cached
        artifacts (as a copy, by the first :meth:`artifacts` call) and
        its networkx graph (copy-on-write, by the first :meth:`graph`
        call)."""
        positions = dict(enumerate(map(tuple, udg.points.tolist())))
        state = cls(positions, udg.radius, members=members,
                    battery_capacity=battery_capacity,
                    incremental=incremental)
        state._base_udg = udg
        return state

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_live(self) -> int:
        return len(self.alive)

    def next_id(self) -> int:
        """Smallest fresh integer id for a joining node."""
        ints = [v for v in self.positions if isinstance(v, int)]
        return max(ints) + 1 if ints else 0

    # ------------------------------------------------------------------
    # Spatial hash
    # ------------------------------------------------------------------
    def _cell_of(self, pos: Tuple[float, float]) -> Cell:
        cell = self.radius
        return (int(math.floor(pos[0] / cell)),
                int(math.floor(pos[1] / cell)))

    def _ensure_grid(self) -> Dict[Cell, Set[NodeId]]:
        if self._grid is None:
            grid: Dict[Cell, Set[NodeId]] = {}
            for v, p in self.positions.items():
                grid.setdefault(self._cell_of(p), set()).add(v)
            self._grid = grid
        return self._grid

    def _has_base(self) -> bool:
        """Whether a base graph exists or waits to be adopted (join and
        move patches to it are then deferred)."""
        return (self._base_nx is not None or self._base_udg is not None
                or self._base_snapshot is not None)

    def _drop_base(self) -> None:
        """Forget the base graph (geometry changed beyond patching)."""
        self._base_nx = None
        self._base_udg = None
        self._base_snapshot = None
        self._base_shared = False
        self._base_dirty.clear()

    def _own_base(self) -> nx.Graph:
        """The base graph, privately owned (copy-on-write for a base
        adopted from a caller's deployment)."""
        if self._base_shared:
            self._base_nx = self._base_nx.copy()
            self._base_shared = False
        return self._base_nx

    def _grid_move(self, node: NodeId, old: Tuple[float, float],
                   new: Tuple[float, float]) -> None:
        if self._grid is None:
            return
        c_old, c_new = self._cell_of(old), self._cell_of(new)
        if c_old != c_new:
            bucket = self._grid.get(c_old)
            if bucket is not None:
                bucket.discard(node)
                if not bucket:
                    del self._grid[c_old]
            self._grid.setdefault(c_new, set()).add(node)

    def _nearby(self, node: NodeId, pos: Tuple[float, float], *,
                live_only: bool) -> List[Tuple[NodeId, float]]:
        """Positioned nodes within the radius of ``pos`` (O(1) expected:
        one 3x3 cell-block query on the spatial hash)."""
        grid = self._ensure_grid()
        cx, cy = self._cell_of(pos)
        r2 = self.radius * self.radius
        out: List[Tuple[NodeId, float]] = []
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                for w in grid.get((cx + dx, cy + dy), ()):
                    if w == node or (live_only and w not in self.alive):
                        continue
                    qx, qy = self.positions[w]
                    d2 = (pos[0] - qx) ** 2 + (pos[1] - qy) ** 2
                    if d2 <= r2:
                        out.append((w, math.sqrt(d2)))
        return out

    # ------------------------------------------------------------------
    # Event application
    # ------------------------------------------------------------------
    def apply(self, event: Event) -> None:
        """Interpret one churn event (see :mod:`repro.dynamics.events`)."""
        self.apply_all([event])

    def apply_all(self, events: Iterable[Event]) -> Optional[SlotMap]:
        """Interpret ``events`` in order, then edit the live artifacts
        once with every edit they recorded (also when an event raises:
        the events before it stay applied).

        Returns that edit's :class:`~repro.engine.artifacts.SlotMap`, or
        ``None`` when no edit was recorded (no live artifacts, or no
        event changed the topology)."""
        try:
            for event in events:
                if isinstance(event, CrashEvent):
                    self._crash(event.node)
                elif isinstance(event, JoinEvent):
                    self._join(event.node, event.pos)
                elif isinstance(event, DrainEvent):
                    self._drain(event.node, event.amount)
                elif isinstance(event, MoveEvent):
                    self._move(event.positions)
                else:
                    raise GraphError(
                        f"unknown event type {type(event).__name__}"
                    )
        finally:
            slots = self._flush_edits()
        return slots

    def _edit(self, edit: Tuple) -> None:
        """Record one artifact edit for the current batch."""
        if self._live_delta is not None:
            self._pending_edits.append(edit)
            self.artifact_patches += 1

    def _flush_edits(self) -> Optional[SlotMap]:
        edits, self._pending_edits = self._pending_edits, []
        return self._live_delta.apply(edits) if edits else None

    def _crash(self, node: NodeId) -> None:
        if node not in self.alive:
            return  # already dead (e.g. battery ran out the same epoch)
        self.alive.discard(node)
        self.members.discard(node)
        self.members_version += 1
        self.total_crashes += 1
        self._live_view = None
        self._edit(("remove", node))

    def _join(self, node: NodeId, pos: Tuple[float, float]) -> None:
        if node in self.positions and node in self.alive:
            raise GraphError(f"joining node {node!r} already exists")
        pos = (float(pos[0]), float(pos[1]))
        rejoin = node in self.positions
        if not self.incremental:
            self.positions[node] = pos
            self._drop_base()  # geometry changed
        elif rejoin:
            # A dead node re-appearing at a (possibly) new position: a
            # grid move plus a (deferred) base-graph rewire of its ball.
            old = self.positions[node]
            self.positions[node] = pos
            self._grid_move(node, old, pos)
            if self._has_base():
                self._base_dirty.add(node)
        else:
            self.positions[node] = pos
            if self._grid is not None:
                self._grid.setdefault(self._cell_of(pos), set()).add(node)
            if self._has_base():
                self._base_dirty.add(node)
        self.alive.add(node)
        self.battery[node] = self.battery_capacity
        self.total_joins += 1
        self._live_view = None
        if self._live_delta is not None:
            self._edit(("add", node, [
                w for w, _ in self._nearby(node, pos, live_only=True)]))

    def _drain(self, node: NodeId, amount: float) -> None:
        if node not in self.alive:
            return
        self.battery[node] = self.battery.get(node, 0.0) - float(amount)
        if self.battery[node] <= 0.0:
            self.battery[node] = 0.0
            self._crash(node)

    def _patch_base_rewire(self, moved: Iterable[NodeId]) -> None:
        """Re-derive the base-graph edges of ``moved`` from the grid
        (positions must already be current)."""
        if self._base_nx is None:
            return
        base = self._own_base()
        for v in moved:
            pos = self.positions[v]
            if v in base:
                base.remove_edges_from(list(base.edges(v)))
                base.nodes[v]["pos"] = pos
            else:
                base.add_node(v, pos=pos)
            for w, d in self._nearby(v, pos, live_only=False):
                base.add_edge(v, w, dist=d)
        # An exact rewiring can preserve (n, m): bump the version token
        # so cached artifacts keyed on the base graph are never stale.
        touch(base)

    def _move(self, positions) -> None:
        moved = {v: (float(p[0]), float(p[1]))
                 for v, p in positions.items()}
        bulk = (not self.incremental
                or len(moved) > _MOVE_PATCH_FRACTION * max(1, len(self.positions)))
        if bulk:
            self.positions.update(moved)
            self._drop_base()
            self._grid = None
            self._drop_live_artifacts()
        else:
            for v, p in moved.items():
                old = self.positions.get(v)
                self.positions[v] = p
                if old is None:
                    if self._grid is not None:
                        self._grid.setdefault(self._cell_of(p), set()).add(v)
                else:
                    self._grid_move(v, old, p)
            if self._has_base():
                self._base_dirty.update(moved)
            if self._live_delta is not None:
                for v in moved:
                    if v in self.alive:
                        self._edit(("rewire", v, [
                            w for w, _ in self._nearby(
                                v, self.positions[v], live_only=True)]))
        self.total_moves += 1
        self._live_view = None

    # ------------------------------------------------------------------
    # Membership maintenance (called by repair policies via the loop)
    # ------------------------------------------------------------------
    def promote(self, nodes: Iterable[NodeId]) -> None:
        nodes = set(nodes)
        dead = nodes - self.alive
        if dead:
            raise GraphError(
                f"cannot promote dead node(s), e.g. {next(iter(dead))!r}")
        self.members |= nodes
        self.members_version += 1

    def demote(self, nodes: Iterable[NodeId]) -> None:
        self.members -= set(nodes)
        self.members_version += 1

    # ------------------------------------------------------------------
    # Graph views
    # ------------------------------------------------------------------
    def _ordered_ids(self) -> List[NodeId]:
        return stable_sorted(self.positions)

    def _geometry(self) -> Tuple[np.ndarray, List[NodeId]]:
        """Every positioned node's point, in stable id order, and the ids."""
        ids = self._ordered_ids()
        points = np.array([self.positions[v] for v in ids], dtype=float)
        return points.reshape(len(ids), 2), ids

    def _rebuild_base(self) -> None:
        """Build the base graph from the snapshot the live artifacts were
        built from, if one waits (its deferred patches then apply), else
        from the current geometry (which voids them)."""
        snapshot, self._base_snapshot = self._base_snapshot, None
        if snapshot is None:
            snapshot = self._geometry()
            self._base_dirty.clear()
        points, ids = snapshot
        udg = UnitDiskGraph(points, radius=self.radius)
        self._base_nx = nx.relabel_nodes(
            udg.nx, dict(enumerate(ids)), copy=True)

    def graph(self) -> nx.Graph:
        """The live topology (induced subgraph view on the live nodes).

        The view is cached between calls and invalidated by any event
        that changes liveness or geometry; pure crash churn reuses the
        cached geometry and only narrows the view.
        """
        if self._base_udg is not None:
            # The deployment's graph (ids are already 0..n-1) *is* the
            # base graph: adopt it copy-on-write instead of rebuilding
            # the geometry from scratch.
            self._base_nx = self._base_udg.nx
            self._base_shared = True
            self._base_udg = None
        if self._base_nx is None:
            self._rebuild_base()
            self._live_view = None
        if self._base_dirty:
            # Flush join/move patches deferred while only the artifacts
            # fast path was consuming the topology.
            self._patch_base_rewire(self._base_dirty)
            self._base_dirty.clear()
            self._live_view = None
        if self._live_view is None:
            self._live_view = self._base_nx.subgraph(set(self.alive))
        return self._live_view

    def _drop_live_artifacts(self) -> None:
        self._live_art = None
        self._live_delta = None
        self._pending_edits = []

    def artifacts(self) -> GraphArtifacts:
        """Incrementally maintained :class:`GraphArtifacts` of the live
        topology (the vectorized verify oracle's input).

        Built from scratch once, then edited through an
        :class:`~repro.engine.artifacts.ArtifactDelta` once per
        :meth:`apply_all` batch.  With ``incremental=False`` every call
        rebuilds (baseline behavior).  A state started from a
        deployment that has not changed yet adopts a copy of the
        deployment's cached bundle instead (counted as the build), and
        one without a base graph, every node alive over ids ``0..n-1``,
        a copy of its points' unit disk graph's bundle.  The
        bundle's node order is maintenance order, not insertion order —
        consume it through ``index`` / ``nodes``.
        """
        if not self.incremental:
            self.artifact_rebuilds += 1
            return GraphArtifacts(self.graph())
        if self._live_art is None:
            # With every positioned node alive and no deferred patches,
            # the live topology *is* the base graph — building from the
            # concrete graph skips the subgraph view's per-edge filter
            # overhead (a large constant factor at n >= 10^4), and a
            # deployment's own bundle needs no build at all.
            pristine = (not self._base_dirty
                        and len(self.alive) == len(self.positions))
            geometry = (self._geometry()
                        if pristine and not self._has_base() else None)
            if pristine and self._base_udg is not None:
                self._live_art = graph_artifacts(self._base_udg).copy()
            elif geometry is not None and _dense(geometry[1]):
                # No base graph (a fresh state, or one after a bulk
                # move) over ids 0..n-1: the live topology is the unit
                # disk graph of the points in id order.  Adopt its
                # edge-array bundle, as for a deployment, and leave the
                # base graph to graph(), built from the same snapshot.
                udg = UnitDiskGraph(geometry[0], radius=self.radius)
                self._live_art = graph_artifacts(udg).copy()
                self._base_snapshot = geometry
            else:
                source = (self._base_nx
                          if pristine and self._base_nx is not None
                          else self.graph())
                self._live_art = GraphArtifacts(source)
            self._live_delta = self._live_art.delta_patcher()
            self.artifact_rebuilds += 1
        return self._live_art

    def live_udg(self) -> Tuple[UnitDiskGraph, List[NodeId]]:
        """A fresh :class:`UnitDiskGraph` over only the live nodes.

        Returns the graph (local ids ``0..m-1``) and ``to_global`` such
        that local node ``i`` is global node ``to_global[i]``.  Used by
        recompute-style repair, which genuinely pays this rebuild.
        """
        to_global = [v for v in self._ordered_ids() if v in self.alive]
        points = np.array([self.positions[v] for v in to_global],
                          dtype=float)
        udg = UnitDiskGraph(points.reshape(len(to_global), 2),
                            radius=self.radius)
        return udg, to_global

    def __repr__(self) -> str:  # pragma: no cover — debugging aid
        return (f"<NetworkState live={self.n_live} "
                f"members={len(self.members)} radius={self.radius}>")
