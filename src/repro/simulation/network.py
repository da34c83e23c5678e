"""The synchronous network: topology, message delivery, accounting.

:class:`SynchronousNetwork` binds a graph to a set of
:class:`~repro.simulation.node.NodeProcess` instances and exposes the
delivery machinery used by :func:`repro.simulation.runner.run_protocol`.

The network accepts either a plain ``networkx.Graph`` (optionally with
``pos`` node attributes for geometric protocols) or any object with an
``nx`` attribute holding one (e.g. :class:`repro.graphs.udg.UnitDiskGraph`).
Node count, stream nodes, process checks and neighbor order come from the
graph's :class:`~repro.engine.artifacts.GraphArtifacts`, so a unit disk
graph whose networkx graph is not built yet runs without building it:
its artifacts come from its edge arrays and its positions from its
``points``.  :attr:`SynchronousNetwork.graph` resolves the networkx
graph on first read, and only the consumers that walk it read it: the
beta synchronizer's BFS trees, and the ``neighbors_within`` fallback
and position loading of a graph without its own sensing or ``points``.

Two kinds of run use a network:

- a **process run** binds one process per node and executes on the
  per-node generator loop or, when eligible, on the columnar stepping
  plane (:mod:`repro.simulation.columnar`), which writes its final lane
  state back onto the processes;
- a **lane run** (:meth:`SynchronousNetwork.for_lanes`) carries a
  program's node parameters as lane arrays
  (:class:`~repro.engine.program.Lanes`) instead of processes, and only
  the columnar plane can execute it.  ``execute(program, "message")``
  takes this path for programs with a registered stepper.

Node positions are read on first use (:meth:`distance`,
:meth:`neighbors_within`, :attr:`is_geometric`), so runs that never
sense distances — every columnar run — never load them.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Tuple

import networkx as nx

from repro.engine.artifacts import graph_artifacts
from repro.errors import GeometryError, ProtocolViolationError, SimulationError
from repro.simulation.messages import Message, MessageSizeModel
from repro.simulation.node import NodeContext, NodeProcess
from repro.simulation.rng import LazyNodeRngs
from repro.simulation.transport import (
    BROADCAST,
    MULTICAST,
    UNICAST,
    GatherPlan,
    Record,
    RoundBatch,
)
from repro.types import NodeId


class SynchronousNetwork:
    """A synchronous message-passing network over a fixed topology.

    Binding reads the graph's artifacts only.  :attr:`graph` is a
    property that builds a wrapper's networkx graph on first read, so a
    unit disk graph's lane and process runs leave it unbuilt unless a
    per-node consumer walks it (the beta synchronizer's BFS trees, or
    ``neighbors_within`` and positions on a wrapper without sensing or
    ``points``).

    Parameters
    ----------
    graph:
        ``networkx.Graph`` or an object exposing one via ``.nx``.  Node
        positions, when present (a wrapper's ``points``, else the ``pos``
        node attribute as an ``(x, y)`` pair), enable the
        distance-sensing primitives used by Algorithm 3.  A wrapper's
        networkx graph is built only if :attr:`graph` is read.
    processes:
        One :class:`NodeProcess` per graph node.
    seed:
        Root seed for all per-node randomness (the ``seed`` attribute).
    value_bits:
        Optional override for the fixed-point width of ``value`` message
        fields (see :class:`~repro.simulation.messages.MessageSizeModel`).
    strict_message_bits:
        When set, sending any message larger than this many bits raises
        :class:`~repro.errors.ProtocolViolationError` — use it to *enforce*
        the paper's O(log n) budget instead of merely measuring it.
    """

    def __init__(self, graph, processes: Iterable[NodeProcess], *,
                 seed: int | None = None, value_bits: int | None = None,
                 strict_message_bits: int | None = None):
        self._bind(graph, seed, value_bits, strict_message_bits)
        self.processes: Dict[NodeId, NodeProcess] = {}
        index = self._artifacts.index
        for proc in processes:
            node_id = proc.node_id
            try:
                known = node_id in index
            except TypeError:  # unhashable: no node, as networkx answers
                known = False
            if not known:
                raise SimulationError(
                    f"process for unknown node {node_id!r}"
                )
            if node_id in self.processes:
                raise SimulationError(
                    f"duplicate process for node {node_id!r}"
                )
            self.processes[node_id] = proc
        # Every process names a distinct graph node, so equal counts mean
        # every node has one; the missing set only words the error.
        if len(self.processes) != self.n:
            missing = set(self._artifacts.nodes) - set(self.processes)
            raise SimulationError(
                f"no process supplied for {len(missing)} node(s), e.g. {next(iter(missing))!r}"
            )
        #: A process run carries no lanes (see :meth:`for_lanes`).
        self.lanes = None

    @classmethod
    def for_lanes(cls, graph, lanes, *, seed: int | None = None,
                  value_bits: int | None = None,
                  strict_message_bits: int | None = None
                  ) -> "SynchronousNetwork":
        """A process-free network for a lane run: ``lanes`` (a
        :class:`~repro.engine.program.Lanes`) holds every node's
        parameters as lane arrays, ``processes`` stays empty, and only
        :func:`~repro.simulation.columnar.try_columnar` can run it; the
        run leaves its final lane state on ``lanes.stepper``."""
        net = cls.__new__(cls)
        net._bind(graph, seed, value_bits, strict_message_bits)
        net.processes = {}
        net.lanes = lanes
        return net

    def _bind(self, graph, seed, value_bits, strict_message_bits) -> None:
        # An array-primary wrapper whose networkx graph is not built yet
        # is read through its artifacts; any other input must be (or
        # hold) a networkx graph.
        lazy = getattr(graph, "edge_arrays", None) is not None
        if not lazy and not isinstance(getattr(graph, "nx", graph), nx.Graph):
            raise SimulationError(
                f"expected a networkx.Graph (or wrapper), got {type(graph).__name__}"
            )
        self._source = graph
        # Stable neighbor orderings come from the per-graph artifact
        # cache, shared with direct-mode kernels and repeated runs.
        self._artifacts = graph_artifacts(graph)
        self.n = self._artifacts.n
        self.size_model = MessageSizeModel(max(1, self.n), value_bits=value_bits)
        self.strict_message_bits = strict_message_bits
        #: Root seed of the per-node streams (the columnar plane seeds
        #: its lane-space pool from it).
        self.seed = seed
        # Lazy: streams are derived per node on first use, so runs that
        # never look one up (the columnar stepping plane, which draws
        # from its own lane-space pool) skip the O(n) spawn entirely.
        self.rngs = LazyNodeRngs(self._artifacts.nodes, seed)

        # Columnar outbox: one record per send *call* (a broadcast is a
        # single record regardless of degree), expanded lazily at
        # delivery.  See repro.simulation.transport.
        self._outbox: List[Record] = []
        # When the graph wrapper provides its own distance sensing (e.g.
        # NoisySensingUDG), delegate range queries to it so protocols see
        # the wrapper's (possibly imperfect) sensed distances.
        has_sensing = (not isinstance(graph, nx.Graph)
                       and hasattr(graph, "neighbors_within"))
        self._sensing = graph if has_sensing else None
        #: Communication radius: the wrapper's ``radius`` (a
        #: :class:`~repro.graphs.udg.UnitDiskGraph`), else the paper's 1.
        self.radius = float(getattr(graph, "radius", 1.0))
        # Loaded by the first geometric query (see _geometry).
        self._positions_loaded = False
        self._positions: Optional[Dict[NodeId, Tuple[float, float]]] = None
        self._edge_distance_cache: Dict[Tuple[NodeId, NodeId], float] = {}
        # ``False`` until built (``None``: no plan, see gather_plan).
        self._gather_plan = False

    # ------------------------------------------------------------------
    # Topology and geometry
    # ------------------------------------------------------------------
    @property
    def graph(self) -> nx.Graph:
        """The networkx graph, resolved on read: a wrapper's graph is
        built by the first read (e.g. ``udg.nx``), never by binding."""
        return getattr(self._source, "nx", self._source)

    def _load_positions(self) -> Optional[Dict[NodeId, Tuple[float, float]]]:
        points = getattr(self._source, "points", None)
        if points is not None and len(points) == self.n:
            # A wrapper places node i at points[i]: no networkx needed.
            pos = dict(enumerate(map(tuple, points.tolist())))
        else:
            pos = nx.get_node_attributes(self.graph, "pos")
        if len(pos) == self.n and self.n > 0:
            return {v: (float(p[0]), float(p[1])) for v, p in pos.items()}
        return None

    def _geometry(self) -> Optional[Dict[NodeId, Tuple[float, float]]]:
        """The node positions, read from the graph on first use."""
        if not self._positions_loaded:
            self._positions = self._load_positions()
            self._positions_loaded = True
        return self._positions

    @property
    def is_geometric(self) -> bool:
        """Whether every node carries a position (distance sensing works)."""
        return self._geometry() is not None

    def distance(self, u: NodeId, v: NodeId) -> float:
        """Euclidean distance between two positioned nodes."""
        cache = self._edge_distance_cache
        d = cache.get((u, v))
        if d is None:
            positions = self._geometry()
            if positions is None:
                raise GeometryError(
                    "distance sensing requires node positions ('pos' attributes)"
                )
            (x1, y1), (x2, y2) = positions[u], positions[v]
            d = math.hypot(x1 - x2, y1 - y2)
            # Store under both orientations: order-insensitive lookups
            # without canonicalizing (the ids need not be comparable).
            cache[(u, v)] = d
            cache[(v, u)] = d
        return d

    def neighbors_within(self, v: NodeId, radius: float) -> Tuple[NodeId, ...]:
        """Graph neighbors of ``v`` within sensed distance ``radius``."""
        if self._sensing is not None:
            return tuple(self._sensing.neighbors_within(v, radius))
        if self._geometry() is None:
            raise GeometryError(
                "neighbors_within requires node positions ('pos' attributes)"
            )
        return tuple(
            w for w in self.graph.neighbors(v) if self.distance(v, w) <= radius
        )

    def sorted_neighbors(self, v: NodeId) -> Tuple[NodeId, ...]:
        """Neighbors of ``v`` in a stable order (deterministic runs)."""
        return self._artifacts.sorted_neighbors[v]

    # ------------------------------------------------------------------
    # Message queueing (called by NodeContext)
    # ------------------------------------------------------------------
    def _check_message(self, src: NodeId, message: Message) -> None:
        if not isinstance(message, Message):
            raise ProtocolViolationError(
                f"node {src!r} sent a non-Message payload: {type(message).__name__}"
            )
        if self.strict_message_bits is not None:
            bits = self.size_model.message_bits(message)
            if bits > self.strict_message_bits:
                raise ProtocolViolationError(
                    f"node {src!r} sent a {bits}-bit {type(message).__name__}"
                    f", exceeding the strict budget of "
                    f"{self.strict_message_bits} bits"
                )

    def _enqueue(self, src: NodeId, dest: NodeId, message: Message) -> None:
        self._check_message(src, message)
        self._outbox.append((UNICAST, src, dest, message))

    def _enqueue_broadcast(self, src: NodeId, message: Message) -> None:
        """Record a local broadcast as a single entry; the fan-out over
        ``sorted_neighbors(src)`` happens lazily at delivery."""
        self._check_message(src, message)
        self._outbox.append((BROADCAST, src, None, message))

    def _enqueue_multi(self, src: NodeId, dests: Tuple[NodeId, ...],
                       message: Message) -> None:
        if not dests:
            return
        self._check_message(src, message)
        self._outbox.append((MULTICAST, src, dests, message))

    def gather_plan(self) -> Optional[GatherPlan]:
        """The per-destination gather plan (built once per network), or
        ``None`` when the node labels do not sort naturally: the plan
        gathers each inbox in the destination's own sorted neighbor
        order, which is the send order only when that is the global
        stable order restricted to the neighbors."""
        if self._gather_plan is False:
            art = self._artifacts
            self._gather_plan = (
                GatherPlan(art.nodes, art.index, art.sorted_neighbors)
                if art.stable_order()[2] else None)
        return self._gather_plan

    def drain_batch(self) -> RoundBatch:
        """Remove and return the round's records as a columnar batch.

        Drains by copy-and-clear so ``self._outbox`` stays the *same*
        list object for the network's lifetime — node contexts bind its
        ``append`` method once at construction (the broadcast hot path).
        """
        records = self._outbox.copy()
        self._outbox.clear()
        return RoundBatch(records, self.sorted_neighbors,
                          nodes=self._artifacts.nodes,
                          plan=self.gather_plan())

    def make_context(self, node_id: NodeId) -> NodeContext:
        """Build the per-node context handed to ``NodeProcess.run``."""
        return NodeContext(
            node_id=node_id,
            neighbors=self.sorted_neighbors(node_id),
            network=self,
            rng=self.rngs[node_id],
        )
