"""The synchronous network: topology, message delivery, accounting.

:class:`SynchronousNetwork` binds a graph to a set of
:class:`~repro.simulation.node.NodeProcess` instances and exposes the
delivery machinery used by :func:`repro.simulation.runner.run_protocol`.

The network accepts either a plain ``networkx.Graph`` (optionally with
``pos`` node attributes for geometric protocols) or any object with an
``nx`` attribute holding one (e.g. :class:`repro.graphs.udg.UnitDiskGraph`).
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

    Parameters
    ----------
    graph:
        ``networkx.Graph`` or an object exposing one via ``.nx``.  Node
        positions, when present (``pos`` node attribute as an ``(x, y)``
        pair), enable the distance-sensing primitives used by Algorithm 3.
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
        self.graph: nx.Graph = getattr(graph, "nx", graph)
        if not isinstance(self.graph, nx.Graph):
            raise SimulationError(
                f"expected a networkx.Graph (or wrapper), got {type(graph).__name__}"
            )
        self.processes: Dict[NodeId, NodeProcess] = {}
        for proc in processes:
            if proc.node_id not in self.graph:
                raise SimulationError(
                    f"process for unknown node {proc.node_id!r}"
                )
            if proc.node_id in self.processes:
                raise SimulationError(
                    f"duplicate process for node {proc.node_id!r}"
                )
            self.processes[proc.node_id] = proc
        missing = set(self.graph.nodes) - set(self.processes)
        if missing:
            raise SimulationError(
                f"no process supplied for {len(missing)} node(s), e.g. {next(iter(missing))!r}"
            )

        self.n = self.graph.number_of_nodes()
        self.size_model = MessageSizeModel(max(1, self.n), value_bits=value_bits)
        self.strict_message_bits = strict_message_bits
        #: Root seed of the per-node streams (the columnar plane seeds
        #: its lane-space pool from it).
        self.seed = seed
        # Lazy: streams are derived per node on first use, so runs that
        # never look one up (the columnar stepping plane, which draws
        # from its own lane-space pool) skip the O(n) spawn entirely.
        self.rngs = LazyNodeRngs(self.graph.nodes, seed)

        # Columnar outbox: one record per send *call* (a broadcast is a
        # single record regardless of degree), expanded lazily at
        # delivery.  See repro.simulation.transport.
        self._outbox: List[Record] = []
        # When the graph wrapper provides its own distance sensing (e.g.
        # NoisySensingUDG), delegate range queries to it so protocols see
        # the wrapper's (possibly imperfect) sensed distances.
        has_sensing = graph is not self.graph and hasattr(graph,
                                                          "neighbors_within")
        self._sensing = graph if has_sensing else None
        #: Communication radius: the wrapper's ``radius`` (a
        #: :class:`~repro.graphs.udg.UnitDiskGraph`), else the paper's 1.
        self.radius = float(getattr(graph, "radius", 1.0))
        self._positions = self._load_positions()
        # Stable neighbor orderings come from the per-graph artifact
        # cache, shared with direct-mode kernels and repeated runs.
        self._artifacts = graph_artifacts(self.graph)
        self._edge_distance_cache: Dict[Tuple[NodeId, NodeId], float] = {}
        self._gather_plan: Optional[GatherPlan] = None

    # ------------------------------------------------------------------
    # Topology and geometry
    # ------------------------------------------------------------------
    def _load_positions(self) -> Optional[Dict[NodeId, Tuple[float, float]]]:
        pos = nx.get_node_attributes(self.graph, "pos")
        if len(pos) == self.n and self.n > 0:
            return {v: (float(p[0]), float(p[1])) for v, p in pos.items()}
        return None

    @property
    def is_geometric(self) -> bool:
        """Whether every node carries a position (distance sensing works)."""
        return self._positions is not None

    def distance(self, u: NodeId, v: NodeId) -> float:
        """Euclidean distance between two positioned nodes."""
        if self._positions is None:
            raise GeometryError(
                "distance sensing requires node positions ('pos' attributes)"
            )
        cache = self._edge_distance_cache
        d = cache.get((u, v))
        if d is None:
            (x1, y1), (x2, y2) = self._positions[u], self._positions[v]
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
        if self._positions is None:
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

    def gather_plan(self) -> GatherPlan:
        """The per-destination gather plan (built once per network)."""
        if self._gather_plan is None:
            art = self._artifacts
            self._gather_plan = GatherPlan(art.nodes, art.index,
                                           art.sorted_neighbors)
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
