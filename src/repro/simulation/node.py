"""Node process abstraction for the synchronous simulator.

A protocol is implemented by subclassing :class:`NodeProcess` and writing
``run(ctx)`` as a generator.  Each ``yield`` marks the end of one
communication round; the value received from the yield is the node's inbox
for the next round — a list of ``(sender, message)`` pairs::

    class EchoNode(NodeProcess):
        def run(self, ctx):
            ctx.broadcast(Ping(val=self.node_id))
            inbox = yield
            self.heard = [sender for sender, _ in inbox]

This style keeps multi-phase protocols (like Algorithm 1's nested loops or
Algorithm 3's doubling rounds) structurally identical to their pseudocode.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.errors import ProtocolViolationError
from repro.simulation.messages import Message
from repro.types import NodeId


class NodeContext:
    """Per-node handle into the network, valid for one protocol execution.

    Provides sending primitives, neighbor discovery, distance sensing (on
    geometric graphs), and the node's private RNG stream.
    """

    def __init__(self, node_id: NodeId, neighbors: Tuple[NodeId, ...],
                 network: "SynchronousNetwork",
                 rng: np.random.Generator):
        self.node_id = node_id
        #: Open neighborhood of the node (excludes the node itself).
        self.neighbors = neighbors
        self.rng = rng
        self._network = network
        self._neighbor_set = frozenset(neighbors)
        self.round_index = 0
        # Hot-path bindings: the network's outbox list is stable for its
        # lifetime (drained by copy-and-clear), so its append method can
        # be bound once instead of resolved per broadcast.
        self._record_append = network._outbox.append
        self._strict = network.strict_message_bits is not None

    @property
    def n(self) -> int:
        """Total number of nodes in the network (known a priori, as the
        paper assumes nodes know ``n``)."""
        return self._network.n

    @property
    def radius(self) -> float:
        """The network's communication radius (1 unless the graph is a
        geometric wrapper with its own ``radius``)."""
        return self._network.radius

    def send(self, dest: NodeId, message: Message) -> None:
        """Queue ``message`` for delivery to neighbor ``dest`` at the end of
        the current round."""
        if dest != self.node_id and dest not in self._neighbor_set:
            raise ProtocolViolationError(
                f"node {self.node_id!r} tried to send to non-neighbor {dest!r}"
            )
        self._network._enqueue(self.node_id, dest, message)

    def broadcast(self, message: Message) -> None:
        """Send ``message`` to every neighbor (a local broadcast — the
        natural primitive on a shared wireless medium).

        Recorded as a *single* transport entry; the per-neighbor fan-out
        is materialized lazily at delivery over the cached stable
        neighbor order, so the cost of calling this is O(1) rather than
        O(degree)."""
        # Validation inlined from SynchronousNetwork._enqueue_broadcast:
        # this is the hottest send primitive.
        if not isinstance(message, Message):
            raise ProtocolViolationError(
                f"node {self.node_id!r} sent a non-Message payload: "
                f"{type(message).__name__}"
            )
        if self._strict:
            self._network._check_message(self.node_id, message)
        self._record_append((1, self.node_id, None, message))  # 1 == BROADCAST

    def send_within(self, radius: float, message: Message) -> None:
        """Send ``message`` to every neighbor within Euclidean distance
        ``radius`` (requires a geometric graph; models the restricted
        transmission range :math:`\\theta` of Algorithm 3)."""
        self._network._enqueue_multi(
            self.node_id, self.neighbors_within(radius), message
        )

    def neighbors_within(self, radius: float) -> Tuple[NodeId, ...]:
        """Neighbors at Euclidean distance at most ``radius`` — the paper's
        :math:`N_v(\\tau)` minus the node itself."""
        return self._network.neighbors_within(self.node_id, radius)

    def distance(self, other: NodeId) -> float:
        """Sensed Euclidean distance to a neighbor (UDG model assumption)."""
        return self._network.distance(self.node_id, other)


#: Inbox type: messages received in the previous round.
Inbox = List[Tuple[NodeId, Message]]


class NodeProcess:
    """Base class for protocol node processes.

    Subclasses implement :meth:`run` as a generator.  State that should be
    inspected after the run (e.g. the final ``x`` value or leader flag)
    should be stored on ``self``.
    """

    def __init__(self, node_id: NodeId):
        self.node_id = node_id
        #: Set by the runner when the node's generator finishes.
        self.finished = False
        #: Set by a fault injector if the node crashes mid-protocol.
        self.crashed = False
        self.ctx: Optional[NodeContext] = None

    def run(self, ctx: NodeContext) -> Iterator[None]:
        """Protocol body.  Must be a generator: ``inbox = yield`` advances
        one synchronous round."""
        raise NotImplementedError
        yield  # pragma: no cover — marks this as a generator template

    def __repr__(self) -> str:  # pragma: no cover — debugging aid
        status = "crashed" if self.crashed else ("done" if self.finished else "live")
        return f"<{type(self).__name__} {self.node_id!r} {status}>"
