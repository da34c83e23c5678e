"""Broadcast-native columnar transport records.

The paper's synchronous model lets every node send to each neighbor per
round — which the simulator originally realized as one Python tuple *per
edge per round*.  This module replaces the per-edge outbox with compact
**records**:

- a local broadcast is ONE record ``(BROADCAST, src, None, msg)``,
  expanded lazily at delivery time against the cached stable neighbor
  order in :class:`~repro.engine.artifacts.GraphArtifacts`;
- a unicast is ``(UNICAST, src, dest, msg)``;
- a restricted multicast (Algorithm 3's ``send_within``) is
  ``(MULTICAST, src, (dests...), msg)``.

One :class:`RoundBatch` carries a round's records plus a set of
``blocked`` nodes (crash-silenced endpoints).  Delivery expands records
**in record order**, each broadcast fanning out over the sender's
stable (id-sorted) neighbor tuple — the per-edge send order, so
per-destination inbox order, message counts, bit counts, and
loss-injector RNG consumption are the same whether an injector filters
the batch or the expanded per-edge list (pinned by
``tests/test_transport_equivalence.py``).

Accounting is columnar too: message bits depend only on the class
(interned ``SCHEMA``), so a delivered batch is charged per class with
``class_bits * fan_out`` instead of one
:meth:`~repro.engine.instrumentation.Instrumentation.payload` call per
copy.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.simulation.messages import Message
from repro.types import NodeId

#: Record kinds (first element of each record tuple).
UNICAST = 0
BROADCAST = 1
MULTICAST = 2

#: One outbox record: ``(kind, src, target, msg)`` where ``target`` is
#: ``None`` (broadcast), a node id (unicast), or a tuple of node ids
#: (multicast).
Record = Tuple[int, NodeId, object, Message]


def _singleton_gather(j: int):
    def gather(pairs, _j=j):
        return (pairs[_j],)
    return gather


class GatherPlan:
    """Precomputed per-destination gather for full-broadcast rounds.

    When every record in a round is a broadcast and no endpoint is
    blocked, each destination's inbox is exactly the senders adjacent to
    it — gathered from an index-aligned ``pairs`` list through one
    C-level :func:`operator.itemgetter` per destination (built once per
    network, over the stable id-sorted neighbor order), instead of one
    Python-level append per delivered copy.  The gathered order (the
    destination's id-sorted neighbors) is the scatter order only when
    the node labels sort naturally: the runner advances senders in the
    global stable order, and a natural order restricted to a node's
    neighbors is their own sorted order.  Under the ``repr`` fallback it
    need not be (on the graph {2-10, 2-'3', 10-'3', 2-5} the senders go
    '3', 10, 2, 5, so '3' hears 10 before 2, while its int neighbors
    sort as [2, 10]), and the network builds no plan
    (:meth:`~repro.simulation.network.SynchronousNetwork.gather_plan`).
    """

    __slots__ = ("nodes", "index", "n", "gather", "degree")

    def __init__(self, nodes: Sequence[NodeId], index: Dict[NodeId, int],
                 sorted_neighbors: Dict[NodeId, Tuple[NodeId, ...]]):
        self.nodes = list(nodes)
        self.index = index
        self.n = len(self.nodes)
        self.gather = []
        #: Per-node degree, aligned with ``nodes`` — the broadcast
        #: fan-out charged by the accounting fast path.
        self.degree = [len(sorted_neighbors[v]) for v in self.nodes]
        for v in self.nodes:
            nbrs = sorted_neighbors[v]
            if not nbrs:
                self.gather.append(None)
            elif len(nbrs) == 1:
                # itemgetter(j) returns a bare item, not a 1-tuple.
                self.gather.append(_singleton_gather(index[nbrs[0]]))
            else:
                self.gather.append(
                    itemgetter(*[index[w] for w in nbrs]))


class RoundBatch:
    """One round's outgoing traffic in columnar (record) form.

    Parameters
    ----------
    records:
        The round's records, in send order.
    neighbors_of:
        Maps a node id to its stable (id-sorted) neighbor tuple — the
        broadcast expansion order.  Shared with the network's
        :class:`~repro.engine.artifacts.GraphArtifacts`.
    blocked:
        Nodes whose traffic is suppressed in both directions (crashed).
        Applied during expansion, before any accounting.
    """

    __slots__ = ("records", "neighbors_of", "blocked", "nodes", "plan")

    def __init__(self, records: List[Record], neighbors_of,
                 blocked: Optional[Set[NodeId]] = None,
                 nodes: Optional[Sequence[NodeId]] = None,
                 plan: Optional[GatherPlan] = None):
        self.records = records
        self.neighbors_of = neighbors_of
        self.blocked: Set[NodeId] = blocked if blocked is not None else set()
        #: All network nodes (when known): lets delivery pre-seed one
        #: inbox list per node instead of branching per delivered copy.
        self.nodes = nodes
        #: Per-destination gather plan for the full-broadcast fast path.
        self.plan = plan

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.records)

    def is_empty(self) -> bool:
        return not self.records

    # ------------------------------------------------------------------
    def targets_of(self, record: Record) -> Tuple[NodeId, ...]:
        """The surviving destinations of ``record``, in delivery order."""
        kind, src, target, _ = record
        blocked = self.blocked
        if kind == BROADCAST:
            dests = self.neighbors_of(src)
        elif kind == UNICAST:
            dests = (target,)
        else:
            dests = target
        if blocked:
            dests = tuple(w for w in dests if w not in blocked)
        return dests

    def target_sequences(self) -> List[Tuple[NodeId, ...]]:
        """Per-record destination tuples (blocked endpoints excluded),
        aligned with ``self.records`` — the expanded (src, dst) edge list
        in send order."""
        return [self.targets_of(rec) for rec in self.records]

    # ------------------------------------------------------------------
    def drop_sources(self, dead: Set[NodeId]) -> None:
        """Remove every record whose sender is in ``dead`` and silence
        ``dead`` as destinations (the crash-stop filter, batch form)."""
        if not dead:
            return
        self.records = [rec for rec in self.records if rec[1] not in dead]
        self.blocked |= dead

    # ------------------------------------------------------------------
    def expand(self) -> List[Tuple[NodeId, NodeId, Message]]:
        """The per-edge view ``[(src, dest, msg), ...]`` in send order —
        the list a third-party ``filter_messages`` override filters."""
        out: List[Tuple[NodeId, NodeId, Message]] = []
        append = out.append
        for rec in self.records:
            src, msg = rec[1], rec[3]
            for w in self.targets_of(rec):
                append((src, w, msg))
        return out

    # ------------------------------------------------------------------
    def deliver(self) -> Tuple[Dict[NodeId, List[Tuple[NodeId, Message]]],
                               Dict[type, Tuple[int, Message]]]:
        """Expand the batch into per-destination inboxes + class counts.

        Returns ``(inboxes, per_class)`` where ``inboxes[dest]`` is the
        destination's ``[(src, msg), ...]`` list in send order and
        ``per_class[cls] = (delivered_count, sample_msg)`` drives the
        columnar bit accounting (bits depend only on the class).

        The ``(src, msg)`` pair of a broadcast is created once and the
        same tuple object is shared across all fan-out destinations.
        Records whose surviving fan-out is empty contribute nothing —
        not even a zero-count class entry — so ``per_class`` is empty
        exactly when :meth:`expand` would be.
        """
        if self.plan is not None and not self.blocked and self.records:
            fast = self._deliver_gathered(self.plan)
            if fast is not None:
                return fast
        if self.nodes is not None:
            inboxes: Dict[NodeId, List[Tuple[NodeId, Message]]] = {
                v: [] for v in self.nodes
            }
        else:
            inboxes = {}
        per_class: Dict[type, Tuple[int, Message]] = {}
        blocked = self.blocked
        neighbors_of = self.neighbors_of
        seeded = self.nodes is not None
        for kind, src, target, msg in self.records:
            if kind == BROADCAST:
                dests = neighbors_of(src)
            elif kind == UNICAST:
                dests = (target,)
            else:
                dests = target
            if blocked:
                dests = [w for w in dests if w not in blocked]
            if not dests:
                continue
            pair = (src, msg)
            if seeded:
                for w in dests:
                    inboxes[w].append(pair)
            else:
                for w in dests:
                    box = inboxes.get(w)
                    if box is None:
                        inboxes[w] = [pair]
                    else:
                        box.append(pair)
            cls = type(msg)
            entry = per_class.get(cls)
            if entry is None:
                per_class[cls] = (len(dests), msg)
            else:
                per_class[cls] = (entry[0] + len(dests), msg)
        return inboxes, per_class

    def _deliver_gathered(self, plan: GatherPlan):
        """Full-broadcast fast path (every record a broadcast, each
        sender at most once, nothing blocked); None if inapplicable.

        Inboxes come out as the itemgetter result tuples themselves —
        no per-destination list copy.  Inboxes are read-only by contract
        (no protocol or backend mutates one), so handing out tuples is
        observationally identical to lists.
        """
        index = plan.index
        degree = plan.degree
        pairs: List[Optional[Tuple[NodeId, Message]]] = [None] * plan.n
        filled = 0
        per_class: Dict[type, Tuple[int, Message]] = {}
        for rec in self.records:
            if rec[0] != BROADCAST:
                return None
            i = index[rec[1]]
            if pairs[i] is not None:
                return None
            msg = rec[3]
            pairs[i] = (rec[1], msg)
            filled += 1
            count = degree[i]
            if not count:
                continue
            cls = type(msg)
            entry = per_class.get(cls)
            if entry is None:
                per_class[cls] = (count, msg)
            else:
                per_class[cls] = (entry[0] + count, msg)
        if filled == plan.n:
            inboxes = {
                v: (g(pairs) if g is not None else ())
                for v, g in zip(plan.nodes, plan.gather)
            }
        else:
            inboxes = {
                v: (tuple(p for p in g(pairs) if p is not None)
                    if g is not None else ())
                for v, g in zip(plan.nodes, plan.gather)
            }
        return inboxes, per_class


def sort_inbox(inbox: List[Tuple[NodeId, Message]]
               ) -> List[Tuple[NodeId, Message]]:
    """Sort an inbox by sender id (stable: a sender's own messages keep
    their send order) — the delivery-order contract.  The synchronous
    runner gets this for free by advancing generators in id-sorted
    order; the event-driven synchronizers, whose payloads arrive in
    delay order, call this at consume time."""
    try:
        return sorted(inbox, key=_pair_src)
    except TypeError:
        return sorted(inbox, key=_pair_src_repr)


def _pair_src(pair):
    return pair[0]


def _pair_src_repr(pair):
    return repr(pair[0])


def explicit_batch(edges: Sequence[Tuple[NodeId, NodeId, Message]],
                   neighbors_of,
                   nodes: Optional[Sequence[NodeId]] = None) -> RoundBatch:
    """A batch of plain unicast records from a per-edge list (used to
    re-wrap the output of third-party ``filter_messages`` overrides)."""
    return RoundBatch([(UNICAST, src, dest, msg) for src, dest, msg in edges],
                      neighbors_of, nodes=nodes)
