"""Fault injection for the synchronous simulator.

Two fault classes relevant to the paper's motivation (Section 1):

- :class:`CrashFaultInjector` — crash-stop node failures ("battery driven
  sensor nodes may stop working"), scheduled per round;
- :class:`MessageLossInjector` — i.i.d. message drops ("the shared wireless
  medium is inherently less stable than wired media").

Injectors are composable: the runner applies every injector's
``filter_batch`` (whose default expands the round to the per-edge list a
``filter_messages`` override filters) to each round's traffic and asks
``crashes_at`` for the set of nodes to kill at each round boundary.

Backend support
---------------
Message-dropping injectors work on every message-passing backend: the
synchronous runner filters each round's traffic in batch, the
event-driven transports (``mode="async"`` / ``"async-beta"``) filter
each payload individually at *delivery* time.  Crash injectors
(``kills_nodes = True``) are supported only by the synchronous runner —
the synchronizers' safety detection assumes acknowledgments from every
neighbor, so a silently crashed node would deadlock the transformation
rather than model a crash.  The event-driven transports therefore
reject them at construction, and the vectorized ``mode="direct"``
backend (no messages at all) rejects any injector.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Set, Tuple

import numpy as np

from repro.simulation.messages import Message
from repro.simulation.transport import MULTICAST, RoundBatch, explicit_batch
from repro.types import NodeId


class FaultInjector:
    """Base class; the default injector is a no-op."""

    #: Whether this injector removes nodes from the execution (via
    #: :meth:`crashes_at`).  Transports that cannot honor node removal —
    #: the event-driven synchronizers — check this flag and refuse such
    #: injectors up front instead of deadlocking.
    kills_nodes = False

    def crashes_at(self, round_index: int) -> Set[NodeId]:
        """Nodes that crash at the *start* of ``round_index`` (0-based)."""
        return set()

    def filter_messages(
        self, round_index: int,
        messages: List[Tuple[NodeId, NodeId, Message]],
    ) -> List[Tuple[NodeId, NodeId, Message]]:
        """Return the subset of ``messages`` that survive this injector."""
        return messages

    def filter_batch(self, round_index: int, batch: RoundBatch) -> RoundBatch:
        """Batch (columnar) form of :meth:`filter_messages`.

        The built-in injectors override this with fast paths that never
        expand broadcast records.  Third-party subclasses that only
        override the per-edge :meth:`filter_messages` get a fallback:
        the batch is expanded to the per-edge list (send order), filtered,
        and re-wrapped.
        """
        if type(self).filter_messages is FaultInjector.filter_messages:
            return batch
        kept = self.filter_messages(round_index, batch.expand())
        return explicit_batch(kept, batch.neighbors_of, nodes=batch.nodes)


class CrashFaultInjector(FaultInjector):
    """Crash-stop failures on a fixed schedule.

    Parameters
    ----------
    schedule:
        Maps a 0-based round index to the node ids that crash at the start
        of that round.  A crashed node stops executing, sends nothing, and
        silently drops anything addressed to it.

    In-flight delivery semantics (pinned — tests rely on these):

    - A node crashing at the start of round ``r`` completed round
      ``r - 1`` normally: its round-``(r-1)`` transmissions were drained,
      filtered, and delivered *before* the crash took effect, so
      neighbors still receive them in their round-``r`` inboxes.
    - The victim's own round-``r`` inbox is discarded (its generator is
      closed before being advanced); from round ``r`` on it executes
      nothing and sends nothing.
    - From round ``r`` on, every message **to or from** the victim is
      dropped by :meth:`filter_messages` — a crashed node is silent in
      both directions, exactly the paper's crash-stop model.
    - ``schedule={0: [...]}`` is well-defined: the victim crashes before
      its first generator step, i.e. it never executes at all and
      contributes nothing to the run (as if absent from the deployment,
      except that neighbors still count it in their static degree).
    """

    kills_nodes = True

    def __init__(self, schedule: Mapping[int, Iterable[NodeId]]):
        self.schedule: Dict[int, Set[NodeId]] = {
            int(r): set(nodes) for r, nodes in schedule.items()
        }
        self.crashed: Set[NodeId] = set()

    def crashes_at(self, round_index: int) -> Set[NodeId]:
        newly = self.schedule.get(round_index, set())
        self.crashed |= newly
        return set(newly)

    def filter_messages(self, round_index, messages):
        if not self.crashed:
            return messages
        return [
            (src, dest, msg) for src, dest, msg in messages
            if src not in self.crashed and dest not in self.crashed
        ]

    def filter_batch(self, round_index, batch):
        # Silencing the crashed set needs no expansion: drop records
        # whose sender crashed, and mark the set as blocked destinations
        # so lazy fan-out skips them.
        batch.drop_sources(self.crashed)
        return batch


class MessageLossInjector(FaultInjector):
    """Drop each message independently with probability ``loss_rate``.

    Uses its own RNG stream so enabling loss does not perturb the protocol
    nodes' random draws: for a fixed seed, the protocol's coin flips —
    and hence its output — are identical with and without loss, and two
    runs with the same (protocol seed, injector seed) drop the *same*
    messages and report the same ``dropped`` count.

    Boundary cases are well-defined: ``loss_rate=0.0`` passes every
    message through without consuming injector randomness, and
    ``loss_rate=1.0`` drops every message — protocols written for this
    repository still terminate under total loss because their round
    loops are bounded and advance on empty inboxes (they degrade to
    their zero-information behavior rather than hang; see E17).

    On the event-driven backends this injector is applied per message at
    delivery time, so the drop *decisions* differ from the synchronous
    runner's batch filtering for the same injector seed; determinism per
    (backend, seed) still holds.
    """

    def __init__(self, loss_rate: float, seed: int | None = None):
        if not 0.0 <= loss_rate <= 1.0:
            raise ValueError(f"loss_rate must be in [0, 1], got {loss_rate}")
        self.loss_rate = float(loss_rate)
        self.rng = np.random.default_rng(seed)
        self.dropped = 0

    def filter_messages(self, round_index, messages):
        if self.loss_rate == 0.0 or not messages:
            return messages
        keep_mask = self.rng.random(len(messages)) >= self.loss_rate
        kept = [m for m, keep in zip(messages, keep_mask) if keep]
        self.dropped += len(messages) - len(kept)
        return kept

    def filter_batch(self, round_index, batch):
        """Vectorized loss: one Bernoulli draw per round over the
        expanded (src, dst) edge list.

        The RNG-stream contract is pinned to :meth:`filter_messages`:
        the expansion (broadcasts fanned out over the sender's stable
        neighbor order, blocked endpoints excluded — exactly what
        :meth:`RoundBatch.expand` yields) is the per-edge list
        :meth:`filter_messages` would see, the round consumes exactly
        one ``rng.random(len(edges))`` call, and an empty round consumes
        none.  Loss patterns per (seed, round) are therefore identical
        to filtering the expanded list per edge.
        """
        if self.loss_rate == 0.0 or batch.is_empty():
            return batch
        seqs = batch.target_sequences()
        total = sum(len(s) for s in seqs)
        if total == 0:
            return batch
        keep_mask = self.rng.random(total) >= self.loss_rate
        kept_total = int(keep_mask.sum())
        self.dropped += total - kept_total
        if kept_total == total:
            return batch
        records = []
        pos = 0
        for rec, dests in zip(batch.records, seqs):
            fanout = len(dests)
            if fanout == 0:
                continue
            mask = keep_mask[pos:pos + fanout]
            pos += fanout
            if mask.all():
                records.append(rec)
            else:
                survivors = tuple(w for w, keep in zip(dests, mask) if keep)
                if survivors:
                    records.append((MULTICAST, rec[1], survivors, rec[3]))
        return RoundBatch(records, batch.neighbors_of, batch.blocked,
                          nodes=batch.nodes, plan=batch.plan)
