"""Asynchronous execution of synchronous protocols (alpha-synchronizer).

Section 3 of the paper notes: "at the cost of higher message complexity,
every synchronous message passing algorithm can be turned into an
asynchronous algorithm with the same time complexity" (Awerbuch [2]).
This module realizes that transformation so the repository's protocols —
written for the synchronous model — can run over an event-driven network
with arbitrary per-message delays:

- a discrete-event transport: each message is delivered after a random
  delay drawn from a configurable distribution (:func:`exponential_delays`
  / :func:`uniform_delays`); a global event queue orders deliveries by
  timestamp;
- :class:`AlphaSynchronizer` — Awerbuch's alpha synchronizer: every node
  acknowledges each received payload message; a node whose round-r
  messages are all acknowledged is *safe* and announces safety to its
  neighbors; a node enters round r+1 once it and all neighbors are safe
  for round r.  The payload protocol is oblivious to all of this.

The synchronizer preserves the protocol's semantics exactly: the same
seed produces the same dominating set asynchronously as synchronously
(tested), while the event-time span reveals the latency dilation caused
by the delay distribution, and message counts reveal the 3x payload
overhead (payload + ack + safe).

The event-queue machinery shared with the tree-based
:class:`~repro.simulation.beta.BetaSynchronizer` lives in
:class:`EventDrivenTransport`; subclasses supply only the safety-
detection topology.  All accounting flows through one
:class:`~repro.engine.instrumentation.Instrumentation`, so
:meth:`AsyncStats.as_run_stats` yields figures directly comparable to
the synchronous runner's.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from repro.engine.instrumentation import Instrumentation
from repro.errors import SimulationError
from repro.simulation.faults import FaultInjector
from repro.simulation.messages import Message
from repro.simulation.network import SynchronousNetwork
from repro.simulation.transport import sort_inbox
from repro.types import NodeId, RunStats


@dataclass(order=True)
class _Event:
    """A timestamped delivery in the event queue."""

    time: float
    seq: int
    src: NodeId = field(compare=False)
    dest: NodeId = field(compare=False)
    kind: str = field(compare=False)          # "payload" | "ack" | control
    round_index: int = field(compare=False)
    #: A payload bundle: every Message one sender ships to one neighbor
    #: in one round.
    payload: object = field(compare=False, default=None)
    msg_id: int = field(compare=False, default=-1)


@dataclass
class AsyncStats:
    """Accounting snapshot for an asynchronous execution."""

    virtual_time: float = 0.0       # event time of the last delivery
    payload_messages: int = 0
    payload_bits: int = 0
    max_message_bits: int = 0
    control_messages: int = 0       # acks + safety announcements + pulses
    rounds: int = 0                 # synchronizer rounds completed

    @property
    def total_messages(self) -> int:
        return self.payload_messages + self.control_messages

    def as_run_stats(self) -> RunStats:
        """The execution's accounting as a :class:`RunStats` (payload
        traffic in the message/bit fields, synchronizer overhead in
        ``control_messages``) — the engine's common currency."""
        return RunStats(
            rounds=self.rounds,
            messages_sent=self.payload_messages,
            bits_sent=self.payload_bits,
            max_message_bits=self.max_message_bits,
            control_messages=self.control_messages,
            virtual_time=self.virtual_time,
        )


def exponential_delays(mean: float = 1.0) -> Callable[[np.random.Generator], float]:
    """Delay sampler: exponential with the given mean (memoryless links)."""
    if mean <= 0:
        raise SimulationError(f"mean delay must be positive, got {mean}")
    return lambda rng: float(rng.exponential(mean))


def uniform_delays(low: float = 0.5, high: float = 1.5
                   ) -> Callable[[np.random.Generator], float]:
    """Delay sampler: uniform in [low, high]."""
    if not 0 <= low <= high:
        raise SimulationError(f"need 0 <= low <= high, got [{low}, {high}]")
    return lambda rng: float(rng.uniform(low, high))


class EventDrivenTransport:
    """Shared machinery for running synchronous protocols asynchronously.

    Owns the event queue, the delayed-delivery primitive, generator
    startup, the advance/payload/ack cycle, and the accounting.
    Subclasses implement the safety-detection strategy:

    - :meth:`_node_safe` — called when a node's round-r payloads are all
      acknowledged straight from its advance (possibly with the node
      already finished);
    - :meth:`_acks_complete` — called when the last outstanding ack of a
      node arrives;
    - :meth:`_handle_control` — dispatch for event kinds beyond
      ``payload`` / ``ack``.

    Parameters
    ----------
    network:
        A fully-populated :class:`SynchronousNetwork` (reused for its
        topology, processes, size model, and per-node RNG streams).
    delay:
        Callable drawing one link delay from an RNG; defaults to
        exponential with mean 1.
    delay_seed:
        Seed for the delay randomness (separate stream from node
        randomness, so delays never perturb protocol coin flips).
    max_rounds:
        Safety valve on synchronizer rounds.
    injectors:
        Message-dropping :class:`~repro.simulation.faults.FaultInjector`
        instances.  Each *payload* is passed through every injector's
        ``filter_messages`` individually at delivery time; a dropped
        payload is never buffered into the receiver's inbox and never
        charged as payload traffic (matching the synchronous runner,
        which only accounts surviving messages).  The acknowledgment is
        sent either way: the synchronizer's control plane (acks, safety
        announcements, pulses) is assumed reliable — an unacknowledged
        payload would deadlock the transformation, not model loss.
        Injectors with ``kills_nodes = True`` (crash faults) are
        rejected here: silently removing a node would likewise deadlock
        its neighbors' safety detection.  Use the synchronous runner
        (``mode="message"``) for crash faults.
    """

    #: Subclass label used in error messages.
    NAME = "asynchronous"

    def __init__(self, network: SynchronousNetwork, *,
                 delay: Callable[[np.random.Generator], float] | None = None,
                 delay_seed: int | None = None,
                 max_rounds: int = 100_000,
                 injectors: Iterable[FaultInjector] = ()):
        self.network = network
        self.delay = delay if delay is not None else exponential_delays(1.0)
        self.delay_rng = np.random.default_rng(delay_seed)
        self.max_rounds = max_rounds
        self.injectors = list(injectors)
        for inj in self.injectors:
            if getattr(inj, "kills_nodes", False):
                raise SimulationError(
                    f"{type(inj).__name__} kills nodes, which the "
                    f"{self.NAME} transport does not support (a silent "
                    "crash deadlocks the synchronizer's ack-based safety "
                    "detection); expected one of ('message',) for crash "
                    "faults"
                )
        self.instr = Instrumentation(network.size_model)

        self._queue: List[_Event] = []
        self._seq = itertools.count()
        self._msg_counter = itertools.count()
        self.now = 0.0
        self.generators: Dict[NodeId, object] = {}
        self.round_of: Dict[NodeId, int] = {}
        # Payloads are buffered per (receiver, consuming round): a
        # message sent in the sender's round r is consumed by the
        # receiver's round r+1 generator step.  Neighbors may run one
        # round apart under a synchronizer, so a single shared buffer
        # would mix rounds.
        self.inbox_buffer: Dict[Tuple[NodeId, int],
                                List[Tuple[NodeId, Message]]] = {}
        self.pending_acks: Dict[NodeId, Set[int]] = {}
        self.finished: Set[NodeId] = set()

    @property
    def stats(self) -> AsyncStats:
        """Accounting snapshot (live during the run, final afterwards)."""
        s = self.instr.stats
        return AsyncStats(
            virtual_time=s.virtual_time,
            payload_messages=s.messages_sent,
            payload_bits=s.bits_sent,
            max_message_bits=s.max_message_bits,
            control_messages=s.control_messages,
            rounds=s.rounds,
        )

    # ------------------------------------------------------------------
    # Primitives shared by all synchronizers
    # ------------------------------------------------------------------
    def _push(self, src: NodeId, dest: NodeId, kind: str, round_index: int,
              payload: Optional[List[Message]] = None,
              msg_id: int = -1) -> None:
        """Schedule a delivery after a random link delay."""
        heapq.heappush(self._queue, _Event(
            time=self.now + self.delay(self.delay_rng), seq=next(self._seq),
            src=src, dest=dest, kind=kind, round_index=round_index,
            payload=payload, msg_id=msg_id))

    def _push_control(self, src: NodeId, dest: NodeId, kind: str,
                      round_index: int) -> None:
        """Schedule (and account) one control message."""
        self.instr.control()
        self._push(src, dest, kind, round_index)

    def _advance(self, v: NodeId) -> None:
        """Run node v's generator for one synchronous round and ship its
        outgoing messages with the current round tag."""
        net = self.network
        proc = net.processes[v]
        if v in self.finished:
            # A finished node re-entered by a release wave (beta's pulse)
            # has nothing to execute: it is immediately safe.
            self.pending_acks[v] = set()
            self._node_safe(v)
            return
        proc.ctx.round_index = self.round_of[v]
        gen = self.generators[v]
        inbox = self.inbox_buffer.pop((v, self.round_of[v]), [])
        if len(inbox) > 1:
            # Delivery-order contract: inboxes are sorted by sender id
            # on every backend (arrival order here is delay order).
            inbox = sort_inbox(inbox)
        try:
            if self.round_of[v] == 0:
                next(gen)
            else:
                gen.send(inbox)
        except StopIteration:
            proc.finished = True
            self.finished.add(v)
        self.pending_acks[v] = set()
        batch = net.drain_batch()
        # Bundle the round's payloads per neighbor: one event, one delay
        # draw, one msg-id, one ack per (sender-round, dest).  Broadcast
        # records fan out here over the cached stable neighbor order.
        # Payload accounting happens at delivery (see run()), so a
        # message dropped by an injector is never charged — the same
        # only-survivors convention as the synchronous runner.
        bundles: Dict[NodeId, List[Message]] = {}
        for rec in batch.records:
            if rec[1] != v:  # pragma: no cover — defensive
                raise SimulationError("outbox contamination")
            msg = rec[3]
            for dest in batch.targets_of(rec):
                bundle = bundles.get(dest)
                if bundle is None:
                    bundles[dest] = [msg]
                else:
                    bundle.append(msg)
        for dest, msgs in bundles.items():
            mid = next(self._msg_counter)
            self.pending_acks[v].add(mid)
            self._push(v, dest, "payload", self.round_of[v],
                       payload=msgs, msg_id=mid)
        if not self.pending_acks[v]:
            self._node_safe(v)

    def _enter_round(self, v: NodeId, r: int) -> None:
        """Release node v into round r (respecting the safety valve)."""
        if r > self.max_rounds:
            raise SimulationError(
                f"{self.NAME} run exceeded {self.max_rounds} rounds"
            )
        self.round_of[v] = r
        self.instr.note_round(r)
        self._advance(v)

    # ------------------------------------------------------------------
    # Safety-detection hooks (subclass responsibility)
    # ------------------------------------------------------------------
    def _node_safe(self, v: NodeId) -> None:
        raise NotImplementedError

    def _acks_complete(self, v: NodeId) -> None:
        raise NotImplementedError

    def _handle_control(self, ev: _Event) -> None:
        raise NotImplementedError

    def _start(self) -> None:
        """Hook run after generators are primed, before the event loop."""

    # ------------------------------------------------------------------
    def run(self) -> AsyncStats:
        """Execute all node processes to completion; returns accounting."""
        net = self.network
        for v, proc in net.processes.items():
            proc.finished = False
            proc.crashed = False
            ctx = net.make_context(v)
            proc.ctx = ctx
            gen = proc.run(ctx)
            if not hasattr(gen, "send"):
                raise SimulationError(
                    f"{type(proc).__name__}.run must be a generator"
                )
            self.generators[v] = gen
            self.round_of[v] = 0
        self._start()
        for v in net.processes:
            self._advance(v)

        while self._queue:
            ev = heapq.heappop(self._queue)
            self.now = ev.time
            self.instr.advance_time(ev.time)
            if ev.kind == "payload":
                buffer = None
                for msg in ev.payload:
                    # Fault injectors act on each payload at delivery
                    # time — per message even inside a bundle, so drop
                    # decisions and `dropped` counts are per payload.
                    surviving = [(ev.src, ev.dest, msg)]
                    for inj in self.injectors:
                        if not surviving:
                            break
                        surviving = inj.filter_messages(ev.round_index,
                                                        surviving)
                    if surviving:
                        # Buffer for the receiver's round r+1.
                        self.instr.async_payload(msg)
                        if buffer is None:
                            buffer = self.inbox_buffer.setdefault(
                                (ev.dest, ev.round_index + 1), [])
                        buffer.append((ev.src, msg))
                # One ack per event (per bundle), even if every payload
                # in it was dropped: the synchronizer's control plane is
                # reliable (see class docstring), only payload content
                # is lost.
                self.instr.control()
                self._push(ev.dest, ev.src, "ack", ev.round_index,
                           msg_id=ev.msg_id)
            elif ev.kind == "ack":
                pending = self.pending_acks.get(ev.dest)
                if pending is not None and ev.msg_id in pending:
                    pending.discard(ev.msg_id)
                    if not pending:
                        self._acks_complete(ev.dest)
            else:
                self._handle_control(ev)

        if len(self.finished) != len(net.processes):
            stuck = set(net.processes) - self.finished
            raise SimulationError(
                f"{self.NAME} run deadlocked with {len(stuck)} node(s) "
                f"unfinished, e.g. {next(iter(stuck))!r}"
            )
        return self.stats


class AlphaSynchronizer(EventDrivenTransport):
    """Awerbuch's alpha synchronizer: per-neighbor safety announcements.

    Every node announces safety to all neighbors once its round-r
    payloads are acknowledged; a node enters round r+1 once it and all
    neighbors are safe for round r.  Cheap latency, ``O(|E|)`` control
    messages per round.
    """

    NAME = "asynchronous"

    def __init__(self, network: SynchronousNetwork, *,
                 delay: Callable[[np.random.Generator], float] | None = None,
                 delay_seed: int | None = None,
                 max_rounds: int = 100_000,
                 injectors: Iterable[FaultInjector] = ()):
        super().__init__(network, delay=delay, delay_seed=delay_seed,
                         max_rounds=max_rounds, injectors=injectors)
        #: neighbors' highest announced safe round
        self.safe_round: Dict[NodeId, Dict[NodeId, int]] = {}
        #: Safety round announced by a node that has finished its protocol
        #: and had its last messages acknowledged: safe for every future
        #: round, so neighbors never wait on it again.
        self.safe_forever = max_rounds + 1

    def _node_safe(self, v: NodeId) -> None:
        """v is safe for its current round (or forever, once its
        generator has finished and its last messages are acked)."""
        r_announce = self.safe_forever if v in self.finished else self.round_of[v]
        for w in self.network.sorted_neighbors(v):
            self._push_control(v, w, "safe", r_announce)
        # Record own safety so _maybe_advance can treat v uniformly.
        self.safe_round.setdefault(v, {})[v] = r_announce
        self._maybe_advance(v)

    def _acks_complete(self, v: NodeId) -> None:
        if v not in self.finished:
            self._node_safe(v)

    def _maybe_advance(self, v: NodeId) -> None:
        """Enter round r+1 once v and all neighbors are safe for r."""
        if v in self.finished:
            return
        r = self.round_of[v]
        known = self.safe_round.get(v, {})
        if known.get(v, -1) < r:
            return
        for w in self.network.sorted_neighbors(v):
            if known.get(w, -1) < r:
                return
        self._enter_round(v, r + 1)

    def _handle_control(self, ev: _Event) -> None:
        if ev.kind != "safe":  # pragma: no cover — exhaustive kinds
            raise SimulationError(f"unknown event kind {ev.kind!r}")
        self.safe_round.setdefault(ev.dest, {})[ev.src] = max(
            self.safe_round.get(ev.dest, {}).get(ev.src, -1),
            ev.round_index)
        self._maybe_advance(ev.dest)


def run_protocol_async(network: SynchronousNetwork, *,
                       delay: Callable[[np.random.Generator], float] | None = None,
                       delay_seed: int | None = None,
                       max_rounds: int = 100_000,
                       injectors: Iterable[FaultInjector] = ()) -> AsyncStats:
    """Convenience wrapper: run ``network``'s processes asynchronously
    under an alpha synchronizer.  Node state afterwards is identical to a
    synchronous :func:`repro.simulation.runner.run_protocol` run with the
    same network seed."""
    sync = AlphaSynchronizer(network, delay=delay, delay_seed=delay_seed,
                             max_rounds=max_rounds, injectors=injectors)
    return sync.run()
