"""Churn events and the streams that generate them.

The paper's Section 1 names three drivers of fault-tolerance — node
failures ("battery driven sensor nodes may stop working"), unreliable
links, and mobility.  This module turns each driver into a *stream* of
discrete events consumed one epoch at a time by the
:class:`~repro.dynamics.loop.MaintenanceLoop`:

- :class:`ScheduledCrashes` — crash-stop failures on an explicit script;
- :class:`RandomCrashes` / :class:`PoissonCrashes` — random crash
  processes, optionally targeting the current dominators (the
  load-bearing nodes that fail first in practice);
- :class:`PoissonJoins` — new nodes appearing at random positions;
- :class:`BatteryDecay` — per-epoch energy drain (dominators drain
  faster); a node whose battery empties crash-stops;
- :class:`MobilityRewiring` — edge rewiring driven by the existing
  :mod:`repro.graphs.mobility` models.

Streams are deterministic per seed and own their RNG, so churn never
perturbs repair-policy or protocol randomness.  An event itself is a
plain frozen record; :class:`~repro.dynamics.state.NetworkState`
interprets it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Tuple, TYPE_CHECKING

import numpy as np

from repro.errors import GraphError
from repro.graphs.mobility import MobilityModel
from repro.types import NodeId

if TYPE_CHECKING:  # pragma: no cover
    from repro.dynamics.state import NetworkState

CRASH_TARGETS = ("any", "dominators")


# ----------------------------------------------------------------------
# Event records
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Event:
    """Base class for churn events (plain records; no behavior)."""


@dataclass(frozen=True)
class CrashEvent(Event):
    """Crash-stop failure of one node at an epoch boundary."""

    node: NodeId


@dataclass(frozen=True)
class JoinEvent(Event):
    """A new node appears at ``pos`` with a full battery."""

    node: NodeId
    pos: Tuple[float, float]


@dataclass(frozen=True)
class DrainEvent(Event):
    """Battery drain; the node crash-stops if its battery empties."""

    node: NodeId
    amount: float


@dataclass(frozen=True)
class MoveEvent(Event):
    """New positions for a set of nodes (mobility-driven rewiring)."""

    positions: Mapping[NodeId, Tuple[float, float]] = field(hash=False)


# ----------------------------------------------------------------------
# Event streams
# ----------------------------------------------------------------------

class EventStream:
    """Produces the events of one churn driver, one epoch at a time.

    ``events_at`` may inspect the *current* state (e.g. who the
    dominators are right now) but must not mutate it — the
    :class:`~repro.dynamics.loop.MaintenanceLoop` applies the returned
    events in order.
    """

    def events_at(self, epoch: int, state: "NetworkState") -> List[Event]:
        raise NotImplementedError


class ScheduledCrashes(EventStream):
    """Crash-stop failures on an explicit epoch script.

    Parameters
    ----------
    schedule:
        Maps a 0-based epoch index to the node ids that crash at the
        start of that epoch.  Unknown or already-dead nodes are ignored
        (the schedule may outlive its victims under combined churn).
    """

    def __init__(self, schedule: Mapping[int, Iterable[NodeId]]):
        self.schedule: Dict[int, List[NodeId]] = {
            int(e): list(nodes) for e, nodes in schedule.items()
        }

    def events_at(self, epoch, state):
        return [CrashEvent(v) for v in self.schedule.get(epoch, [])
                if v in state.alive]


class RandomCrashes(EventStream):
    """Kill a fixed expected number of nodes per epoch, at random.

    Parameters
    ----------
    per_epoch:
        Expected victims per epoch; fractional rates are honored via a
        deterministic accumulator (e.g. ``0.5`` kills one node every
        other epoch).
    target:
        ``"any"`` — victims drawn uniformly from the live nodes;
        ``"dominators"`` — drawn from the *current* dominating set (the
        cluster heads doing the routing/aggregation work, which burn
        energy fastest; this is the scripted scenario of E22).
    seed:
        Stream-private RNG seed.
    start / stop:
        Epoch window in which the stream is active (``stop`` exclusive;
        ``None`` = forever).
    """

    def __init__(self, per_epoch: float, *, target: str = "any",
                 seed: int | None = None, start: int = 0,
                 stop: int | None = None):
        if per_epoch < 0:
            raise GraphError(
                f"per_epoch must be non-negative, got {per_epoch}")
        if target not in CRASH_TARGETS:
            raise GraphError(
                f"unknown crash target {target!r}; expected one of "
                f"{CRASH_TARGETS}"
            )
        self.per_epoch = float(per_epoch)
        self.target = target
        self.rng = np.random.default_rng(seed)
        self.start = int(start)
        self.stop = stop
        self._accumulated = 0.0

    def _count_at(self, epoch: int) -> int:
        """Victims this epoch (deterministic fractional accumulator)."""
        self._accumulated += self.per_epoch
        count = int(self._accumulated)
        self._accumulated -= count
        return count

    def events_at(self, epoch, state):
        if epoch < self.start or (self.stop is not None and epoch >= self.stop):
            return []
        count = self._count_at(epoch)
        pool = sorted(state.members if self.target == "dominators"
                      else state.alive)
        if count <= 0 or not pool:
            return []
        count = min(count, len(pool))
        idx = self.rng.choice(len(pool), size=count, replace=False)
        return [CrashEvent(pool[i]) for i in sorted(idx.tolist())]


class PoissonCrashes(RandomCrashes):
    """Memoryless crash process: ``Poisson(rate)`` victims per epoch."""

    def _count_at(self, epoch: int) -> int:
        return int(self.rng.poisson(self.per_epoch))


class PoissonJoins(EventStream):
    """New nodes arrive as a Poisson process, placed uniformly at random.

    Parameters
    ----------
    rate:
        Expected joins per epoch.
    side:
        Deployment-area side; new positions are uniform in
        ``[0, side]^2``.
    seed:
        Stream-private RNG seed.
    """

    def __init__(self, rate: float, side: float, *, seed: int | None = None):
        if rate < 0:
            raise GraphError(f"rate must be non-negative, got {rate}")
        if side <= 0:
            raise GraphError(f"area side must be positive, got {side}")
        self.rate = float(rate)
        self.side = float(side)
        self.rng = np.random.default_rng(seed)

    def events_at(self, epoch, state):
        count = int(self.rng.poisson(self.rate))
        events: List[Event] = []
        next_id = state.next_id()
        for i in range(count):
            x, y = self.rng.uniform(0.0, self.side, size=2)
            events.append(JoinEvent(next_id + i, (float(x), float(y))))
        return events


class BatteryDecay(EventStream):
    """Per-epoch energy drain; empty batteries crash-stop their node.

    Dominators do the cluster-head work (routing, aggregation,
    coordination), so they drain faster — the mechanism behind the
    paper's "battery driven sensor nodes may stop working" and the
    reason a *static* clustering concentrates failures exactly where
    they hurt.

    Parameters
    ----------
    base_drain:
        Battery drained per epoch by every live node.
    member_drain:
        *Additional* drain per epoch for current dominators.
    jitter:
        Uniform multiplicative noise in ``[1 - jitter, 1 + jitter]`` on
        each node's drain (hardware variance).
    seed:
        Stream-private RNG seed (used only when ``jitter > 0``).
    """

    def __init__(self, base_drain: float, member_drain: float = 0.0, *,
                 jitter: float = 0.0, seed: int | None = None):
        if base_drain < 0 or member_drain < 0:
            raise GraphError("drain amounts must be non-negative")
        if not 0.0 <= jitter < 1.0:
            raise GraphError(f"jitter must be in [0, 1), got {jitter}")
        self.base_drain = float(base_drain)
        self.member_drain = float(member_drain)
        self.jitter = float(jitter)
        self.rng = np.random.default_rng(seed)

    def events_at(self, epoch, state):
        events: List[Event] = []
        for v in sorted(state.alive):
            drain = self.base_drain
            if v in state.members:
                drain += self.member_drain
            if self.jitter:
                drain *= float(self.rng.uniform(1.0 - self.jitter,
                                                1.0 + self.jitter))
            if drain > 0:
                events.append(DrainEvent(v, drain))
        return events


class MobilityRewiring(EventStream):
    """Move every live node one mobility-model step per epoch.

    Bridges the existing :mod:`repro.graphs.mobility` models into the
    maintenance loop: each epoch, the live nodes' positions advance one
    ``model.step`` and the network's edges are rebuilt from the new
    geometry (the "mobility" driver of Section 1).

    Parameters
    ----------
    model:
        Any :class:`~repro.graphs.mobility.MobilityModel` (holds its own
        RNG, so motion is seed-deterministic).
    side:
        Deployment-area side handed to the model.
    every:
        Move only on epochs divisible by ``every`` (slow mobility).

    Notes
    -----
    Models that keep per-node state indexed by array position (e.g.
    :class:`~repro.graphs.mobility.RandomWaypoint` waypoints) reset that
    state when the live-node count changes; combine with join/crash
    streams accordingly.
    """

    def __init__(self, model: MobilityModel, side: float, *, every: int = 1):
        if side <= 0:
            raise GraphError(f"area side must be positive, got {side}")
        if every < 1:
            raise GraphError(f"every must be at least 1, got {every}")
        self.model = model
        self.side = float(side)
        self.every = int(every)

    def events_at(self, epoch, state):
        if epoch % self.every != 0:
            return []
        ids = sorted(state.alive)
        if not ids:
            return []
        points = np.array([state.positions[v] for v in ids], dtype=float)
        moved = self.model.step(points, self.side)
        return [MoveEvent({v: (float(x), float(y))
                           for v, (x, y) in zip(ids, moved)})]
