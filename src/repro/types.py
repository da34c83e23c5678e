"""Shared type aliases and small dataclasses used across the package.

The library identifies nodes by arbitrary hashable ids (networkx
convention), and most algorithm entry points accept either a
``networkx.Graph`` or a :class:`repro.graphs.udg.UnitDiskGraph`.
"""

from __future__ import annotations

from collections.abc import Set as _SetABC
from dataclasses import dataclass, field
from typing import AbstractSet, Dict, Hashable, Iterable, List, Mapping, \
    Sequence

import numpy as np

#: Node identifier. Any hashable (networkx convention); generators produce ints.
NodeId = Hashable

#: A per-node coverage requirement map (the paper's ``k_i`` parameters).
CoverageMap = Mapping[NodeId, int]


def stable_sorted(items: Iterable) -> List:
    """Sort node ids by natural order, falling back to ``repr`` for mixed
    types.

    The library's one node order: per-node RNG streams (and vecrng
    lanes) are spawned in it, the round runner advances nodes in it,
    and artifact neighbor tuples list neighbors in it, so every backend
    consumes node randomness identically.
    """
    items = list(items)
    try:
        return sorted(items)
    except TypeError:
        return sorted(items, key=repr)


class MemberSet(_SetABC):
    """A read-only set of node ids held as a sorted index array.

    ``indices`` (sorted, unique int64) index ``nodes``, the node table:
    ``range(n)`` when the ids are the indices themselves, else any
    sequence of ids that nobody edits afterwards.  The kernel fast paths
    return their results in this form, so a result stays one array from
    the kernel that decided it to the verifier that checks it
    (:func:`repro.engine.kernels.member_mask` reads the array directly).

    Iteration yields the ids themselves (plain Python objects, never
    numpy scalars) in index order.  The hash set behind ``in`` is built
    on the first membership test.  Set algebra returns plain ``set``
    objects; two member sets over the same table compare by array.
    Like ``set`` it is unhashable.  Copy it (``set(ms)``) to mutate.
    """

    __slots__ = ("_indices", "_nodes", "_lookup")

    def __init__(self, indices, nodes: Sequence[NodeId]):
        indices = np.asarray(indices, dtype=np.int64)
        indices.flags.writeable = False
        self._indices = indices
        self._nodes = nodes
        self._lookup = None

    @classmethod
    def from_mask(cls, mask: np.ndarray, nodes: Sequence[NodeId]
                  ) -> "MemberSet":
        """The members of a boolean row aligned with ``nodes``."""
        return cls(np.flatnonzero(mask), nodes)

    @property
    def indices(self) -> np.ndarray:
        """The sorted member indices into :attr:`nodes` (read-only)."""
        return self._indices

    @property
    def nodes(self) -> Sequence[NodeId]:
        """The node table the indices index."""
        return self._nodes

    @property
    def identity(self) -> bool:
        """Whether the ids are the indices (the table is ``range(n)``)."""
        nodes = self._nodes
        return type(nodes) is range and nodes.start == 0 and nodes.step == 1

    def _ids(self) -> list:
        idx = self._indices.tolist()
        if self.identity:
            return idx
        if isinstance(self._nodes, np.ndarray):
            return self._nodes[self._indices].tolist()
        return list(map(self._nodes.__getitem__, idx))

    def __len__(self) -> int:
        return self._indices.size

    def __iter__(self):
        return iter(self._ids())

    def __contains__(self, node) -> bool:
        if self._lookup is None:
            self._lookup = frozenset(self._ids())
        return node in self._lookup

    @classmethod
    def _from_iterable(cls, it) -> set:
        # The Set mixins build every algebra result through here.
        return set(it)

    def _same_table(self, other: "MemberSet") -> bool:
        return (self._nodes is other._nodes
                or (self.identity and other.identity))

    def __eq__(self, other):
        if isinstance(other, MemberSet) and self._same_table(other):
            return np.array_equal(self._indices, other._indices)
        return super().__eq__(other)

    __hash__ = None

    def __reduce__(self):
        return (MemberSet, (self._indices, self._nodes))

    def __repr__(self) -> str:
        return f"MemberSet({self._ids()!r})"


@dataclass(frozen=True)
class RoundStats:
    """Per-round accounting emitted by the synchronous simulator."""

    round_index: int
    messages_sent: int
    bits_sent: int
    max_message_bits: int
    active_nodes: int


@dataclass
class RunStats:
    """Aggregate accounting for one full protocol execution.

    Attributes
    ----------
    rounds:
        Number of synchronous communication rounds executed.
    messages_sent:
        Total number of point-to-point messages delivered.
    bits_sent:
        Total message payload volume in bits (per the paper's
        ``O(log n)``-bit message model; see
        :mod:`repro.simulation.messages`).
    max_message_bits:
        Size of the largest single message, in bits.  The paper's claims
        require this to be ``O(log n)``.
    control_messages:
        Synchronizer overhead (acks, safety announcements, pulses) when
        the run executed on an asynchronous transport; 0 for synchronous
        and direct executions.  ``messages_sent`` counts payload traffic
        only, so the two are directly comparable across backends.
    virtual_time:
        Event time of the last delivery on an asynchronous transport
        (0.0 for synchronous and direct executions).
    per_round:
        Optional per-round breakdown (populated when tracing is enabled).
    """

    rounds: int = 0
    messages_sent: int = 0
    bits_sent: int = 0
    max_message_bits: int = 0
    control_messages: int = 0
    virtual_time: float = 0.0
    per_round: list[RoundStats] = field(default_factory=list)

    def absorb(self, other: "RunStats") -> None:
        """Accumulate another run's accounting into this one (sequential
        composition of two protocol phases)."""
        offset = self.rounds
        self.rounds += other.rounds
        self.messages_sent += other.messages_sent
        self.bits_sent += other.bits_sent
        self.max_message_bits = max(self.max_message_bits, other.max_message_bits)
        self.control_messages += other.control_messages
        self.virtual_time += other.virtual_time
        for rs in other.per_round:
            self.per_round.append(
                RoundStats(
                    round_index=offset + rs.round_index,
                    messages_sent=rs.messages_sent,
                    bits_sent=rs.bits_sent,
                    max_message_bits=rs.max_message_bits,
                    active_nodes=rs.active_nodes,
                )
            )


@dataclass
class FractionalSolution:
    """Output of Algorithm 1: a primal/dual pair for the LP ``(PP)``/``(DP)``.

    ``x`` is the fractional dominating-set vector.  ``y`` and ``z`` are the
    dual variables; ``alpha`` and ``beta`` are the bookkeeping shares the
    algorithm maintains for the dual-fitting analysis (Lemmas 4.2–4.4).
    ``alpha[i][j]`` is the share node ``j``'s x-increases contributed toward
    covering node ``i`` (the paper's ``alpha_{j,i}`` stored at node ``i``).
    """

    x: Dict[NodeId, float]
    y: Dict[NodeId, float]
    z: Dict[NodeId, float]
    alpha: Dict[NodeId, Dict[NodeId, float]]
    beta: Dict[NodeId, Dict[NodeId, float]]
    t: int
    stats: RunStats = field(default_factory=RunStats)

    @property
    def objective(self) -> float:
        """Primal objective value ``sum_i x_i``."""
        return float(sum(self.x.values()))

    def dual_objective(self, coverage: CoverageMap) -> float:
        """Dual objective ``sum_i (k_i * y_i - z_i)`` for given ``k_i``."""
        return float(
            sum(coverage[i] * self.y[i] - self.z[i] for i in self.y)
        )


@dataclass
class DominatingSet:
    """An integral solution: the selected dominator set plus accounting.

    ``members`` is read-only by contract: the kernel fast paths return a
    :class:`MemberSet`, other paths a plain ``set``.  Copy it before
    mutating.
    """

    members: AbstractSet[NodeId]
    stats: RunStats = field(default_factory=RunStats)
    #: Free-form diagnostic details (per-algorithm; e.g. part1/part2 sizes).
    details: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, node: NodeId) -> bool:
        return node in self.members

    def __iter__(self):
        return iter(self.members)


def uniform_coverage(nodes: Sequence[NodeId], k: int) -> Dict[NodeId, int]:
    """Build the uniform requirement map ``k_i = k`` for all nodes."""
    if k < 0:
        raise ValueError(f"coverage requirement must be non-negative, got {k}")
    return {v: k for v in nodes}
