"""Deterministic per-node random number streams.

Randomized distributed algorithms need independent randomness at each node,
yet experiments must be reproducible from a single seed.  We derive one
``numpy.random.Generator`` per node from a root ``SeedSequence`` so that:

- the same ``(seed, node set)`` always yields the same per-node streams;
- streams are statistically independent across nodes;
- adding tracing or changing iteration order cannot perturb the draws of
  unrelated nodes (each node owns its stream).
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Dict, Iterable, Sequence

import numpy as np

from repro.types import NodeId, stable_sorted


def spawn_node_rngs(nodes: Iterable[NodeId], seed: int | None) -> Dict[NodeId, np.random.Generator]:
    """Create one independent, deterministic RNG per node.

    Nodes are sorted (by repr when not mutually orderable) so the mapping is
    stable regardless of input order.
    """
    node_list = stable_sorted(nodes)
    root = np.random.SeedSequence(seed)
    children = root.spawn(len(node_list))
    return {v: np.random.default_rng(s) for v, s in zip(node_list, children)}


class LazyNodeRngs(Mapping):
    """Mapping view of :func:`spawn_node_rngs` that materializes lazily.

    This is the per-node generator loop's source of node randomness
    (``SynchronousNetwork.rngs``).  Spawning a ``Generator`` per node is
    O(n) of SeedSequence hashing, so the mapping derives the child
    ``SeedSequence``s on first access and a node's ``Generator`` on
    first lookup; because a stream depends only on its own child
    sequence, access order cannot perturb any node's draws, and every
    materialized stream is bit-identical to the eager
    ``spawn_node_rngs`` one.

    The columnar stepping plane never looks a stream up: it draws the
    same streams from its own lane-space pool
    (:func:`repro.simulation.vecrng.node_stream_pool`), which it may
    seed only while the streams are :attr:`fresh`.  A run that draws
    hands that pool over (:meth:`adopt`), and later lookups continue
    every node's stream from where the run left it.
    """

    __slots__ = ("_seed", "_nodes", "_children", "_rngs", "_pool")

    def __init__(self, nodes: Iterable[NodeId], seed: int | None):
        self._nodes = stable_sorted(nodes)
        self._seed = seed
        self._children: Dict[NodeId, np.random.SeedSequence] | None = None
        self._rngs: Dict[NodeId, np.random.Generator] = {}
        self._pool = None

    def __getitem__(self, node: NodeId) -> np.random.Generator:
        rng = self._rngs.get(node)
        if rng is None:
            if self._pool is not None:
                rng = self._pool.generator(self._pool.lane[node])
            else:
                if self._children is None:
                    root = np.random.SeedSequence(self._seed)
                    self._children = dict(zip(self._nodes,
                                              root.spawn(len(self._nodes))))
                rng = np.random.default_rng(self._children[node])
            self._rngs[node] = rng
        return rng

    @property
    def fresh(self) -> bool:
        """Whether every stream is still at its start: no generator has
        been handed out and no pool taken over."""
        return not self._rngs and self._pool is None

    def adopt(self, pool) -> None:
        """Continue every stream from ``pool``, a one-graph vecrng pool
        over these nodes and this seed that a run draws from; later
        lookups return ``pool.generator(lane)``."""
        if not self.fresh:
            raise ValueError("only fresh streams can adopt a pool")
        self._pool = pool

    def __iter__(self):
        return iter(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)


def spawn_named_rngs(names: Sequence[str], seed: int | None) -> Dict[str, np.random.Generator]:
    """Create independent RNG streams for named protocol components.

    Used, e.g., to give a fault injector a stream separate from node
    randomness so enabling faults does not change nodes' coin flips.
    """
    root = np.random.SeedSequence(seed)
    children = root.spawn(len(names) + 1)  # +1 reserves a child for node streams
    return {name: np.random.default_rng(s) for name, s in zip(names, children[1:])}

