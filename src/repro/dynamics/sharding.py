"""Damage decomposition and shard assignment for the maintenance loop.

The paper's locality argument (Algorithm 3 repairs in the damage's
2-hop ball) is what makes maintenance *parallelizable*: two deficient
nodes at graph distance >= 3 have disjoint helper sets, and a promotion
in one ball can never change coverage in the other.  This module turns
that observation into a deterministic execution plan:

1. :func:`damage_units` groups the deficient nodes into **damage
   units** — connected groups merged whenever two deficient nodes share
   a closed-neighborhood node (i.e. lie within 2 hops).  Overlapping
   2-hop balls always land in one unit, which therefore repairs as one
   sequential protocol instance; distinct units are independent by the
   locality argument (the conflict-merge rule).
2. :func:`assign_shards` buckets units onto a ``shards x shards``
   uniform grid over the deployment area (unit disk graphs) or by
   anchor rank (graphs without geometry).  Shards are the dispatch
   granularity for the worker pool; correctness never depends on the
   grid because merging already happened at the unit level.

Each unit carries a canonical ``rank`` (its position in the
anchor-sorted unit list), from which the loop derives the unit's
private repair RNG — so membership outcomes are bit-identical for every
``(shards, workers)`` configuration, including the sequential one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Tuple

from repro.errors import ShardingError
from repro.types import NodeId, stable_sorted

ShardKey = Tuple[int, int]


@dataclass(frozen=True)
class DamageUnit:
    """One independently repairable group of deficient nodes."""

    #: Canonical representative: the smallest deficient node in the unit.
    anchor: NodeId
    #: Deficient node -> shortfall, restricted to this unit.
    deficits: Dict[NodeId, int]
    #: Position in the epoch's anchor-sorted unit list (RNG derivation).
    rank: int


def damage_units(shortfalls: Dict[NodeId, int],
                 neighbors_of: Callable[[NodeId], Iterable[NodeId]]
                 ) -> List[DamageUnit]:
    """Partition deficient nodes into independent damage units.

    Two deficient nodes join the same unit iff their closed
    neighborhoods intersect (graph distance <= 2) — transitively, so a
    chain of overlapping 2-hop balls merges into one unit.  Runs in
    O(sum of deficient-node degrees) via union-find keyed on witness
    nodes.
    """
    if not shortfalls:
        return []
    parent: Dict[NodeId, NodeId] = {u: u for u in shortfalls}

    def find(u: NodeId) -> NodeId:
        while parent[u] != u:
            parent[u] = parent[parent[u]]  # path halving
            u = parent[u]
        return u

    def union(u: NodeId, v: NodeId) -> None:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[rv] = ru

    witness: Dict[NodeId, NodeId] = {}
    for u in stable_sorted(shortfalls):
        for w in [u, *neighbors_of(u)]:
            owner = witness.get(w)
            if owner is None:
                witness[w] = u
            else:
                union(owner, u)

    groups: Dict[NodeId, List[NodeId]] = {}
    for u in shortfalls:
        groups.setdefault(find(u), []).append(u)
    units = []
    for members in groups.values():
        ordered = stable_sorted(members)
        units.append((ordered[0], ordered))
    try:
        units.sort(key=lambda t: t[0])
    except TypeError:
        units.sort(key=lambda t: repr(t[0]))
    return [
        DamageUnit(anchor=anchor,
                   deficits={v: shortfalls[v] for v in ordered},
                   rank=rank)
        for rank, (anchor, ordered) in enumerate(units)
    ]


def assign_shards(units: List[DamageUnit], shards: int, *,
                  position_of: Callable[[NodeId],
                                        Tuple[float, float]] | None = None,
                  side: float = 1.0) -> Dict[ShardKey, List[DamageUnit]]:
    """Bucket damage units onto a ``shards x shards`` grid.

    Geometric deployments shard by the anchor's grid cell over
    ``[0, side]^2`` (out-of-area positions clamp to the border cells);
    without geometry, units shard by anchor rank.  The grouping only
    controls dispatch granularity — units were already merged for
    correctness by :func:`damage_units`.
    """
    if shards < 1:
        raise ShardingError(f"shards must be at least 1, got {shards}")
    cell = max(side, 1e-12) / shards
    plan: Dict[ShardKey, List[DamageUnit]] = {}
    for unit in units:
        if position_of is not None:
            x, y = position_of(unit.anchor)
            key = (min(max(int(x / cell), 0), shards - 1),
                   min(max(int(y / cell), 0), shards - 1))
        else:
            key = (unit.rank % shards, 0)
        plan.setdefault(key, []).append(unit)
    return plan
