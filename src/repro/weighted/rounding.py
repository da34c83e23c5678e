"""Weighted randomized rounding.

Algorithm 2 is objective-agnostic: ``E[cost] = ln(Delta+1) * sum w_i x_i``
follows from linearity exactly as in Theorem 4.6's ``E[X]`` bound, so the
unweighted scheme applies verbatim.  The only weight-aware refinement is
the REQ policy: a deficient node patches itself with the *cheapest*
non-member closed neighbors instead of random ones.
"""

from __future__ import annotations

from typing import List, Mapping

from repro.core.lp import CoveringLP
from repro.core.rounding import randomized_rounding, rounding_probability
from repro.errors import GraphError, InfeasibleInstanceError
from repro.graphs.properties import as_nx
from repro.simulation.rng import spawn_node_rngs
from repro.types import CoverageMap, DominatingSet, NodeId, stable_sorted


def weighted_randomized_rounding(graph, x: Mapping[NodeId, float],
                                 weights: Mapping[NodeId, float],
                                 k: int | None = 1, *,
                                 coverage: CoverageMap | None = None,
                                 policy: str = "cheapest",
                                 seed: int | None = None) -> DominatingSet:
    """Round a fractional weighted solution to an integral k-fold
    dominating set (closed convention), preferring cheap patch nodes.

    Parameters
    ----------
    graph / x / k / coverage / seed:
        As in :func:`repro.core.rounding.randomized_rounding`.
    weights:
        Positive node costs (used by the ``"cheapest"`` policy and
        reported in ``details["cost"]``).
    policy:
        ``"cheapest"`` (default — deficient nodes recruit their cheapest
        non-member closed neighbors) or any unweighted policy name, which
        is forwarded to the core implementation.
    """
    g = as_nx(graph)
    if any(weights.get(v, 0) <= 0 for v in g.nodes):
        raise GraphError("node weights must be positive for every node")

    if policy != "cheapest":
        ds = randomized_rounding(g, x, k, coverage=coverage, policy=policy,
                                 seed=seed)
        ds.details["cost"] = float(sum(weights[v] for v in ds.members))
        return ds

    coverage_map = ({v: k for v in g.nodes} if coverage is None
                    else dict(coverage))
    lp = CoveringLP(g, coverage_map)
    witness = lp.infeasible_witness()
    if witness is not None:
        raise InfeasibleInstanceError(
            f"node {witness!r} requires {lp.coverage[witness]} covers but "
            f"|N_i| = {lp.graph.degree[witness] + 1}",
            witness=witness,
        )
    if lp.n == 0:
        return DominatingSet(members=set(), details={"cost": 0.0})

    rngs = spawn_node_rngs(lp.nodes, seed)
    delta = lp.delta
    members = {
        v for v in lp.nodes
        if rngs[v].random() < rounding_probability(x[v], delta)
    }
    sampled = len(members)

    requested: set = set()
    for v in lp.nodes:
        closed = [v] + stable_sorted(g.neighbors(v))
        have = sum(1 for w in closed if w in members)
        need = lp.coverage[v] - have
        if need <= 0:
            continue
        candidates: List[NodeId] = [w for w in closed if w not in members]
        ranked = sorted(candidates, key=lambda w: (weights[w], repr(w)))
        requested.update(ranked[:need])
    members |= requested

    return DominatingSet(
        members=members,
        details={
            "sampled": sampled,
            "requested": len(requested),
            "policy": "cheapest",
            "cost": float(sum(weights[v] for v in members)),
        },
    )
