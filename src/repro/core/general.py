"""End-to-end k-MDS for general graphs: Algorithm 1 then Algorithm 2.

This is the paper's headline general-graph result: in ``O(t^2)`` rounds and
with ``O(log n)``-bit messages, compute a k-fold dominating set whose
expected size is ``O(t * Delta^{2/t} * log Delta)`` times optimal
(Theorem 4.5 composed with Theorem 4.6).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import AbstractSet

from repro.core.fractional import fractional_kmds, theorem_45_ratio_bound
from repro.core.rounding import randomized_rounding
from repro.graphs.properties import max_degree
from repro.types import (CoverageMap, DominatingSet, FractionalSolution,
                         NodeId, RunStats)


@dataclass
class KMDSResult:
    """Result of the general-graph pipeline.

    Carries the final dominating set, the intermediate fractional solution,
    and combined round/message accounting.
    """

    dominating_set: DominatingSet
    fractional: FractionalSolution
    stats: RunStats = field(default_factory=RunStats)

    @property
    def members(self) -> AbstractSet[NodeId]:
        return self.dominating_set.members

    @property
    def size(self) -> int:
        return len(self.dominating_set.members)


def expected_overall_ratio_bound(t: int, delta: int) -> float:
    """The composed guarantee: Theorem 4.5's fractional ratio times
    Theorem 4.6's rounding blow-up ``ln(Delta+1)`` (plus O(1), omitted)."""
    return theorem_45_ratio_bound(t, delta) * math.log(delta + 1.0 + 1e-12)


def solve_kmds_general(graph, k: int = 1, *,
                       coverage: CoverageMap | None = None,
                       t: int = 3,
                       mode: str = "direct",
                       rounding_policy: str = "random",
                       compute_duals: bool = False,
                       seed: int | None = None) -> KMDSResult:
    """Compute a k-fold dominating set of a general graph (Sections 4.1-4.2).

    Parameters
    ----------
    graph:
        The network graph.
    k / coverage:
        Uniform or per-node coverage requirements (closed-neighborhood
        convention, as in the LP (PP)).
    t:
        Trade-off parameter; ``t = O(log Delta)`` gives the classic
        ``O(log Delta)``-ish fractional quality in ``O(log^2 Delta)`` rounds
        (see the Remark after Theorem 4.5).
    mode:
        ``"direct"`` (fast central simulation) or ``"message"`` (run on the
        synchronous message-passing simulator, with full accounting).
    rounding_policy:
        REQ target policy of Algorithm 2.
    compute_duals:
        Carry the dual bookkeeping through Algorithm 1 (analysis only).
    seed:
        Root seed for the rounding randomness (Algorithm 1 is
        deterministic).

    Returns
    -------
    KMDSResult
        The integral solution, the fractional intermediate, and combined
        accounting (Algorithm 1 rounds + Algorithm 2 rounds).
    """
    frac = fractional_kmds(graph, k, coverage=coverage, t=t, mode=mode,
                           compute_duals=compute_duals, seed=seed)
    ds = randomized_rounding(graph, frac.x, k, coverage=coverage,
                             policy=rounding_policy, mode=mode, seed=seed)
    stats = RunStats()
    stats.absorb(frac.stats)
    stats.absorb(ds.stats)
    ds.details["fractional_objective"] = frac.objective
    ds.details["t"] = t
    return KMDSResult(dominating_set=ds, fractional=frac, stats=stats)


def recommended_t(graph) -> int:
    """The Remark's suggestion ``t = O(log Delta)``: returns
    ``max(1, ceil(log2(Delta + 2)))`` for the given graph."""
    delta = max_degree(graph)
    return max(1, math.ceil(math.log2(delta + 2)))
