"""Exact minimum k-fold dominating set by branch-and-bound.

Solves the 0/1 covering ILP ``min 1'x : A x >= b, x in {0,1}^n`` exactly
(for both coverage conventions — see :mod:`repro.baselines.lp_opt` for the
linearization of the open convention).  Components:

- LP relaxation (HiGHS) lower bounds at every node;
- a greedy warm-start incumbent;
- constraint propagation: a free variable is *forced in* when the
  remaining free+fixed supply of some constraint would otherwise fall
  short of the demand;
- branching on the most fractional LP variable, "include" branch first.

Intended for the experiment harness on instances up to roughly a hundred
nodes; the node budget guards against pathological inputs (raising
:class:`~repro.errors.BudgetExceededError` with the best incumbent found).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Set, Tuple, Union

import numpy as np
import scipy.optimize as opt

from repro.baselines.greedy import greedy_kmds
from repro.baselines.lp_opt import _constraint_matrix
from repro.core.lp import CoveringLP
from repro.errors import BudgetExceededError, GraphError, InfeasibleInstanceError
from repro.graphs.properties import as_nx
from repro.types import CoverageMap, DominatingSet


@dataclass
class _SearchState:
    """Bookkeeping shared across the branch-and-bound recursion."""

    best_size: int
    best_set: Set[int]
    nodes_explored: int = 0
    lp_solves: int = 0


def exact_kmds(graph, k: Union[int, CoverageMap] = 1, *,
               convention: str = "open",
               node_budget: int = 200_000) -> DominatingSet:
    """Exact minimum k-fold dominating set.

    Parameters
    ----------
    graph:
        The network graph.
    k:
        Uniform requirement or per-node map.
    convention:
        ``"open"`` (Section 1, default) or ``"closed"`` (the LP (PP)).
    node_budget:
        Maximum branch-and-bound nodes before giving up.

    Raises
    ------
    InfeasibleInstanceError
        If no feasible set exists (closed convention only).
    BudgetExceededError
        If optimality was not proven within the budget; the exception
        carries the best incumbent found.
    """
    if convention not in ("open", "closed"):
        raise GraphError(
            f"unknown convention {convention!r}; expected 'open' or 'closed'"
        )
    g = as_nx(graph)
    coverage = {v: k for v in g.nodes} if isinstance(k, int) else dict(k)
    lp = CoveringLP(g, coverage)
    if lp.n == 0:
        return DominatingSet(members=set(), details={"algorithm": "exact"})

    if convention == "closed" and lp.infeasible_witness() is not None:
        w = lp.infeasible_witness()
        raise InfeasibleInstanceError(
            f"node {w!r} requires {lp.coverage[w]} covers but |N[w]| = "
            f"{lp.graph.degree[w] + 1}",
            witness=w,
        )

    a_mat = _constraint_matrix(lp, convention).tocsr()
    b = lp.k_vector()
    n = lp.n

    # Warm start: greedy incumbent.
    greedy = greedy_kmds(g, coverage, convention=convention)
    incumbent = {lp.index[v] for v in greedy.members}
    state = _SearchState(best_size=len(incumbent), best_set=set(incumbent))

    def lp_bound(fixed_in: Set[int], fixed_out: Set[int]) -> Tuple[float, Optional[np.ndarray]]:
        """LP lower bound given partial assignment; (inf, None) if the LP
        is infeasible under the assignment."""
        lo = np.zeros(n)
        hi = np.ones(n)
        for j in fixed_in:
            lo[j] = 1.0
        for j in fixed_out:
            hi[j] = 0.0
        res = opt.linprog(c=np.ones(n), A_ub=-a_mat, b_ub=-b,
                          bounds=np.stack([lo, hi], axis=1),
                          method="highs")
        state.lp_solves += 1
        if not res.success:
            return math.inf, None
        return float(res.fun), res.x

    def propagate(fixed_in: Set[int], fixed_out: Set[int]) -> bool:
        """Force variables whose exclusion would make a row unsatisfiable:
        a free ``j`` with coefficient ``a[i, j]`` exceeding row ``i``'s
        slack (max supply minus demand) must be selected.  Returns False
        when some row is unsatisfiable even with every free node in."""
        hi = np.ones(n)
        for j in fixed_out:
            hi[j] = 0.0
        supply = a_mat @ hi  # max achievable per row under the assignment
        if (supply < b - 1e-9).any():
            return False
        row_slack = supply - b
        for i in range(len(b)):
            lo_i, hi_i = a_mat.indptr[i], a_mat.indptr[i + 1]
            for ptr in range(lo_i, hi_i):
                j = a_mat.indices[ptr]
                if j in fixed_in or j in fixed_out:
                    continue
                if a_mat.data[ptr] > row_slack[i] + 1e-9:
                    fixed_in.add(j)
        return True

    def recurse(fixed_in: Set[int], fixed_out: Set[int]) -> None:
        state.nodes_explored += 1
        if state.nodes_explored > node_budget:
            raise BudgetExceededError(
                f"branch-and-bound exceeded {node_budget} nodes",
                incumbent={lp.nodes[j] for j in state.best_set},
            )
        if not propagate(fixed_in, fixed_out):
            return
        if len(fixed_in) >= state.best_size:
            return
        bound, x_rel = lp_bound(fixed_in, fixed_out)
        if x_rel is None or math.ceil(bound - 1e-6) >= state.best_size:
            return
        frac = np.where((x_rel > 1e-6) & (x_rel < 1 - 1e-6))[0]
        frac = [j for j in frac if j not in fixed_in and j not in fixed_out]
        if not frac:
            chosen = {j for j in range(n)
                      if x_rel[j] > 0.5 or j in fixed_in} - fixed_out
            # Integral LP solution: it is feasible and optimal for this
            # subproblem.
            size = len(chosen)
            if size < state.best_size and _feasible(chosen):
                state.best_size = size
                state.best_set = set(chosen)
            return
        # Branch on the most fractional free variable, include-first.
        j = max(frac, key=lambda jj: min(x_rel[jj], 1 - x_rel[jj]))
        recurse(fixed_in | {j}, set(fixed_out))
        recurse(set(fixed_in), fixed_out | {j})

    def _feasible(chosen: Set[int]) -> bool:
        xv = np.zeros(n)
        for j in chosen:
            xv[j] = 1.0
        return bool(((a_mat @ xv) >= b - 1e-6).all())

    recurse(set(), set())

    members = {lp.nodes[j] for j in state.best_set}
    return DominatingSet(
        members=members,
        details={
            "algorithm": "exact",
            "convention": convention,
            "bnb_nodes": state.nodes_explored,
            "lp_solves": state.lp_solves,
        },
    )
