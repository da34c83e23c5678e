"""Fault-tolerance experiments — the paper's motivation (Section 1).

"Hierarchical structures such as dominating sets are prone to fail unless
they provide enough fault-tolerance or redundancy."  These experiments
quantify that: kill a random fraction of the dominators of a k-fold
dominating set and measure how much of the network loses coverage, for
increasing k.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

import numpy as np

from repro.core.verify import membership_mask
from repro.engine import kernels
from repro.engine.artifacts import graph_artifacts
from repro.errors import GraphError
from repro.types import NodeId


FAILURE_STRATEGIES = ("random", "targeted")


def dominator_failure_experiment(graph, members: Iterable[NodeId],
                                 kill_fraction: float, *,
                                 trials: int = 20,
                                 strategy: str = "random",
                                 seed: int | None = None) -> Dict[str, float]:
    """Kill a ``kill_fraction`` of the dominators; measure coverage.

    For each trial, removes ``round(kill_fraction * |S|)`` members from
    the dominating set ``S`` — uniformly at random
    (``strategy="random"``) or adversarially by client load
    (``strategy="targeted"``) — and evaluates the survivors' coverage of
    the non-member nodes (open convention).  Each trial counts coverage
    with one matvec over the graph's cached artifacts.

    Returns
    -------
    dict with keys
        ``uncovered_fraction`` — mean fraction of non-member nodes left
        with zero live dominators;
        ``still_1_covered`` — mean fraction retaining >= 1 live dominator;
        ``mean_residual_coverage`` — mean surviving dominator count per
        non-member node;
        ``all_covered_probability`` — fraction of trials in which *every*
        non-member node kept at least one live dominator.
    """
    if not 0.0 <= kill_fraction <= 1.0:
        raise GraphError(
            f"kill_fraction must be in [0, 1], got {kill_fraction}"
        )
    if trials < 1:
        raise GraphError(f"trials must be positive, got {trials}")
    art = graph_artifacts(graph)
    member_set = set(members)
    member_list = sorted(member_set, key=repr)
    if not member_list:
        return {"uncovered_fraction": 1.0, "still_1_covered": 0.0,
                "mean_residual_coverage": 0.0, "all_covered_probability": 0.0}
    if strategy not in FAILURE_STRATEGIES:
        raise GraphError(
            f"unknown failure strategy {strategy!r}; expected one of "
            f"{FAILURE_STRATEGIES}"
        )
    rng = np.random.default_rng(seed)
    n_kill = int(round(kill_fraction * len(member_list)))
    member_mask = membership_mask(art, member_set)
    # Victims are drawn as positions into ``member_list``.
    member_idx = np.fromiter(map(art.index.__getitem__, member_list),
                             dtype=np.int64, count=len(member_list))
    # Nodes that were dominators (even dead ones) are treated as members
    # of the structure: the question is whether *client* nodes keep a
    # live dominator.
    clients = ~member_mask
    n_clients = int(clients.sum())
    if strategy == "targeted":
        # Adversary kills the most load-bearing dominators first: those
        # covering the most clients (ties broken randomly per trial).
        # Each member's load (its open-neighborhood count of clients)
        # is fixed, so it is counted once.
        load = kernels.member_counts(art, indicator=clients,
                                     convention="open")[member_idx]

    uncovered_fracs: List[float] = []
    covered_fracs: List[float] = []
    residuals: List[float] = []
    all_covered = 0
    for _ in range(trials):
        if strategy == "random":
            victims = rng.choice(len(member_list), size=n_kill,
                                 replace=False)
        else:
            noise = rng.random(len(member_list))
            victims = np.lexsort((noise, -load))[:n_kill]
        survivors = member_mask.copy()
        survivors[member_idx[victims]] = False
        if not n_clients:
            uncovered_fracs.append(0.0)
            covered_fracs.append(1.0)
            residuals.append(0.0)
            all_covered += 1
            continue
        counts = kernels.member_counts(art, indicator=survivors,
                                       convention="open")[clients]
        uncovered = int(np.count_nonzero(counts == 0))
        uncovered_fracs.append(uncovered / n_clients)
        covered_fracs.append(1.0 - uncovered / n_clients)
        residuals.append(float(np.mean(counts)))
        if uncovered == 0:
            all_covered += 1

    return {
        "uncovered_fraction": float(np.mean(uncovered_fracs)),
        "still_1_covered": float(np.mean(covered_fracs)),
        "mean_residual_coverage": float(np.mean(residuals)),
        "all_covered_probability": all_covered / trials,
    }


def coverage_survival_curve(graph, members: Iterable[NodeId],
                            kill_fractions: Sequence[float], *,
                            trials: int = 20,
                            strategy: str = "random",
                            seed: int | None = None
                            ) -> List[Dict[str, float]]:
    """Run :func:`dominator_failure_experiment` across a sweep of kill
    fractions; returns one record per fraction (with the fraction under
    key ``"kill_fraction"``)."""
    rng = np.random.default_rng(seed)
    out: List[Dict[str, float]] = []
    for f in kill_fractions:
        rec = dominator_failure_experiment(
            graph, members, f, trials=trials, strategy=strategy,
            seed=int(rng.integers(0, 2 ** 31)))
        rec["kill_fraction"] = float(f)
        out.append(rec)
    return out
