"""Fault-tolerance experiments — the paper's motivation (Section 1).

"Hierarchical structures such as dominating sets are prone to fail unless
they provide enough fault-tolerance or redundancy."  These experiments
quantify that: kill a random fraction of the dominators of a k-fold
dominating set and measure how much of the network loses coverage, for
increasing k.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Set

import numpy as np

from repro.core.verify import coverage_counts
from repro.errors import GraphError
from repro.graphs.properties import as_nx
from repro.types import NodeId


FAILURE_STRATEGIES = ("random", "targeted")


def _choose_victims(g, member_list, n_kill: int, strategy: str,
                    rng: np.random.Generator) -> Set[NodeId]:
    """Pick which dominators die this trial."""
    if strategy == "random":
        idx = rng.choice(len(member_list), size=n_kill, replace=False)
        return {member_list[i] for i in idx}
    if strategy == "targeted":
        # Adversary kills the most load-bearing dominators first: those
        # covering the most clients (ties broken randomly per trial).
        member_set = set(member_list)
        load = {
            m: sum(1 for w in g.neighbors(m) if w not in member_set)
            for m in member_list
        }
        noise = rng.random(len(member_list))
        ranked = sorted(
            range(len(member_list)),
            key=lambda i: (-load[member_list[i]], noise[i]),
        )
        return {member_list[i] for i in ranked[:n_kill]}
    raise GraphError(
        f"unknown failure strategy {strategy!r}; expected one of "
        f"{FAILURE_STRATEGIES}"
    )


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
    the non-member nodes (open convention).

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
    g = as_nx(graph)
    member_list = sorted(set(members), key=repr)
    if not member_list:
        return {"uncovered_fraction": 1.0, "still_1_covered": 0.0,
                "mean_residual_coverage": 0.0, "all_covered_probability": 0.0}
    rng = np.random.default_rng(seed)
    n_kill = int(round(kill_fraction * len(member_list)))
    member_set = set(member_list)
    # Nodes that were dominators (even dead ones) are treated as members
    # of the structure: the question is whether *client* nodes keep a
    # live dominator.
    clients = [v for v in g.nodes if v not in member_set]

    uncovered_fracs: List[float] = []
    covered_fracs: List[float] = []
    residuals: List[float] = []
    all_covered = 0
    for _ in range(trials):
        killed = _choose_victims(g, member_list, n_kill, strategy, rng)
        survivors = member_set - killed
        counts = coverage_counts(g, survivors, convention="open")
        if not clients:
            uncovered_fracs.append(0.0)
            covered_fracs.append(1.0)
            residuals.append(0.0)
            all_covered += 1
            continue
        uncovered = sum(1 for v in clients if counts[v] == 0)
        uncovered_fracs.append(uncovered / len(clients))
        covered_fracs.append(1.0 - uncovered / len(clients))
        residuals.append(float(np.mean([counts[v] for v in clients])))
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
