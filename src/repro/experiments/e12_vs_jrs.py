"""E12 — comparison with the prior distributed k-MDS algorithm
(Jia-Rajaraman-Suel [9], the only previous general-graph upper bound the
paper cites).

Compares the paper's pipeline (2t^2 + O(1) rounds, fixed a priori) against
the LRG-style baseline (O(log n log Delta) rounds, data-dependent) on the
shared graph suite: solution sizes and round counts.  The paper's selling
point is the *fixed, graph-independent* round budget at comparable
quality.
"""

from __future__ import annotations

from repro.baselines.jrs import ROUNDS_PER_PHASE, jrs_kmds
from repro.core.general import recommended_t, solve_kmds_general
from repro.core.verify import is_k_dominating_set
from repro.experiments.base import ExperimentReport, check_scale
from repro.graphs.generators import graph_suite
from repro.graphs.properties import feasible_coverage


def run(*, scale: str = "quick", seed: int = 0) -> ExperimentReport:
    check_scale(scale)
    suite_scale = "small" if scale == "quick" else "medium"
    k_values = (1, 2) if scale == "quick" else (1, 2, 3)
    n_seeds = 3 if scale == "quick" else 8

    rows = []
    both_valid = True
    size_ratios = []
    for name, g in graph_suite(suite_scale, seed=seed):
        t = recommended_t(g)
        for k in k_values:
            coverage = feasible_coverage(g, k)
            ours_sizes, jrs_sizes, jrs_rounds = [], [], []
            our_rounds = 0
            for s in range(n_seeds):
                ours = solve_kmds_general(g, coverage=coverage, t=t,
                                          seed=seed + s)
                both_valid &= is_k_dominating_set(
                    g, ours.members, coverage, convention="closed")
                jrs = jrs_kmds(g, coverage, convention="closed",
                               seed=seed + s)
                both_valid &= is_k_dominating_set(
                    g, jrs.members, coverage, convention="closed")
                ours_sizes.append(ours.size)
                jrs_sizes.append(len(jrs))
                jrs_rounds.append(jrs.stats.rounds)
                our_rounds = ours.stats.rounds
            mean_ours = sum(ours_sizes) / len(ours_sizes)
            mean_jrs = sum(jrs_sizes) / len(jrs_sizes)
            size_ratios.append(mean_ours / max(1.0, mean_jrs))
            rows.append((name, k, t, round(mean_ours, 1), our_rounds,
                         round(mean_jrs, 1),
                         round(sum(jrs_rounds) / len(jrs_rounds), 1)))

    mean_ratio = sum(size_ratios) / len(size_ratios)

    return ExperimentReport(
        experiment_id="e12",
        title="Pipeline vs Jia-Rajaraman-Suel LRG (related work [9])",
        claim=("Comparable solution quality to the prior distributed "
               "algorithm, with a fixed graph-independent round budget."),
        headers=["graph", "k", "t", "|ours| (mean)", "our rounds",
                 "|JRS| (mean)", "JRS rounds (mean)"],
        rows=rows,
        checks={
            "both algorithms always produce valid k-fold dominating sets":
                both_valid,
            "mean size within 2.5x of JRS across the suite":
                mean_ratio <= 2.5,
        },
        notes=(f"t = recommended_t(graph) ~ log2(Delta); mean size ratio "
               f"ours/JRS = {mean_ratio:.2f}; JRS rounds are the "
               f"protocol's: {ROUNDS_PER_PHASE} per LRG phase plus the "
               f"2-round closing exchange that finds no demand left."),
    )
