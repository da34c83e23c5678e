"""E17 — robustness to message loss (the motivation's second bullet).

Section 1: "the shared wireless medium is inherently less stable than
wired media.  This results in more packet losses".  The paper's
algorithms assume reliable links; this experiment measures what actually
happens when they don't get them: we run Algorithm 3 in message mode
under i.i.d. message loss and measure how the output degrades — the
fraction of nodes left under-covered vs the loss rate, for k in {1, 3} —
showing that the k-fold redundancy also buys robustness *during*
construction, not just after it.
"""

from __future__ import annotations

from repro.core.udg import UDGNode, theta_schedule
from repro.core.verify import coverage_deficit
from repro.experiments.base import ExperimentReport, check_scale
from repro.graphs.udg import random_udg
from repro.simulation.faults import MessageLossInjector
from repro.simulation.network import SynchronousNetwork
from repro.simulation.runner import run_protocol


def _run_with_loss(udg, k: int, loss: float, seed: int, *,
                   reference: bool = False):
    """One lossy Algorithm 3 run; ``reference=True`` drives the per-node
    generator loop instead of the columnar stepping plane (the
    bit-identity oracle the experiment tests compare against)."""
    n = udg.n
    procs = [UDGNode(v, k, n, "random", n + 1) for v in range(n)]
    net = SynchronousNetwork(udg, procs, seed=seed)
    injector = MessageLossInjector(loss, seed=seed + 1)
    run_protocol(net, injectors=[injector],
                 max_rounds=2 * len(theta_schedule(n)) + 3 * (n + 1) + 8,
                 reference=reference)
    return {p.node_id for p in procs if p.leader}


def run(*, scale: str = "quick", seed: int = 0) -> ExperimentReport:
    check_scale(scale)
    if scale == "quick":
        n = 120
        loss_rates = (0.0, 0.05, 0.15)
        k_values = (1, 3)
        n_seeds = 2
    else:
        n = 250
        loss_rates = (0.0, 0.02, 0.05, 0.1, 0.2)
        k_values = (1, 3)
        n_seeds = 4

    rows = []
    zero_loss_perfect = True
    deficit_by = {}
    for k in k_values:
        for loss in loss_rates:
            deficient_frac = 0.0
            mean_size = 0.0
            for s in range(n_seeds):
                udg = random_udg(n, density=10.0, seed=seed + 31 * s)
                members = _run_with_loss(udg, k, loss, seed + s)
                deficit = coverage_deficit(udg, members, k,
                                           convention="open")
                deficient = sum(1 for d in deficit.values() if d > 0)
                deficient_frac += deficient / n / n_seeds
                mean_size += len(members) / n_seeds
            if loss == 0.0:
                zero_loss_perfect &= deficient_frac == 0.0
            deficit_by[(k, loss)] = deficient_frac
            rows.append((k, loss, round(mean_size, 1),
                         round(100 * deficient_frac, 2)))

    max_loss = max(loss_rates)
    graceful = all(
        deficit_by[(k, max_loss)] <= 0.5 for k in k_values
    )

    return ExperimentReport(
        experiment_id="e17",
        title="Protocol robustness under message loss (Section 1 motivation)",
        claim=("Algorithm 3 degrades gracefully when the wireless medium "
               "drops messages: with reliable links the output is perfect; "
               "under loss, only a bounded fraction of nodes end "
               "under-covered."),
        headers=["k", "loss rate", "mean |DS|", "% nodes under-covered"],
        rows=rows,
        checks={
            "zero loss reproduces a perfect k-fold dominating set":
                zero_loss_perfect,
            "under-coverage stays bounded at the highest loss rate":
                graceful,
        },
        notes=(f"UDG n={n}, density 10, {n_seeds} seeds per cell; loss is "
               "i.i.d. per message.  The paper assumes reliable links; "
               "this quantifies the assumption's weight."),
    )
