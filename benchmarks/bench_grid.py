"""Grid-batch benchmark: ``solve_kmds_udg_grid`` vs the per-point
``solve_kmds_udg_batch`` double loop (and vs the pre-grid tree).

A parameter study — G topologies x k in {1,2,3} x R seeds of
Algorithm 3 — used to be G*K replica-batched calls: G*K artifact
builds, G*K Part I election passes, G*K stream pools.  The grid
dispatch (:func:`repro.core.udg.solve_kmds_udg_grid`) stacks the
topologies into one block-diagonal CSR, fuses the k axis over a single
shared Part I (elections are k-independent), and widens the vecrng pool
to one lane per (replica, graph, node).  This benchmark times the same
grid two ways:

- **per-point** — the ``solve_kmds_udg_batch(g, seeds, k=k)`` double
  loop, exactly what ``analysis.sweep`` and the E-series grids did
  before the grid path existed, running in-tree.  Asserted bit-identical
  to the grid run (per-cell members and ``RunStats``) before any
  speedup is reported.
- **grid** — one ``solve_kmds_udg_grid(graphs, seeds, ks)`` call.

The in-tree ratio *understates* the end-to-end win because the
per-point loop shares this tree's other improvements (the fused native
adoption kernel, slab threading, cheap generator materialization).
Pass ``--before PATH/src`` pointing at a checkout of the pre-grid tree
(e.g. ``git worktree add .bench-before <base>``) to measure the true
before/after ratio in a subprocess; the acceptance threshold — grid
>= 3x the pre-grid tree on the 10x3x10 grid at n=10^4 — is checked
only then.  Without ``--before``, the in-tree ratio is held to a
regression guard (per scale, see ``SCALES``) so CI fails fast if the
grid path decays.

Run standalone (no pytest needed)::

    PYTHONPATH=src python benchmarks/bench_grid.py --scale smoke \
        --out BENCH_grid.json

``--scale full`` runs the acceptance cell (10 graphs, n=10^4, 10
seeds).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from repro.core.udg import solve_kmds_udg_batch, solve_kmds_udg_grid
from repro.graphs.udg import random_udg

try:
    from benchmarks.bench_common import (record_check, run_before_scenario,
                                         timed_best, write_report)
except ImportError:  # run standalone: benchmarks/ itself is on sys.path
    from bench_common import (record_check, run_before_scenario, timed_best,
                              write_report)

SCALES = {
    # (graphs, n, replicas) cells; the in-tree guard is checked on the
    # last cell.
    "smoke": {"cells": ((3, 2000, 4),), "guard": 1.3},
    "full": {"cells": ((3, 2000, 4), (10, 10_000, 10)), "guard": 1.5},
}
#: The --before acceptance threshold, checked at this cell when present.
ACCEPTANCE_GRAPHS = 10
ACCEPTANCE_N = 10_000
ACCEPTANCE_REPLICAS = 10
ACCEPTANCE_SPEEDUP = 3.0      # vs the pre-grid tree (--before)

DENSITY = 10.0
KS = (1, 2, 3)

#: The scenario, as a standalone script: also run under the pre-grid
#: tree's PYTHONPATH (which predates ``solve_kmds_udg_grid``), so it
#: uses only the replica-batched entry point it already has.  Results
#: come back flattened in (graph, k, replica) order for the
#: bit-identity cross-check.
_SUBPROCESS_SCRIPT = r'''
import json, time
from repro.core.udg import solve_kmds_udg_batch
from repro.graphs.udg import random_udg
graphs = [random_udg({n}, density={density}, seed={seed} + g)
          for g in range({n_graphs})]
seeds = list(range({replicas}))
ks = {ks}
def sweep():
    return [sol for g in graphs for k in ks
            for sol in solve_kmds_udg_batch(g, seeds, k=k)]
sols = sweep()
times = []
for _ in range({repeats}):
    t0 = time.perf_counter()
    sols = sweep()
    times.append(time.perf_counter() - t0)
print(json.dumps({{"seconds": min(times),
                   "members_len": [len(s.members) for s in sols],
                   "members_sum": [sum(s.members) for s in sols],
                   "rounds": [s.stats.rounds for s in sols],
                   "messages": [s.stats.messages_sent for s in sols]}}))
'''


def flatten(grid_sols) -> list:
    """``results[graph][k][seed]`` -> flat (graph, k, replica) order."""
    return [sol for per_graph in grid_sols for per_k in per_graph
            for sol in per_k]


def assert_equivalent(point_sols, grid_sols) -> None:
    """Every cell's members and RunStats must match exactly."""
    if len(point_sols) != len(grid_sols):
        raise AssertionError("grid cell count diverged")
    for i, (pt, gr) in enumerate(zip(point_sols, grid_sols)):
        if pt.members != gr.members:
            raise AssertionError(
                f"cell {i}: grid members diverged from per-point")
        if pt.stats != gr.stats:
            raise AssertionError(
                f"cell {i}: RunStats diverged: per-point={pt.stats} "
                f"grid={gr.stats}")


def run_before(before_src: str, *, n_graphs: int, n: int, replicas: int,
               seed: int, repeats: int) -> dict:
    """Time the same grid under the pre-grid tree in a subprocess
    (its own import universe)."""
    return run_before_scenario(before_src, _SUBPROCESS_SCRIPT,
                               n_graphs=n_graphs, n=n, density=DENSITY,
                               seed=seed, ks=tuple(KS), replicas=replicas,
                               repeats=repeats)


def measure(n_graphs: int, n: int, replicas: int, *, seed: int,
            repeats: int, before_src: Optional[str]) -> dict:
    graphs = [random_udg(n, density=DENSITY, seed=seed + g)
              for g in range(n_graphs)]
    seeds = list(range(replicas))
    # Warm once (distance CSRs, stacked artifacts, native kernel build)
    # before timing either path.
    solve_kmds_udg_grid(graphs, seeds, KS)
    # The before subprocess runs *first*: its own graph build dominates
    # its wall clock, so timing the in-tree paths immediately after it
    # returns keeps both measurements inside the same machine phase
    # (shared-runner throughput drifts over multi-minute spans).
    before = None
    if before_src is not None:
        before = run_before(before_src, n_graphs=n_graphs, n=n,
                            replicas=replicas, seed=seed, repeats=repeats)
    timing: dict = {}
    grid_time, grid_sols = timed_best(
        lambda: solve_kmds_udg_grid(graphs, seeds, KS, timing=timing),
        repeats)
    point_time, point_sols = timed_best(
        lambda: [sol for g in graphs for k in KS
                 for sol in solve_kmds_udg_batch(g, seeds, k=k)],
        repeats)
    grid_flat = flatten(grid_sols)
    assert_equivalent(point_sols, grid_flat)
    row = {
        "graphs": n_graphs,
        "n": n,
        "replicas": replicas,
        "ks": list(KS),
        "members_mean": (sum(len(s.members) for s in grid_flat)
                         / len(grid_flat)),
        "rounds_max": max(s.stats.rounds for s in grid_flat),
        "dispatch": timing,
        "grid_seconds": grid_time,
        "per_point_seconds": point_time,
        "intree_speedup": point_time / grid_time if grid_time > 0 else None,
        "before_seconds": None,
        "speedup_vs_before": None,
    }
    if before is not None:
        expected = {
            "members_len": [len(s.members) for s in grid_flat],
            "members_sum": [sum(s.members) for s in grid_flat],
            "rounds": [s.stats.rounds for s in grid_flat],
            "messages": [s.stats.messages_sent for s in grid_flat],
        }
        for key, want in expected.items():
            if before[key] != want:
                raise AssertionError(
                    f"grid {key} diverged from pre-grid tree")
        row["before_seconds"] = before["seconds"]
        row["speedup_vs_before"] = (before["seconds"] / grid_time
                                    if grid_time > 0 else None)
    return row


def main(argv: Optional[list] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--scale", choices=sorted(SCALES), default="smoke")
    ap.add_argument("--out", default=None, help="write JSON results here")
    ap.add_argument("--repeats", type=int, default=3,
                    help="timing repeats per configuration (best-of)")
    ap.add_argument("--seed", type=int, default=100,
                    help="deployment seed base (graph g uses seed+g; "
                         "algorithm seeds are 0..R-1)")
    ap.add_argument("--before", default=None, metavar="SRC",
                    help="src/ directory of a pre-grid checkout; "
                         "enables the 3x acceptance check")
    args = ap.parse_args(argv)

    cfg = SCALES[args.scale]
    guard = cfg["guard"]
    rows = []
    for n_graphs, n, replicas in cfg["cells"]:
        row = measure(n_graphs, n, replicas, seed=args.seed,
                      repeats=args.repeats, before_src=args.before)
        rows.append(row)
        before = (f"{row['speedup_vs_before']:.2f}x"
                  if row["speedup_vs_before"] else "n/a")
        print(f"G={n_graphs:>2} n={n:>6} R={replicas:>3}  "
              f"grid {row['grid_seconds']:.4f}s"
              f"  vs per-point loop: {row['intree_speedup']:.2f}x  "
              f"vs pre-grid tree: {before}  "
              f"({row['members_mean']:.1f} mean members / "
              f"{row['rounds_max']} max rounds)")

    report = {
        "benchmark": "grid",
        "scale": args.scale,
        "scenario": {"density": DENSITY, "ks": list(KS), "seed": args.seed},
        "acceptance": {
            "graphs": ACCEPTANCE_GRAPHS,
            "n": ACCEPTANCE_N,
            "replicas": ACCEPTANCE_REPLICAS,
            "threshold_vs_before": ACCEPTANCE_SPEEDUP,
            "intree_guard": guard,
        },
        "rows": rows,
    }
    failed = False
    for row in rows:
        if args.before is not None and (
                (row["graphs"], row["n"], row["replicas"])
                == (ACCEPTANCE_GRAPHS, ACCEPTANCE_N, ACCEPTANCE_REPLICAS)):
            failed |= not record_check(
                report,
                title=f"acceptance at G={ACCEPTANCE_GRAPHS} "
                      f"n={ACCEPTANCE_N} R={ACCEPTANCE_REPLICAS}",
                key="speedup_vs_before", passed_key="passed",
                speedup=row["speedup_vs_before"],
                threshold=ACCEPTANCE_SPEEDUP, vs="pre-grid")
    # The in-tree guard runs on the last (largest) cell of the scale.
    last = rows[-1]
    failed |= not record_check(
        report,
        title=f"in-tree guard at G={last['graphs']} n={last['n']} "
              f"R={last['replicas']}",
        key="intree_speedup", passed_key="guard_passed",
        speedup=last["intree_speedup"], threshold=guard,
        vs="per-point loop")
    if args.out:
        write_report(report, args.out)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
