"""Replica-batch benchmark: ``solve_kmds_udg_batch`` vs the sequential
per-seed solve loop (and vs the pre-batch tree).

A seed-replication sweep — the same Algorithm 3 instance solved under R
independent seeds — used to be R full engine invocations: R artifact
revalidations, R stream pools, R Python round loops.  The replica-batched
direct backend (:func:`repro.core.udg.solve_kmds_udg_batch`, the
one-graph, one-k column of Algorithm 3's kernel grid) lays the replicas
out as a ``(R, n)`` lane plane over the *shared* CSR and runs the whole
sweep as one kernel pass per round.  This benchmark times
the same 30-seed sweep two ways:

- **sequential** — the per-seed ``solve_kmds_udg`` loop, exactly what
  the E-series experiments and ``analysis.sweep`` did before the batch
  path existed, running in-tree.  Asserted bit-identical to the batch
  run (per-replica members and ``RunStats``) before any speedup is
  reported.
- **batch** — one ``solve_kmds_udg_batch`` call over all seeds.

The in-tree ratio *understates* the end-to-end win because the
sequential loop shares this tree's other improvements (native draw /
election kernels, cheap generator materialization).  Pass ``--before
PATH/src`` pointing at a checkout of the pre-batch tree (e.g. ``git
worktree add .bench-before <base>``) to measure the true before/after
ratio in a subprocess; the acceptance threshold — batch >= 5x the
pre-batch tree on the 30-seed sweep at n=10^4 — is checked only then.
Without ``--before``, the in-tree ratio is held to a regression guard
(per scale, see ``SCALES``) so CI fails fast if the batch path decays.

Run standalone (no pytest needed)::

    PYTHONPATH=src python benchmarks/bench_batch.py --scale smoke \
        --out BENCH_batch.json

``--scale full`` runs the acceptance cell (n=10^4, 30 replicas).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from repro.core.udg import solve_kmds_udg, solve_kmds_udg_batch
from repro.graphs.udg import random_udg

try:
    from benchmarks.bench_common import (record_check, run_before_scenario,
                                         timed_best, write_report)
except ImportError:  # run standalone: benchmarks/ itself is on sys.path
    from bench_common import (record_check, run_before_scenario, timed_best,
                              write_report)

SCALES = {
    # (n, replicas) cells; the in-tree guard is checked on the last cell.
    "smoke": {"cells": ((2000, 8),), "guard": 2.0},
    "full": {"cells": ((2000, 8), (10_000, 30)), "guard": 3.0},
}
#: The --before acceptance threshold, checked at this cell when present.
ACCEPTANCE_N = 10_000
ACCEPTANCE_REPLICAS = 30
ACCEPTANCE_SPEEDUP = 5.0      # vs the pre-batch tree (--before)

DENSITY = 10.0
K = 3

#: The scenario, as a standalone script: also run under the pre-batch
#: tree's PYTHONPATH (which predates ``solve_kmds_udg_batch``), so it
#: uses only the original per-seed public entry point.
_SUBPROCESS_SCRIPT = r'''
import json, time
from repro.core.udg import solve_kmds_udg
from repro.graphs.udg import random_udg
udg = random_udg({n}, density={density}, seed={seed})
seeds = list(range({base}, {base} + {replicas}))
sols = [solve_kmds_udg(udg, k={k}, mode="direct", seed=s) for s in seeds]
times = []
for _ in range({repeats}):
    t0 = time.perf_counter()
    sols = [solve_kmds_udg(udg, k={k}, mode="direct", seed=s) for s in seeds]
    times.append(time.perf_counter() - t0)
print(json.dumps({{"seconds": min(times),
                   "members_len": [len(s.members) for s in sols],
                   "members_sum": [sum(s.members) for s in sols],
                   "rounds": [s.stats.rounds for s in sols],
                   "messages": [s.stats.messages_sent for s in sols]}}))
'''


def assert_equivalent(seq_sols, batch_sols) -> None:
    """Every replica's members and RunStats must match exactly."""
    if len(seq_sols) != len(batch_sols):
        raise AssertionError("replica count diverged")
    for i, (seq, bat) in enumerate(zip(seq_sols, batch_sols)):
        if seq.members != bat.members:
            raise AssertionError(
                f"replica {i}: batch members diverged from sequential")
        if seq.stats != bat.stats:
            raise AssertionError(
                f"replica {i}: RunStats diverged: sequential={seq.stats} "
                f"batch={bat.stats}")


def run_before(before_src: str, *, n: int, replicas: int, seed: int,
               repeats: int) -> dict:
    """Time the same sweep under the pre-batch tree in a subprocess
    (its own import universe)."""
    return run_before_scenario(before_src, _SUBPROCESS_SCRIPT, n=n,
                               density=DENSITY, seed=seed, k=K, base=0,
                               replicas=replicas, repeats=repeats)


def measure(n: int, replicas: int, *, seed: int, repeats: int,
            before_src: Optional[str]) -> dict:
    udg = random_udg(n, density=DENSITY, seed=seed)
    seeds = list(range(replicas))
    # Warm once (distance CSR, artifact caches, native kernel build)
    # before timing either path.
    solve_kmds_udg_batch(udg, seeds, k=K)
    batch_time, batch_sols = timed_best(
        lambda: solve_kmds_udg_batch(udg, seeds, k=K), repeats)
    seq_time, seq_sols = timed_best(
        lambda: [solve_kmds_udg(udg, k=K, mode="direct", seed=s)
                 for s in seeds],
        repeats)
    assert_equivalent(seq_sols, batch_sols)
    row = {
        "n": n,
        "replicas": replicas,
        "k": K,
        "members_mean": sum(len(s.members) for s in batch_sols) / replicas,
        "rounds_max": max(s.stats.rounds for s in batch_sols),
        "batch_seconds": batch_time,
        "sequential_seconds": seq_time,
        "intree_speedup": seq_time / batch_time if batch_time > 0 else None,
        "before_seconds": None,
        "speedup_vs_before": None,
    }
    if before_src is not None:
        before = run_before(before_src, n=n, replicas=replicas, seed=seed,
                            repeats=repeats)
        expected = {
            "members_len": [len(s.members) for s in batch_sols],
            "members_sum": [sum(s.members) for s in batch_sols],
            "rounds": [s.stats.rounds for s in batch_sols],
            "messages": [s.stats.messages_sent for s in batch_sols],
        }
        for key, want in expected.items():
            if before[key] != want:
                raise AssertionError(
                    f"batch {key} diverged from pre-batch tree")
        row["before_seconds"] = before["seconds"]
        row["speedup_vs_before"] = (before["seconds"] / batch_time
                                    if batch_time > 0 else None)
    return row


def main(argv: Optional[list] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--scale", choices=sorted(SCALES), default="smoke")
    ap.add_argument("--out", default=None, help="write JSON results here")
    ap.add_argument("--repeats", type=int, default=3,
                    help="timing repeats per configuration (best-of)")
    ap.add_argument("--seed", type=int, default=1,
                    help="deployment seed (algorithm seeds are 0..R-1)")
    ap.add_argument("--before", default=None, metavar="SRC",
                    help="src/ directory of a pre-batch checkout; "
                         "enables the 5x acceptance check")
    args = ap.parse_args(argv)

    cfg = SCALES[args.scale]
    guard = cfg["guard"]
    rows = []
    for n, replicas in cfg["cells"]:
        row = measure(n, replicas, seed=args.seed, repeats=args.repeats,
                      before_src=args.before)
        rows.append(row)
        before = (f"{row['speedup_vs_before']:.2f}x"
                  if row["speedup_vs_before"] else "n/a")
        print(f"n={n:>6} R={replicas:>3}  batch {row['batch_seconds']:.4f}s"
              f"  vs sequential loop: {row['intree_speedup']:.2f}x  "
              f"vs pre-batch tree: {before}  "
              f"({row['members_mean']:.1f} mean members / "
              f"{row['rounds_max']} max rounds)")

    report = {
        "benchmark": "batch",
        "scale": args.scale,
        "scenario": {"density": DENSITY, "k": K, "seed": args.seed},
        "acceptance": {
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
                (row["n"], row["replicas"])
                == (ACCEPTANCE_N, ACCEPTANCE_REPLICAS)):
            failed |= not record_check(
                report,
                title=f"acceptance at n={ACCEPTANCE_N} "
                      f"R={ACCEPTANCE_REPLICAS}",
                key="speedup_vs_before", passed_key="passed",
                speedup=row["speedup_vs_before"],
                threshold=ACCEPTANCE_SPEEDUP, vs="pre-batch")
    # The in-tree guard runs on the last (largest) cell of the scale.
    last = rows[-1]
    failed |= not record_check(
        report,
        title=f"in-tree guard at n={last['n']} R={last['replicas']}",
        key="intree_speedup", passed_key="guard_passed",
        speedup=last["intree_speedup"], threshold=guard,
        vs="sequential loop")
    if args.out:
        write_report(report, args.out)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
