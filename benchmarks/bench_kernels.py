"""Kernel benchmark: the vectorized direct backend of Algorithm 3 vs
the per-node oracle loop (and vs the pre-kernel tree).

Runs ``solve_kmds_udg(mode="direct")`` — Part I election + Part II
adoption on the CSR kernel layer (:mod:`repro.engine.kernels`) with
batched PCG64 node streams (:mod:`repro.simulation.vecrng`) — on random
unit-disk graphs, and times the same computation two ways:

- **reference flag** — ``execute(..., "direct", reference=True)``:
  the per-node generator loop of the message protocol on the
  synchronous simulator (the one oracle), running in-tree.  Asserted
  to give the kernel run's members and round count before any speedup
  is reported (the loop also counts messages, which the kernels do
  not charge).
- **kernel** — the default direct path: scatter-max election over the
  flattened distance CSR, matvec coverage, incremental deficient
  frontier, and vectorized Lemire draws over all active node streams
  at once.

The in-tree flag ratio is not the before/after win: the oracle also
builds a process per node and delivers every message.  Pass ``--before
PATH/src`` pointing at a checkout of the pre-kernel tree (e.g. ``git
worktree add .bench-before <base>``) to measure the true before/after
ratio in a subprocess; the
acceptance threshold — kernel >= 10x the pre-kernel tree at n=10^4 —
is checked only then.  Without ``--before``, the in-tree flag ratio is
held to a regression guard (>= 50x at n=10^4) so CI fails fast if the
kernel path decays: the kernel reads several hundred times faster than
the per-node loop with the compiled kernels and about 170x under
``REPRO_KERNEL_BACKEND=numpy``, so 50x leaves 3x headroom on the slower
backend.

The largest size (n=10^5) is part of the *smoke* scale on purpose: the
run completing at all — with the same members and rounds across two
invocations — is an acceptance criterion of its own.

Run standalone (no pytest needed)::

    PYTHONPATH=src python benchmarks/bench_kernels.py --scale smoke \
        --out BENCH_kernels.json

``--scale full`` adds n=500 and raises the timing repeats.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Optional

from repro.core.udg import UDGProgram, solve_kmds_udg
from repro.engine import execute
from repro.graphs.udg import random_udg

try:
    from benchmarks.bench_common import (record_check, run_before_scenario,
                                         timed_best, write_report)
except ImportError:  # run standalone: benchmarks/ itself is on sys.path
    from bench_common import (record_check, run_before_scenario, timed_best,
                              write_report)

SCALES = {
    # sizes swept; the per-node oracle is skipped above the cap
    # (its per-node spawn alone costs seconds there).
    "smoke": {"sizes": (2000, 10_000, 100_000), "reference_cap": 10_000},
    "full": {"sizes": (500, 2000, 10_000, 100_000),
             "reference_cap": 10_000},
}
#: Acceptance thresholds, checked at this n when present in the sweep.
ACCEPTANCE_N = 10_000
ACCEPTANCE_SPEEDUP = 10.0     # vs the pre-kernel tree (--before)
INTREE_GUARD_SPEEDUP = 50.0   # vs the in-tree reference flag (always)

DENSITY = 10.0
K = 3

#: The scenario, as a standalone script: also run under the pre-kernel
#: tree's PYTHONPATH, so it uses only the original public entry point.
_SUBPROCESS_SCRIPT = r'''
import json, time
from repro.core.udg import solve_kmds_udg
from repro.graphs.udg import random_udg
udg = random_udg({n}, density={density}, seed={seed})
sol = solve_kmds_udg(udg, k={k}, mode="direct", seed={seed})
times = []
for _ in range({repeats}):
    t0 = time.perf_counter()
    sol = solve_kmds_udg(udg, k={k}, mode="direct", seed={seed})
    times.append(time.perf_counter() - t0)
print(json.dumps({{"seconds": min(times), "members_len": len(sol.members),
                   "members_sum": sum(sol.members),
                   "rounds": sol.stats.rounds,
                   "messages": sol.stats.messages_sent,
                   "bits": sol.stats.bits_sent}}))
'''


def timed_solve(udg, *, seed: int, repeats: int):
    """Best-of-``repeats`` wall time of the kernel path plus the result."""
    return timed_best(
        lambda: solve_kmds_udg(udg, k=K, mode="direct", seed=seed), repeats)


def timed_reference(udg, *, seed: int, repeats: int):
    """Best-of-``repeats`` wall time of the per-node oracle loop."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        program = UDGProgram(udg, K, "random", seed)
        t0 = time.perf_counter()
        result = execute(program, "direct", seed=seed, reference=True)
        best = min(best, time.perf_counter() - t0)
    return best, result


def assert_equivalent(reference_sol, kernel_sol) -> None:
    """Members and round counts must match exactly."""
    if reference_sol.members != kernel_sol.members:
        raise AssertionError("kernel members diverged from reference")
    if reference_sol.stats.rounds != kernel_sol.stats.rounds:
        raise AssertionError(
            f"rounds diverged: reference={reference_sol.stats.rounds} "
            f"kernel={kernel_sol.stats.rounds}")


def run_before(before_src: str, *, n: int, seed: int, repeats: int) -> dict:
    """Time the same scenario under the pre-kernel tree in a subprocess
    (its own import universe)."""
    return run_before_scenario(before_src, _SUBPROCESS_SCRIPT, n=n,
                               density=DENSITY, seed=seed, k=K,
                               repeats=repeats)


def measure(n: int, *, seed: int, repeats: int, run_reference: bool,
            before_src: Optional[str]) -> dict:
    udg = random_udg(n, density=DENSITY, seed=seed)
    # Warm once (distance CSR, artifact caches) before timing.
    solve_kmds_udg(udg, k=K, mode="direct", seed=seed)
    reps = repeats if n < 50_000 else 1
    kern_time, kern_sol = timed_solve(udg, seed=seed, repeats=reps)
    row = {
        "n": n,
        "k": K,
        "members": len(kern_sol.members),
        "rounds": kern_sol.stats.rounds,
        "messages": kern_sol.stats.messages_sent,
        "kernel_seconds": kern_time,
        "reference_seconds": None,
        "flag_speedup": None,
        "before_seconds": None,
        "speedup_vs_before": None,
    }
    if run_reference:
        ref_time, ref_sol = timed_reference(udg, seed=seed, repeats=reps)
        assert_equivalent(ref_sol, kern_sol)
        row["reference_seconds"] = ref_time
        row["flag_speedup"] = (ref_time / kern_time if kern_time > 0
                               else None)
    else:
        # No oracle at this size: at least pin determinism (two kernel
        # runs must agree).
        again = solve_kmds_udg(udg, k=K, mode="direct", seed=seed)
        assert_equivalent(again, kern_sol)
    if before_src is not None and n <= ACCEPTANCE_N:
        before = run_before(before_src, n=n, seed=seed, repeats=reps)
        if (before["members_len"], before["members_sum"]) != (
                len(kern_sol.members), sum(kern_sol.members)):
            raise AssertionError("kernel members diverged from "
                                 "pre-kernel tree")
        if (before["rounds"], before["messages"], before["bits"]) != (
                kern_sol.stats.rounds, kern_sol.stats.messages_sent,
                kern_sol.stats.bits_sent):
            raise AssertionError("RunStats diverged from pre-kernel tree")
        row["before_seconds"] = before["seconds"]
        row["speedup_vs_before"] = (before["seconds"] / kern_time
                                    if kern_time > 0 else None)
    return row


def main(argv: Optional[list] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--scale", choices=sorted(SCALES), default="smoke")
    ap.add_argument("--out", default=None, help="write JSON results here")
    ap.add_argument("--repeats", type=int, default=3,
                    help="timing repeats per configuration (best-of)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--before", default=None, metavar="SRC",
                    help="src/ directory of a pre-kernel checkout; "
                         "enables the 10x acceptance check")
    args = ap.parse_args(argv)

    cfg = SCALES[args.scale]
    rows = []
    for n in cfg["sizes"]:
        row = measure(n, seed=args.seed, repeats=args.repeats,
                      run_reference=n <= cfg["reference_cap"],
                      before_src=args.before)
        rows.append(row)
        flag = (f"{row['flag_speedup']:.2f}x" if row["flag_speedup"]
                else "skipped")
        before = (f"{row['speedup_vs_before']:.2f}x"
                  if row["speedup_vs_before"] else "n/a")
        print(f"n={n:>7}  kernel {row['kernel_seconds']:.4f}s  "
              f"vs reference flag: {flag}  vs pre-kernel tree: {before}  "
              f"({row['members']} members / {row['rounds']} rounds)")

    report = {
        "benchmark": "kernels",
        "scale": args.scale,
        "scenario": {"density": DENSITY, "k": K, "seed": args.seed},
        "acceptance": {
            "n": ACCEPTANCE_N,
            "threshold_vs_before": ACCEPTANCE_SPEEDUP,
            "intree_guard": INTREE_GUARD_SPEEDUP,
        },
        "rows": rows,
    }
    failed = False
    for row in rows:
        if row["n"] != ACCEPTANCE_N:
            continue
        if row["speedup_vs_before"] is not None:
            failed |= not record_check(
                report, title=f"acceptance at n={ACCEPTANCE_N}",
                key="speedup_vs_before", passed_key="passed",
                speedup=row["speedup_vs_before"],
                threshold=ACCEPTANCE_SPEEDUP, vs="pre-kernel")
        if row["flag_speedup"] is not None:
            failed |= not record_check(
                report, title=f"in-tree guard at n={ACCEPTANCE_N}",
                key="flag_speedup", passed_key="guard_passed",
                speedup=row["flag_speedup"],
                threshold=INTREE_GUARD_SPEEDUP, vs="reference flag")
    if args.out:
        write_report(report, args.out)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
