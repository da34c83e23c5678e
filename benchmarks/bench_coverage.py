"""Coverage-plane benchmark: the native coverage matvec vs scipy.

The coverage plane — ``member_counts`` / ``member_counts_batch`` /
``deficit_vector`` / ``scatter_cover`` — is the per-epoch cost every
resident consumer pays: the maintenance loop's verify step, the service
snapshot capture, the demotion prefilter.  This PR ports it to the
compiled runtime behind the kernel provider registry
(:mod:`repro.engine.dispatch`); this benchmark times the same counts
both ways on one deployment:

- **numpy** — ``REPRO_KERNEL_BACKEND=numpy``: the scipy CSR matvec
  reference path, in-tree.
- **native** — ``REPRO_KERNEL_BACKEND=native``: the C kernel.  The
  batch shape is where the win lives: R replicas are laid out
  lane-interleaved ((n, R) uint8), so one gathered row index serves all
  R lanes through 16-wide uint16 accumulators.

Every row is asserted **bit-identical** across all measured providers
and across thread counts (1 vs 4) before any ratio is reported: 0/1
indicators make row sums exact small integers in any accumulation
order, so provider selection can only ever change speed.

The acceptance criterion — native >= 2x numpy on the replica-batched
row (R=16) at n=10^5 — is an in-tree check (both providers run from
this tree), recorded in ``BENCH_coverage.json`` and failed fast by CI.
Pass ``--before PATH/src`` pointing at a pre-registry checkout (e.g.
``git worktree add .bench-before <base>``) to additionally measure the
true before/after ratio of the public ``member_counts_batch`` entry
point in a subprocess.

The native runtime being unavailable is a hard **failure** here (exit
1), not a skip: this benchmark exists to certify the compiled plane.

Run standalone (no pytest needed)::

    PYTHONPATH=src python benchmarks/bench_coverage.py --scale smoke \
        --out BENCH_coverage.json

``--scale full`` runs the acceptance cell (n=10^5, R=16).
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager
from typing import Optional

import numpy as np

from repro import _native
from repro.engine import kernels
from repro.engine.artifacts import graph_artifacts
from repro.graphs.udg import random_udg

try:
    from benchmarks.bench_common import (record_check, run_before_scenario,
                                         timed_best, write_report)
except ImportError:  # run standalone: benchmarks/ itself is on sys.path
    from bench_common import (record_check, run_before_scenario, timed_best,
                              write_report)

SCALES = {
    # (n, replicas) cells; the guard is checked on the last cell.
    "smoke": {"cells": ((20_000, 16),), "guard": 1.5},
    "full": {"cells": ((20_000, 16), (100_000, 16)), "guard": 2.0},
}
#: The acceptance row: native vs numpy, in-tree, batch shape.
ACCEPTANCE_N = 100_000
ACCEPTANCE_REPLICAS = 16
ACCEPTANCE_SPEEDUP = 2.0

DENSITY = 10.0
MEMBER_FRACTION = 0.25

#: The scenario under a pre-registry tree: its public
#: ``member_counts_batch`` takes float indicators into the scipy
#: mat-mat (bool routing did not exist), so this times the true
#: before-path and cross-checks the counts it produces.
_SUBPROCESS_SCRIPT = r'''
import json, time
import numpy as np
from repro.engine import kernels
from repro.engine.artifacts import graph_artifacts
from repro.graphs.udg import random_udg
udg = random_udg({n}, density={density}, seed={seed})
art = graph_artifacts(udg)
rng = np.random.default_rng({mask_seed})
masks = rng.random(({replicas}, art.n)) < {fraction}
x = masks.astype(float)
counts = kernels.member_counts_batch(art, indicators=x)
times = []
for _ in range({repeats}):
    t0 = time.perf_counter()
    counts = kernels.member_counts_batch(art, indicators=x)
    times.append(time.perf_counter() - t0)
print(json.dumps({{"seconds": min(times),
                   "counts_sum": int(counts.sum()),
                   "counts_max": int(counts.max())}}))
'''


@contextmanager
def forced_backend(name: Optional[str]):
    """Run a block under one pinned REPRO_KERNEL_BACKEND value."""
    prev = os.environ.get("REPRO_KERNEL_BACKEND")
    try:
        if name is None:
            os.environ.pop("REPRO_KERNEL_BACKEND", None)
        else:
            os.environ["REPRO_KERNEL_BACKEND"] = name
        yield
    finally:
        if prev is None:
            os.environ.pop("REPRO_KERNEL_BACKEND", None)
        else:
            os.environ["REPRO_KERNEL_BACKEND"] = prev


def measure(n: int, replicas: int, *, seed: int, repeats: int,
            before_src: Optional[str]) -> dict:
    udg = random_udg(n, density=DENSITY, seed=seed)
    art = graph_artifacts(udg)
    rng = np.random.default_rng(seed + 1)
    masks = rng.random((replicas, art.n)) < MEMBER_FRACTION

    results = {}
    times = {}
    for name in ("numpy", "native"):
        with forced_backend(name):
            kernels.member_counts_batch(art, indicators=masks)  # warm
            t_batch, counts = timed_best(
                lambda: kernels.member_counts_batch(art, indicators=masks),
                repeats)
            t_single, single = timed_best(
                lambda: kernels.member_counts(art, indicator=masks[0]),
                repeats)
        results[name] = (counts, single)
        times[name] = (t_batch, t_single)

    ref_counts, ref_single = results["numpy"]
    for name, (counts, single) in results.items():
        if not np.array_equal(counts, ref_counts):
            raise AssertionError(f"{name} batch counts diverged from numpy")
        if not np.array_equal(single, ref_single):
            raise AssertionError(f"{name} single counts diverged from numpy")

    # Thread-count invariance: rows are the slab axis, every output
    # entry is written by exactly one thread, so any partition must
    # produce the same plane bit for bit.
    prev_threads = os.environ.get("REPRO_NATIVE_THREADS")
    try:
        with forced_backend("native"):
            for t in ("1", "4"):
                os.environ["REPRO_NATIVE_THREADS"] = t
                got = kernels.member_counts_batch(art, indicators=masks)
                if not np.array_equal(got, ref_counts):
                    raise AssertionError(
                        f"native counts diverged at {t} threads")
    finally:
        if prev_threads is None:
            os.environ.pop("REPRO_NATIVE_THREADS", None)
        else:
            os.environ["REPRO_NATIVE_THREADS"] = prev_threads

    numpy_batch, numpy_single = times["numpy"]
    native_batch, native_single = times["native"]
    row = {
        "n": art.n,
        "replicas": replicas,
        "edges": art.m,
        "numpy_batch_seconds": numpy_batch,
        "native_batch_seconds": native_batch,
        "batch_speedup": numpy_batch / native_batch
        if native_batch > 0 else None,
        "numpy_single_seconds": numpy_single,
        "native_single_seconds": native_single,
        "single_speedup": numpy_single / native_single
        if native_single > 0 else None,
        "before_seconds": None,
        "speedup_vs_before": None,
    }
    if before_src is not None:
        before = run_before_scenario(
            before_src, _SUBPROCESS_SCRIPT, n=n, density=DENSITY,
            seed=seed, mask_seed=seed + 1, fraction=MEMBER_FRACTION,
            replicas=replicas, repeats=repeats)
        if before["counts_sum"] != int(ref_counts.sum()) \
                or before["counts_max"] != int(ref_counts.max()):
            raise AssertionError("counts diverged from the pre-registry "
                                 "tree")
        row["before_seconds"] = before["seconds"]
        row["speedup_vs_before"] = (before["seconds"] / native_batch
                                    if native_batch > 0 else None)
    return row


def main(argv: Optional[list] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--scale", choices=sorted(SCALES), default="smoke")
    ap.add_argument("--out", default=None, help="write JSON results here")
    ap.add_argument("--repeats", type=int, default=5,
                    help="timing repeats per provider (best-of)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--before", default=None, metavar="SRC",
                    help="src/ directory of a pre-registry checkout; adds "
                         "the true before/after ratio")
    args = ap.parse_args(argv)

    if not _native.available():
        print("FAIL: the compiled kernels are unavailable — this benchmark "
              "certifies the native coverage plane and cannot run without "
              "it", file=sys.stderr)
        return 1

    cfg = SCALES[args.scale]
    rows = []
    for n, replicas in cfg["cells"]:
        row = measure(n, replicas, seed=args.seed, repeats=args.repeats,
                      before_src=args.before)
        rows.append(row)
        before = (f"{row['speedup_vs_before']:.2f}x"
                  if row["speedup_vs_before"] else "n/a")
        print(f"n={row['n']:>7} R={replicas:>3}  "
              f"native batch {row['native_batch_seconds'] * 1e3:8.2f}ms  "
              f"vs numpy: {row['batch_speedup']:.2f}x batch / "
              f"{row['single_speedup']:.2f}x single  "
              f"vs before tree: {before}")

    report = {
        "benchmark": "coverage",
        "scale": args.scale,
        "scenario": {"density": DENSITY, "member_fraction": MEMBER_FRACTION,
                     "seed": args.seed},
        "native_digest": _native.build_digest(),
        "native_threads": _native.thread_count(),
        "acceptance": {
            "n": ACCEPTANCE_N,
            "replicas": ACCEPTANCE_REPLICAS,
            "threshold": ACCEPTANCE_SPEEDUP,
            "guard": cfg["guard"],
        },
        "rows": rows,
    }
    failed = False
    for row in rows:
        if (row["n"], row["replicas"]) == (ACCEPTANCE_N,
                                           ACCEPTANCE_REPLICAS):
            failed |= not record_check(
                report,
                title=f"acceptance at n={ACCEPTANCE_N} "
                      f"R={ACCEPTANCE_REPLICAS}",
                key="batch_speedup", passed_key="passed",
                speedup=row["batch_speedup"],
                threshold=ACCEPTANCE_SPEEDUP, vs="numpy")
    # The guard runs on the last (largest) cell of the scale, so the
    # smoke leg still fails fast when the native plane decays.
    last = rows[-1]
    failed |= not record_check(
        report,
        title=f"in-tree guard at n={last['n']} R={last['replicas']}",
        key="guard_speedup", passed_key="guard_passed",
        speedup=last["batch_speedup"], threshold=cfg["guard"],
        vs="numpy")
    if args.out:
        write_report(report, args.out)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
