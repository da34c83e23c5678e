"""Message-mode protocol benchmark: columnar stepping plane vs the
per-node generator loop.

Runs Algorithm 1 (``FractionalProgram``, ``mode="message"``) on random
unit-disk graphs and times the same execution two ways:

- **reference flag** — ``execute(..., reference=True)``: the
  original per-node path (one ``ProtocolNode.step`` generator
  resumption per node per round, a Python inbox loop per receiver),
  running in-tree.  This is the bit-identity oracle: its ``x`` and
  ``RunStats`` are asserted identical to the batched run before any
  speedup is reported.
- **batched** — the default columnar protocol plane
  (``repro.simulation.columnar`` + ``.steppers``): one
  ``ColumnarStepper.advance`` per round over lane-major state arrays,
  inbox reductions as CSR segment-reductions through
  ``repro.engine.dispatch`` (native C, threaded).

The in-tree flag here *is* the honest
baseline — the per-node path is retained verbatim, so the flag ratio
measures exactly what the stepping plane replaced.  ``--before
PATH/src`` (e.g. ``git worktree add .bench-before <base>``) additionally
times the pre-stepper tree in a subprocess for an end-to-end
cross-check; its stats are asserted identical too.

Acceptance: batched >= 5x the per-node reference at n=10000 (the
``--scale full`` sweep); CI's perf-smoke holds the n=2000 cell to a
fail-fast >= 3x guard.

Run standalone (no pytest needed)::

    PYTHONPATH=src python benchmarks/bench_message.py --scale smoke \
        --out BENCH_message.json
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from repro.core.fractional import FractionalProgram, _resolve_instance
from repro.engine import execute
from repro.graphs import feasible_coverage
from repro.graphs.udg import random_udg

try:
    from benchmarks.bench_common import (record_check, run_before_scenario,
                                         timed_best, write_report)
except ImportError:  # run standalone: benchmarks/ itself is on sys.path
    from bench_common import (record_check, run_before_scenario, timed_best,
                              write_report)

SCALES = {
    # sizes swept; the per-node reference is timed at every size (it is
    # slow but runnable even at n=10000 on the columnar transport).
    "smoke": {"sizes": (500, 2000)},
    "full": {"sizes": (500, 2000, 10_000)},
}
#: Acceptance thresholds, checked at these n when present in the sweep.
ACCEPTANCE_N = 10_000
ACCEPTANCE_SPEEDUP = 5.0      # vs the in-tree per-node reference
GUARD_N = 2000
GUARD_SPEEDUP = 3.0           # CI perf-smoke fail-fast guard

#: UDG radius per size.
RADIUS = {500: 0.11, 2000: 0.05, 10_000: 0.022}

#: The scenario as a standalone script, run under the pre-stepper
#: tree's PYTHONPATH (which predates the reference flag, so its
#: default message path *is* the per-node loop).
_SUBPROCESS_SCRIPT = r'''
import json, time
from repro.core.fractional import FractionalProgram, _resolve_instance
from repro.engine import execute
from repro.graphs import feasible_coverage
from repro.graphs.udg import random_udg
udg = random_udg({n}, radius={radius}, seed={seed})
cov = feasible_coverage(udg, 2)
lp = _resolve_instance(udg, None, cov)
prog = FractionalProgram(lp, t={t}, compute_duals=False)
sol = execute(prog, "message", seed=0)
times = []
for _ in range({repeats}):
    t0 = time.perf_counter()
    sol = execute(prog, "message", seed=0)
    times.append(time.perf_counter() - t0)
print(json.dumps({{"seconds": min(times), "x_checksum": sum(sol.x.values()),
                   "messages": sol.stats.messages_sent,
                   "rounds": sol.stats.rounds,
                   "bits": sol.stats.bits_sent}}))
'''


def build_program(n: int, *, t: int, seed: int) -> FractionalProgram:
    udg = random_udg(n, radius=RADIUS.get(n, 0.05), seed=seed)
    cov = feasible_coverage(udg, 2)
    lp = _resolve_instance(udg, None, cov)
    return FractionalProgram(lp, t=t, compute_duals=False)


def check_stepper_engaged(*, t: int, seed: int) -> None:
    """Fail loudly if the stepping plane would not actually resolve for
    this scenario — a silent per-node fallback would time the reference
    against itself and report a meaningless 1x."""
    from repro.simulation.columnar import resolve_stepper
    from repro.simulation.network import SynchronousNetwork

    program = build_program(200, t=t, seed=seed)
    net = SynchronousNetwork(program.network_graph, program.processes(),
                             seed=seed, **program.network_kwargs)
    if resolve_stepper(net, []) is None:
        raise RuntimeError("no columnar stepper resolved for the stock "
                           "FractionalProgram scenario")


def timed_execute(program, *, seed: int, reference: bool, repeats: int):
    """Best-of-``repeats`` wall time plus the (identical) result."""
    return timed_best(
        lambda: execute(program, "message", seed=seed, reference=reference),
        repeats)


def assert_equivalent(reference_sol, batched_sol) -> None:
    """Solutions and RunStats must match exactly — bit-identical floats
    and identical rounds/messages/bits."""
    if reference_sol.x != batched_sol.x:
        raise AssertionError("batched x diverged from per-node reference")
    rs, bs = reference_sol.stats, batched_sol.stats
    for field in ("rounds", "messages_sent", "bits_sent", "max_message_bits"):
        rv, bv = getattr(rs, field), getattr(bs, field)
        if rv != bv:
            raise AssertionError(
                f"RunStats.{field} diverged: reference={rv} batched={bv}")


def run_before(before_src: str, *, n: int, t: int, seed: int,
               repeats: int) -> dict:
    """Time the same scenario under the pre-stepper tree in a
    subprocess (its own import universe)."""
    return run_before_scenario(before_src, _SUBPROCESS_SCRIPT, n=n,
                               radius=RADIUS.get(n, 0.05), seed=seed, t=t,
                               repeats=repeats)


def measure(n: int, *, t: int, seed: int, repeats: int,
            before_src: Optional[str]) -> dict:
    program = build_program(n, t=t, seed=seed)
    # Warm once (artifact caches, kernel dispatch, bit interning).
    execute(program, "message", seed=seed)
    bat_time, bat_sol = timed_execute(program, seed=seed, reference=False,
                                      repeats=repeats)
    ref_time, ref_sol = timed_execute(program, seed=seed, reference=True,
                                      repeats=repeats)
    assert_equivalent(ref_sol, bat_sol)
    row = {
        "n": n,
        "t": t,
        "rounds": bat_sol.stats.rounds,
        "messages": bat_sol.stats.messages_sent,
        "total_bits": bat_sol.stats.bits_sent,
        "batched_seconds": bat_time,
        "reference_seconds": ref_time,
        "reference_speedup": ref_time / bat_time if bat_time > 0 else None,
        "before_seconds": None,
        "speedup_vs_before": None,
    }
    if before_src is not None:
        before = run_before(before_src, n=n, t=t, seed=seed, repeats=repeats)
        if before["x_checksum"] != sum(bat_sol.x.values()):
            raise AssertionError("batched x diverged from pre-stepper tree")
        if (before["messages"], before["rounds"], before["bits"]) != (
                bat_sol.stats.messages_sent, bat_sol.stats.rounds,
                bat_sol.stats.bits_sent):
            raise AssertionError("RunStats diverged from pre-stepper tree")
        row["before_seconds"] = before["seconds"]
        row["speedup_vs_before"] = (before["seconds"] / bat_time
                                    if bat_time > 0 else None)
    return row


def main(argv: Optional[list] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--scale", choices=sorted(SCALES), default="smoke")
    ap.add_argument("--out", default=None, help="write JSON results here")
    ap.add_argument("--repeats", type=int, default=3,
                    help="timing repeats per configuration (best-of)")
    ap.add_argument("--t", type=int, default=3)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--before", default=None, metavar="SRC",
                    help="src/ directory of a pre-stepper checkout; "
                         "adds the end-to-end cross-check column")
    args = ap.parse_args(argv)

    check_stepper_engaged(t=args.t, seed=args.seed)
    rows = []
    for n in SCALES[args.scale]["sizes"]:
        row = measure(n, t=args.t, seed=args.seed, repeats=args.repeats,
                      before_src=args.before)
        rows.append(row)
        before = (f"{row['speedup_vs_before']:.2f}x"
                  if row["speedup_vs_before"] else "n/a")
        print(f"n={n:>6}  batched {row['batched_seconds']:.3f}s  "
              f"vs per-node reference: {row['reference_speedup']:.2f}x  "
              f"vs pre-stepper tree: {before}  "
              f"({row['messages']} msgs / {row['rounds']} rounds)")

    report = {
        "benchmark": "message",
        "scale": args.scale,
        "acceptance": {
            "n": ACCEPTANCE_N,
            "threshold_vs_reference": ACCEPTANCE_SPEEDUP,
            "guard_n": GUARD_N,
            "guard_threshold": GUARD_SPEEDUP,
        },
        "rows": rows,
    }
    failed = False
    for row in rows:
        if row["reference_speedup"] is None:
            continue
        if row["n"] == ACCEPTANCE_N:
            failed |= not record_check(
                report, title=f"acceptance at n={ACCEPTANCE_N}",
                key="reference_speedup", passed_key="passed",
                speedup=row["reference_speedup"],
                threshold=ACCEPTANCE_SPEEDUP, vs="per-node reference")
        elif row["n"] == GUARD_N:
            failed |= not record_check(
                report, title=f"perf-smoke guard at n={GUARD_N}",
                key="guard_speedup", passed_key="guard_passed",
                speedup=row["reference_speedup"],
                threshold=GUARD_SPEEDUP, vs="per-node reference")
    if args.out:
        write_report(report, args.out)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
