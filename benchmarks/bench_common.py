"""Shared scaffolding for the standalone benchmark scripts.

Every performance benchmark in this directory reports a before/after
ratio the same way:

- **best-of-N timing** (:func:`timed_best`) — wall-clock noise on a
  shared CI runner is one-sided, so the minimum over repeats is the
  honest estimate of the code's cost;
- **the ``--before`` worktree methodology**
  (:func:`run_before_scenario`) — the *true* baseline is the pre-change
  tree, not an in-tree compatibility flag (flags share the current
  tree's unrelated improvements and understate the win).  The scenario
  is rendered as a small self-contained script that uses only the old
  tree's public entry points and runs under ``PYTHONPATH=<before>/src``
  in a subprocess, so the two trees never share an import universe.
  Point ``--before`` at e.g. ``git worktree add .bench-before <base>``;
- **a JSON report** (:func:`write_report`) with recorded acceptance
  checks (:func:`record_check`) so CI can fail fast on regressions and
  archive the numbers as artifacts.

Every ``bench_*.py`` script here except ``bench_micro`` builds on it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from typing import Any, Callable, Dict, Tuple


def timed_best(fn: Callable[[], Any], repeats: int) -> Tuple[float, Any]:
    """Best-of-``repeats`` wall time of ``fn()`` plus its (last) result.

    The result of every call must be identical (the benchmarks assert
    bit-equality separately); only the fastest timing is kept.
    """
    best = float("inf")
    result = None
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def run_before_scenario(before_src: str, script_template: str,
                        **fmt: Any) -> Dict[str, Any]:
    """Time a scenario under another tree in a subprocess.

    ``script_template`` is a ``str.format`` template of a standalone
    script that prints one JSON line (its measurements) as its final
    stdout line; ``fmt`` fills the scenario parameters.  The script runs
    under ``PYTHONPATH=before_src`` so it imports the *other* tree's
    modules — its own import universe, no contamination from the
    current tree.  Returns the parsed JSON measurements.
    """
    script = script_template.format(**fmt)
    env = dict(os.environ, PYTHONPATH=before_src)
    out = subprocess.run([sys.executable, "-c", script],
                         capture_output=True, text=True, env=env)
    if out.returncode != 0:
        raise RuntimeError(f"--before run failed:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def write_report(report: Dict[str, Any], out_path: str) -> None:
    """Write the benchmark's JSON report and say where it went."""
    with open(out_path, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(f"wrote {out_path}")


def record_check(report: Dict[str, Any], *, title: str, key: str,
                 passed_key: str, speedup: float, threshold: float,
                 vs: str) -> bool:
    """Record one speedup acceptance check in ``report["acceptance"]``,
    print its PASS/FAIL line, and return whether it passed."""
    ok = speedup >= threshold
    report["acceptance"][key] = speedup
    report["acceptance"][passed_key] = ok
    print(f"{title}: {'PASS' if ok else 'FAIL'} "
          f"({speedup:.2f}x vs >={threshold}x {vs})")
    return ok
