"""The repository benchmark: one workload per process, end to end or traced.

Run from the repository root::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 10 --trace 0

``--trace 0`` sets the workload up three times (``setup_s`` is the
median) and, spread over those set-ups, repeats deterministic passes of
timed ops until ``--seconds`` of passes have been measured.  A fixed
reference kernel is timed between ops, and every timing is scaled by it
to one host speed (see ``Reference``).
``--trace 1`` sets up and measures once untraced, then installs the
layer wrappers of ``tracing.py``, sets up and measures again, and
reports per-layer self-time shares, counts, the tracing overhead and
the unattributed share.  All load comes from this
one thread as a closed loop with one client; the native kernels run on
one thread unless ``REPRO_NATIVE_THREADS`` is set, and the environment
stamp records the count.

The last stdout line is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``); the lines above it print every metric by name
and unit.  Each run also writes a record to ``perfbench/out/`` (and the
traced run its spans).  Two more modes work on those records::

    python3 perfbench/run.py --aggregate perfbench/out/*-trace0.json
    python3 perfbench/run.py --compare perfbench/baseline.json NEW.json

``--compare`` refuses (exit 3) to compare runs whose kernel provider
maps differ, and exits 1 when an end-to-end metric is worse than its
bound in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUPS = 3

DISPATCH_ENTRIES = ("seed_lanes", "draw_masked", "elect_batch", "ball_phase",
                    "ball_adopt", "member_counts", "member_counts_batch",
                    "deficit_vector", "scatter_cover", "inbox_reduce",
                    "state_scatter")
QUERY_KINDS = ("covered", "k_deficit", "dominator_of", "who_covers")

#: Per-layer self-time shares (% of traced op wall time): metric -> spans.
SHARES = {
    "graphs.udg_build_pct": ("graphs.udg_build",),
    "artifacts.build_pct": ("artifacts.build",),
    "vecrng.seed_pct": ("vecrng.seed",),
    "udg.part1_pct": ("udg.part1",),
    "udg.part2_pct": ("udg.part2",),
    "udg.collect_pct": ("udg.collect",),
    "kernels.coverage_pct": ("kernels.coverage",),
    **{f"dispatch.{e}.pct": (f"dispatch.{e}",) for e in (
        "elect_batch", "ball_adopt", "member_counts_batch", "inbox_reduce",
        "state_scatter", "deficit_vector")},
    "network.build_pct": ("network.build",),
    "columnar.plan_pct": ("columnar.plan", "columnar.plan_lookup"),
    "columnar.run_pct": ("columnar.run", "columnar.try"),
    "steppers.advance_pct": ("steppers.advance",),
    "steppers.inbox_reduce_pct": ("steppers.inbox_reduce",),
    "faults.filter_pct": ("faults.filter",),
    "dynamics.churn_pct": ("dynamics.churn",),
    "dynamics.deficit_pct": ("dynamics.deficit",),
    "dynamics.repair_pct": ("dynamics.repair",),
    "service.publish_pct": ("service.publish",),
    "service.lazy_index_pct": ("service.lazy_index",),
    **{f"service.query_pct.{k}": (f"service.query.{k}",) for k in QUERY_KINDS},
}

#: Per-layer counts: metric -> tracer counter (or workload pass count).
COUNTS = {
    "graphs.udg_builds": "graphs.udg_build.calls",
    "artifacts.cache_misses": "artifacts.cache_misses",
    "artifacts.delta_patches": "artifacts.delta_patches",
    "artifacts.full_rebuilds": "artifacts.full_rebuilds",
    "vecrng.lanes": "vecrng.lanes",
    "udg.part1_rounds": "udg.part1_rounds",
    "udg.part2_iterations": "udg.part2_iterations",
    "kernels.coverage_calls": "kernels.coverage.calls",
    **{f"dispatch.{e}.{side}_calls": f"dispatch.{e}.{side}_calls"
       for e in DISPATCH_ENTRIES for side in ("native", "numpy")},
    "columnar.runs": "columnar.try.calls",
    "columnar.engaged_runs": "columnar.engaged_runs",
    "columnar.rounds": "columnar.rounds",
    "faults.dropped": "faults.dropped",
    "runner.round_cap_hits": "runner.round_cap_hits",
    "dynamics.events": "dynamics.events",
    "dynamics.promoted": "dynamics.promoted",
    "dynamics.touched": "dynamics.touched",
}


def fail(message: str, code: int = 2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail(f"{path.name} not found at the repository root")
    return json.loads(path.read_text())


def import_repro():
    """Put ``src/`` on the path and build the native kernels (untimed)."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        fail("no src/repro package next to perfbench/; run from a full "
             "checkout of the repository")
    sys.path.insert(0, str(ROOT / "src"))
    # One native thread: on a few shared cores a slab-threaded kernel
    # waits for its slowest thread, so its time tracks the neighbours'.
    os.environ.setdefault("REPRO_NATIVE_THREADS", "1")
    from repro import _native

    _native.available()


def env_stamp():
    import numpy as np
    from repro.engine.dispatch import provider_status

    status = provider_status()
    return {
        "providers": {e: v["provider"]
                      for e, v in status["entry_points"].items()},
        "backend": status["backend"],
        "native_digest": status["native"]["digest"],
        "native_threads": status["native"]["threads"],
        "REPRO_NATIVE_THREADS": os.environ.get("REPRO_NATIVE_THREADS"),
        "REPRO_KERNEL_BACKEND": os.environ.get("REPRO_KERNEL_BACKEND"),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


# ----------------------------------------------------------------------
# Measuring
# ----------------------------------------------------------------------

def release_caches():
    """Empty the per-graph artifact caches, as in a fresh process.

    Their weak keys are the graphs, but each cached value holds its
    graph strongly, so an entry outlives every other reference to it:
    without this each repeated set-up would keep the last one's graphs.
    """
    from repro.engine import artifacts

    artifacts._CACHE.clear()
    artifacts._STACK_CACHE.clear()
    gc.collect()


#: The reference kernel's time, in ms, on the host the metrics are
#: scaled to.
REF_MS = 1.0
#: One reference call per this much measured time (about 5% overhead).
REF_EVERY_S = 0.02


class Reference:
    """The tracer the workloads see: after each op it times a fixed
    kernel, once per ``REF_EVERY_S`` of elapsed time, to sample the
    host's speed at the same moments as the ops.

    On a shared host the speed of the same code drifts by up to 1.7x
    over minutes, and a 0.1-1 s op always sees the average contention
    of its time, so no statistic of op times alone repeats between runs.
    The kernel mixes interpreter work with numpy sorting and gathering,
    like the repository's code, and runs no repository code, so a change
    to the repository cannot move it.  Every timing is scaled to a host
    on which the kernel's 10th percentile is ``REF_MS``: each
    ``*_best_norm_ms`` is an op's best time (see ``workloads.best``) and
    ``setup_s`` the median of the set-ups, both times ``REF_MS`` over the
    kernel's 10th percentile in the same run.  The raw figures are
    printed beside them.
    """

    def __init__(self, tr):
        import numpy as np

        rng = np.random.default_rng(0)
        self._np = np
        self._values = rng.random(20_000)
        self._index = rng.integers(0, 20_000, 100_000)
        self._tr = tr
        self._last = None
        self.samples = []

    def __getattr__(self, attr):
        return getattr(self._tr, attr)

    def arm(self, on):
        """Sample only while passes are measured, never during set-up."""
        self._last = perf_counter() if on else None

    @contextmanager
    def op(self, name):
        with self._tr.op(name):
            yield
        if self._last is not None:
            due = int((perf_counter() - self._last) / REF_EVERY_S)
            if due:
                self.sample(min(due, 50))
                self._last = perf_counter()

    def sample(self, calls):
        for _ in range(calls):
            t0 = perf_counter()
            self.kernel()
            self.samples.append(perf_counter() - t0)

    def kernel(self):
        np = self._np
        acc = {}
        for i in range(2_000):
            acc[i & 63] = acc.get(i & 63, 0) + i
        order = np.argsort(self._values)
        return int(np.bincount(order[self._index] & 1023).sum()) + len(acc)


def measure(wl, seed, seconds, tr, setups):
    """Set up ``setups`` times and run passes for ``seconds`` in all.

    The passes are spread over the set-ups (each set-up is followed by
    passes until its share of ``seconds`` is measured), so the samples
    span the whole run rather than its last seconds: on a shared host
    the machine's speed drifts over seconds, and spreading the samples
    averages that drift.
    Every set-up builds the same inputs, so every pass must reproduce
    the first pass's fingerprints.
    """
    setup_s, passes, measured = [], [], 0.0
    ref = Reference(tr)
    for i in range(setups):
        inp = None
        release_caches()
        t0 = perf_counter()
        with tr.op("setup"):
            inp = wl.setup(seed, ref)
        setup_s.append(perf_counter() - t0)
        while not passes or measured < seconds * (i + 1) / setups:
            t0 = perf_counter()
            ref.arm(True)
            p = wl.run_pass(inp, ref, check=not passes)
            ref.arm(False)
            measured += perf_counter() - t0
            if passes:
                for op, first in zip(p.ops, passes[0].ops):
                    op.ok = op.ok and op.fingerprint == first.fingerprint
            else:
                tr.freeze_counts()
            passes.append(p)
    ref.sample(10 - len(ref.samples))
    generic, named = wl.metrics(passes)
    ref_ms = sorted(ref.samples)[len(ref.samples) // 10] * 1e3
    for role in ("bulk", "point"):
        raw = generic.pop(f"{role}_best_s")
        generic[f"{role}_best_norm_ms"] = raw * 1e3 * REF_MS / ref_ms
        named.append((f"{role}_best_raw_ms", raw * 1e3, "ms"))
    generic["setup_s"] = statistics.median(setup_s) * REF_MS / ref_ms
    named += [("setup_raw_s", statistics.median(setup_s), "s"),
              ("reference_p10_ms", ref_ms, "ms"),
              ("reference_samples", len(ref.samples), "count")]
    ops = [op for p in passes for op in p.ops]
    return {
        "metrics": generic,
        "named": named,
        "setup_samples": setup_s,
        "passes": passes,
        "digest": passes[0].digest(),
        "attempted": len(ops),
        "failed": sum(not op.ok for op in ops),
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def layer_metrics(tr, run, untraced):
    """The per-layer metrics of one traced run."""
    summary = tr.summary()
    counts = dict(tr.counts)
    counts.update(run["passes"][0].counts)
    wall = sum(summary["op_wall_s"].values())
    self_s = summary["self_s"]
    out = {}
    for metric, spans in SHARES.items():
        out[metric] = 100.0 * sum(self_s.get(s, 0.0) for s in spans) / wall
    for metric, key in COUNTS.items():
        out[metric] = counts.get(key, 0)
    out["columnar.plan_cache_hits"] = max(
        0, counts.get("columnar.plan_lookup.calls", 0)
        - counts.get("columnar.plan.calls", 0))
    ids = counts.get("maintain.ids", 0)
    out["service.unknown_id_share"] = (
        counts.get("maintain.unknown_ids", 0) / ids if ids else 0.0)
    out["trace.spans"] = len(tr.spans)
    out["trace.unattributed_pct"] = (
        100.0 * sum(summary["op_unattributed_s"].values()) / wall)
    for key, metric in (("bulk_best_norm_ms", "trace.overhead_bulk_pct"),
                        ("point_best_norm_ms", "trace.overhead_point_pct"),
                        ("setup_s", "trace.overhead_setup_pct")):
        base = untraced["metrics"][key]
        out[metric] = 100.0 * (run["metrics"][key] - base) / base
    return out, summary


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------

def print_named(run, spec, units, label=""):
    for name, value, unit in run["named"]:
        print(f"{label}{name:<34} {value:>16.6g} {unit}")
    for m in spec["end_to_end"]:
        value = run["metrics"][m["name"]]
        print(f"{label}{m['name']:<34} {value:>16.6g} {units[m['name']]}")


def run_workload(args, spec):
    import_repro()
    sys.path.insert(0, str(HERE))
    from tracing import NullTracer, Tracer
    from workloads import ROLES, WORKLOADS

    wl = WORKLOADS[args.workload]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    env = env_stamp()
    print(f"# perfbench workload={wl.name} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("# env " + json.dumps(env, sort_keys=True))
    for role, what in ROLES[wl.name].items():
        print(f"# {role}: {what}")

    OUT.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    if not args.trace:
        run = measure(wl, args.seed, args.seconds, NullTracer(), SETUPS)
        run["metrics"]["peak_rss_mb"] = peak_rss_mb()
        print_named(run, spec, units)
        metrics = {m["name"]: run["metrics"][m["name"]]
                   for m in spec["end_to_end"]}
        correct = run["failed"] == 0
        attempted, failed = run["attempted"], run["failed"]
        digest, extra = run["digest"], {}
    else:
        untraced = measure(wl, args.seed, args.seconds, NullTracer(), 1)
        untraced["metrics"]["peak_rss_mb"] = peak_rss_mb()
        gc.collect()
        tr = Tracer()
        tr.install()
        try:
            traced = measure(wl, args.seed, args.seconds, tr, 1)
        finally:
            tr.uninstall()
        traced["metrics"]["peak_rss_mb"] = peak_rss_mb()
        metrics, summary = layer_metrics(tr, traced, untraced)
        print_named(untraced, spec, units, "untraced ")
        print_named(traced, spec, units, "traced   ")
        print(f"# {'layer span':<30} {'self_s':>12} {'spans':>9}")
        for name, secs in summary["self_s"].items():
            print(f"# {name:<30} {secs:>12.6f} {summary['spans'][name]:>9}")
        for op, wall in summary["op_wall_s"].items():
            gap = summary["op_unattributed_s"][op]
            print(f"# op.{op:<27} wall {wall:.6f} s, unattributed "
                  f"{100 * gap / wall:.2f}%")
        for name in spec["per_layer"]:
            print(f"{name['name']:<34} {metrics[name['name']]:>16.6g} "
                  f"{name['unit']}")
        tr.dump(OUT / f"spans-{stem}.json")
        digest = traced["digest"]
        correct = (untraced["failed"] == 0 and traced["failed"] == 0
                   and untraced["digest"] == digest)
        attempted = untraced["attempted"] + traced["attempted"]
        failed = untraced["failed"] + traced["failed"]
        run = traced
        extra = {"layers": summary, "untraced": untraced["metrics"]}
    print(f"# digest {digest}")
    record = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "digest": digest,
        "metrics": metrics, "named": run["named"],
        "setup_samples": run["setup_samples"], "passes": len(run["passes"]),
        "correct": correct, "attempted": attempted, "failed": failed, **extra,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))


# ----------------------------------------------------------------------
# Baseline and comparison
# ----------------------------------------------------------------------

def aggregate(paths):
    """Fold untraced run records into one baseline document."""
    records = [json.loads(Path(p).read_text()) for p in paths]
    records = [r for r in records if not r["trace"]]
    if not records:
        fail("no untraced run records given")
    env = records[0]["env"]
    for r in records:
        if r["env"]["providers"] != env["providers"]:
            fail("refusing to aggregate runs whose provider maps differ", 3)
    out = {"env": env, "workloads": {}}
    for name in sorted({r["workload"] for r in records}):
        runs = [r for r in records if r["workload"] == name]
        entry = {"seeds": [r["seed"] for r in runs],
                 "digests": {str(r["seed"]): r["digest"] for r in runs},
                 "failed": sum(r["failed"] for r in runs),
                 "metrics": {}}
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric] for r in runs]
            q1, med, q3 = (statistics.quantiles(values, n=4)
                           if len(values) > 1 else (values[0],) * 3)
            entry["metrics"][metric] = {"median": med, "q1": q1, "q3": q3,
                                        "spread": (q3 - q1) / med}
        out["workloads"][name] = entry
    print(json.dumps(out, indent=1))


def _medians(doc):
    if "workloads" in doc:
        return {w: {m: v["median"] for m, v in e["metrics"].items()}
                for w, e in doc["workloads"].items()}
    return {doc["workload"]: doc["metrics"]}


def compare(base_path, new_path, spec):
    base = json.loads(Path(base_path).read_text())
    new = json.loads(Path(new_path).read_text())
    if base["env"]["providers"] != new["env"]["providers"]:
        diff = {e: (p, new["env"]["providers"].get(e))
                for e, p in base["env"]["providers"].items()
                if new["env"]["providers"].get(e) != p}
        fail(f"refusing to compare: kernel provider maps differ {diff}", 3)
    old_m, new_m = _medians(base), _medians(new)
    regressed = False
    for workload in sorted(set(old_m) & set(new_m)):
        for m in spec["end_to_end"]:
            name = m["name"]
            if name not in old_m[workload] or name not in new_m[workload]:
                continue
            old, cur = old_m[workload][name], new_m[workload][name]
            worse = (cur - old) / old if m["better"] == "lower" \
                else (old - cur) / old
            flag = worse > m["bound"]
            regressed |= flag
            print(f"{workload:<9} {name:<18} {old:>14.6g} -> {cur:>14.6g} "
                  f"{m['unit']:<6} worse by {100 * worse:+7.2f}% "
                  f"(bound {100 * m['bound']:.0f}%)"
                  f"{'  REGRESSION' if flag else ''}")
    sys.exit(1 if regressed else 0)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--aggregate", nargs="+", metavar="RECORD")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = parser.parse_args(argv)
    spec = load_spec()
    if args.aggregate:
        aggregate(args.aggregate)
    elif args.compare:
        compare(*args.compare, spec)
    elif args.workload in {w["name"] for w in spec["workloads"]}:
        run_workload(args, spec)
    else:
        fail(f"--workload must be one of "
             f"{[w['name'] for w in spec['workloads']]}")


if __name__ == "__main__":
    main()
