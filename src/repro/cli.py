"""Command-line interface: ``repro <command>`` (or ``python -m repro``).

Commands
--------
``repro demo``
    End-to-end walkthrough on a random sensor deployment.
``repro solve-udg --n 500 --k 3``
    Cluster a random unit-disk deployment with Algorithm 3.
``repro solve-general --n 200 --p 0.05 --k 2 --t 3``
    Cluster a random general graph with Algorithms 1+2.
``repro solve-weighted --n 150 --k 2 --spread 10``
    Weighted k-MDS (random node costs) with the weighted pipeline.
``repro visualize --n 250 --k 3 --out ./svg``
    Render a clustered deployment and the Part I dynamics to SVG.
``repro dynamics --n 500 --k 3 --epochs 50 --policy local``
    Maintain a k-fold dominating set under churn (repro.dynamics).
``repro serve --n 2000 --k 3 --epochs 20 --clients 2``
    Run the coverage service: resident maintenance loop + query daemon
    (repro.service), with a built-in load generator and a metrics
    report on shutdown (SIGINT/SIGTERM drain gracefully).
``repro kernels``
    Show the kernel provider registry: which provider (native C /
    numpy) serves each hot entry point under the current
    ``REPRO_KERNEL_BACKEND`` selection; exits 1 when a forced provider
    leaves an entry point unavailable.
``repro experiment e1 [--scale full] [--seed 0] [--json out.json]``
    Run one of the E1-E23 experiments and print its report.
``repro report --out EXPERIMENTS.md --scale full``
    Regenerate the whole EXPERIMENTS.md.
``repro experiment all``
    Run the whole suite.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis.reporting import format_table
from repro.core.general import solve_kmds_general
from repro.engine import BACKENDS
from repro.core.udg import solve_kmds_udg
from repro.core.verify import is_k_dominating_set, redundancy_profile
from repro.dynamics.repair import REPAIR_POLICIES
from repro.experiments import EXPERIMENTS, run_experiment
from repro.graphs.generators import gnp_graph
from repro.graphs.properties import feasible_coverage, graph_summary
from repro.graphs.udg import random_udg


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=("Fault-tolerant clustering in ad hoc and sensor "
                     "networks (Kuhn, Moscibroda, Wattenhofer; ICDCS 2006)"),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="end-to-end walkthrough")
    demo.add_argument("--seed", type=int, default=0)

    udg = sub.add_parser("solve-udg", help="Algorithm 3 on a random UDG")
    udg.add_argument("--n", type=int, default=500)
    udg.add_argument("--density", type=float, default=10.0)
    udg.add_argument("--k", type=int, default=3)
    udg.add_argument("--mode", choices=BACKENDS, default="direct")
    udg.add_argument("--seed", type=int, default=0)

    gen = sub.add_parser("solve-general",
                         help="Algorithms 1+2 on a random graph")
    gen.add_argument("--n", type=int, default=200)
    gen.add_argument("--p", type=float, default=0.05)
    gen.add_argument("--k", type=int, default=2)
    gen.add_argument("--t", type=int, default=3)
    gen.add_argument("--mode", choices=BACKENDS, default="direct")
    gen.add_argument("--seed", type=int, default=0)

    wgt = sub.add_parser("solve-weighted",
                         help="weighted k-MDS on a random graph")
    wgt.add_argument("--n", type=int, default=150)
    wgt.add_argument("--p", type=float, default=0.06)
    wgt.add_argument("--k", type=int, default=2)
    wgt.add_argument("--t", type=int, default=3)
    wgt.add_argument("--spread", type=float, default=10.0,
                     help="weights drawn from U(1, spread)")
    wgt.add_argument("--seed", type=int, default=0)

    viz = sub.add_parser("visualize",
                         help="render a clustered deployment to SVG")
    viz.add_argument("--n", type=int, default=250)
    viz.add_argument("--density", type=float, default=10.0)
    viz.add_argument("--k", type=int, default=3)
    viz.add_argument("--out", default=".")
    viz.add_argument("--seed", type=int, default=0)

    def _add_churn_args(p: argparse.ArgumentParser) -> None:
        """The shared scenario knobs of ``dynamics`` and ``serve``."""
        p.add_argument("--n", type=int, default=500)
        p.add_argument("--density", type=float, default=10.0)
        p.add_argument("--k", type=int, default=3)
        p.add_argument("--epochs", type=int, default=50)
        p.add_argument("--policy", choices=REPAIR_POLICIES, default="local")
        p.add_argument("--kill", type=float, default=0.2,
                       help="fraction of the initial dominators killed "
                            "over the run")
        p.add_argument("--target", choices=("dominators", "any"),
                       default="dominators",
                       help="whether crashes strike dominators or any node")
        p.add_argument("--joins", type=float, default=0.0,
                       help="expected node joins per epoch (Poisson)")
        p.add_argument("--battery", type=float, default=0.0,
                       help="per-epoch battery drain (dominators drain 3x)")
        p.add_argument("--mobility", type=float, default=0.0,
                       help="Gaussian-drift speed per epoch (0 = static)")
        p.add_argument("--shards", type=int, default=None,
                       help="decompose repair into damage units on an "
                            "NxN shard grid (requires a shardable policy)")
        p.add_argument("--workers", type=int, default=1,
                       help="pool size for sharded repair dispatch")
        p.add_argument("--executor", choices=("thread", "process"),
                       default="thread",
                       help="shard dispatch engine: in-process threads or "
                            "a shared-memory process pool")
        p.add_argument("--seed", type=int, default=0)

    dyn = sub.add_parser("dynamics",
                         help="self-healing maintenance under churn")
    _add_churn_args(dyn)
    dyn.add_argument("--tail", type=int, default=10,
                     help="print the last TAIL epoch records")
    dyn.add_argument("--json", dest="json_path", default=None,
                     help="also write the timeline summary + tail records "
                          "as JSON to this path")

    srv = sub.add_parser("serve",
                         help="coverage-as-a-service daemon + load "
                              "generator")
    _add_churn_args(srv)
    srv.add_argument("--clients", type=int, default=2,
                     help="load-generator client threads")
    srv.add_argument("--batch", type=int, default=1024,
                     help="query batch size per client request")
    srv.add_argument("--epoch-interval", type=float, default=0.0,
                     help="seconds between churn epochs (0 = continuous)")
    srv.add_argument("--json", dest="json_path", default=None,
                     help="also write the service metrics report as JSON "
                          "to this path")

    ker = sub.add_parser("kernels",
                         help="kernel provider registry status")
    ker.add_argument("--json", dest="json_path", default=None,
                     help="also write the provider status as JSON to "
                          "this path")

    rep = sub.add_parser("report",
                         help="regenerate EXPERIMENTS.md from scratch")
    rep.add_argument("--out", default="EXPERIMENTS.md")
    rep.add_argument("--scale", choices=("quick", "full"), default="full")
    rep.add_argument("--seed", type=int, default=0)

    exp = sub.add_parser("experiment", help="run E1-E23 experiments")
    exp.add_argument("experiment_id",
                     help=f"one of {sorted(EXPERIMENTS)} or 'all'")
    exp.add_argument("--scale", choices=("quick", "full"), default="quick")
    exp.add_argument("--seed", type=int, default=0)
    exp.add_argument("--replicas", type=int, default=None,
                     help="seed-replication count for experiments with a "
                          "batched replication axis (E6/E7/E9); runs as "
                          "one replica-batched kernel pass")
    exp.add_argument("--markdown", action="store_true",
                     help="emit EXPERIMENTS.md-style markdown")
    exp.add_argument("--json", dest="json_path", default=None,
                     help="also write the report(s) as JSON to this path")
    return parser


def _cmd_demo(args) -> int:
    print("Fault-tolerant clustering demo")
    print("==============================")
    udg = random_udg(400, density=10.0, seed=args.seed)
    print(f"Deployment: {udg} — {graph_summary(udg)}")
    for k in (1, 3):
        ds = solve_kmds_udg(udg, k=k, seed=args.seed)
        prof = redundancy_profile(udg, ds.members)
        print(f"  k={k}: |DS|={len(ds)}  rounds={ds.stats.rounds}  "
              f"coverage min/mean={prof['min']:.0f}/{prof['mean']:.2f}  "
              f"valid={is_k_dominating_set(udg, ds.members, k)}")
    g = gnp_graph(150, 0.06, seed=args.seed)
    cov = feasible_coverage(g, 2)
    res = solve_kmds_general(g, coverage=cov, t=3, seed=args.seed)
    print(f"General graph G(150, 0.06): |DS|={res.size} "
          f"(fractional {res.fractional.objective:.1f}), "
          f"rounds={res.stats.rounds}, "
          f"valid={is_k_dominating_set(g, res.members, cov, convention='closed')}")
    return 0


def _cmd_solve_udg(args) -> int:
    udg = random_udg(args.n, density=args.density, seed=args.seed)
    ds = solve_kmds_udg(udg, k=args.k, mode=args.mode, seed=args.seed)
    valid = is_k_dominating_set(udg, ds.members, args.k)
    rows = [
        ("nodes", udg.n),
        ("edges", udg.number_of_edges()),
        ("k", args.k),
        ("dominators", len(ds)),
        ("rounds", ds.stats.rounds),
        ("messages", ds.stats.messages_sent),
        ("max message bits", ds.stats.max_message_bits),
        ("valid", valid),
    ]
    print(format_table(["metric", "value"], rows))
    return 0 if valid else 1


def _cmd_solve_general(args) -> int:
    g = gnp_graph(args.n, args.p, seed=args.seed)
    cov = feasible_coverage(g, args.k)
    res = solve_kmds_general(g, coverage=cov, t=args.t, mode=args.mode,
                             seed=args.seed)
    valid = is_k_dominating_set(g, res.members, cov, convention="closed")
    rows = [
        ("nodes", g.number_of_nodes()),
        ("edges", g.number_of_edges()),
        ("k", args.k),
        ("t", args.t),
        ("fractional objective", round(res.fractional.objective, 2)),
        ("dominators", res.size),
        ("rounds", res.stats.rounds),
        ("messages", res.stats.messages_sent),
        ("valid", valid),
    ]
    print(format_table(["metric", "value"], rows))
    return 0 if valid else 1


def _cmd_solve_weighted(args) -> int:
    import numpy as np

    from repro.weighted import (
        solve_weighted_kmds,
        weighted_greedy_kmds,
        weighted_lp_optimum,
    )

    g = gnp_graph(args.n, args.p, seed=args.seed)
    cov = feasible_coverage(g, args.k)
    rng = np.random.default_rng(args.seed)
    weights = {v: float(rng.uniform(1.0, args.spread)) for v in g.nodes}
    ds = solve_weighted_kmds(g, weights, coverage=cov, t=args.t,
                             seed=args.seed)
    greedy = weighted_greedy_kmds(g, weights, cov, convention="closed")
    lp = weighted_lp_optimum(g, weights, cov, convention="closed")
    valid = is_k_dominating_set(g, ds.members, cov, convention="closed")
    rows = [
        ("nodes", g.number_of_nodes()),
        ("k / t", f"{args.k} / {args.t}"),
        ("pipeline cost", round(ds.details["cost"], 2)),
        ("fractional cost", round(ds.details["fractional_cost"], 2)),
        ("greedy cost", round(greedy.details["cost"], 2)),
        ("LP lower bound", round(lp.objective, 2)),
        ("valid", valid),
    ]
    print(format_table(["metric", "value"], rows))
    return 0 if valid else 1


def _cmd_visualize(args) -> int:
    import pathlib

    from repro.core.udg import part_one_leaders
    from repro.viz import render_deployment_svg, render_series_svg

    out_dir = pathlib.Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    udg = random_udg(args.n, density=args.density, seed=args.seed)
    ds = solve_kmds_udg(udg, k=args.k, seed=args.seed)
    path = out_dir / f"deployment_k{args.k}.svg"
    path.write_text(render_deployment_svg(
        udg, dominators=ds.members, show_coverage=args.k > 1,
        title=f"{udg.n} sensors, k={args.k}: {len(ds)} cluster heads"))
    print(f"wrote {path} ({len(ds)} dominators)")
    p1 = part_one_leaders(udg, seed=args.seed)
    decay_path = out_dir / "active_decay.svg"
    decay_path.write_text(render_series_svg(
        {f"n={args.n}": p1.details["active_per_round"]},
        x_label="Part I round", y_label="active nodes",
        title="Active-node decay"))
    print(f"wrote {decay_path}")
    return 0


def _build_churn_scenario(args):
    """The shared ``dynamics`` / ``serve`` scenario: crash churn plus
    the optional battery / joins / mobility streams."""
    from repro.dynamics import (
        BatteryDecay,
        MobilityRewiring,
        PoissonJoins,
        crash_scenario,
    )
    from repro.graphs.mobility import GaussianDrift

    scenario = crash_scenario(args.n, k=args.k, epochs=args.epochs,
                              kill_fraction=args.kill, density=args.density,
                              target=args.target, seed=args.seed)
    side = float(scenario.initial.points.max()) if args.n else 1.0
    streams = list(scenario.streams)
    if args.battery > 0:
        streams.append(BatteryDecay(args.battery, 2 * args.battery,
                                    seed=args.seed + 2))
    if args.joins > 0:
        streams.append(PoissonJoins(args.joins, side, seed=args.seed + 3))
    if args.mobility > 0:
        streams.append(MobilityRewiring(
            GaussianDrift(args.mobility, seed=args.seed + 4), side))
    scenario.streams = streams
    return scenario


def _cmd_dynamics(args) -> int:
    from repro.dynamics import make_policy, run_scenario

    scenario = _build_churn_scenario(args)
    result = run_scenario(scenario, make_policy(args.policy),
                          shards=args.shards, workers=args.workers,
                          executor=args.executor)
    columns = ["epoch", "n_live", "n_members", "crashes",
               "deficient_before", "availability_before", "repaired",
               "rounds", "messages", "touched", "drift",
               "fully_covered_after"]
    rows = [
        [f"{c:.3f}" if isinstance(c, float) else c for c in row]
        for row in result.timeline.as_rows(columns)[-max(0, args.tail):]
    ]
    print(f"scenario={result.scenario} policy={result.policy} "
          f"k={result.k} epochs={len(result.timeline)}")
    print(format_table(columns, rows))
    print()
    summary = result.summary
    print(format_table(["metric", "value"], [
        ("mean availability", f"{summary['availability_mean']:.4f}"),
        ("min availability", f"{summary['availability_min']:.4f}"),
        ("epochs fully covered", f"{summary['fully_covered_fraction']:.2%}"),
        ("uncovered epochs", summary["uncovered_epochs"]),
        ("repairs", summary["repairs"]),
        ("messages total", summary["messages_total"]),
        ("rounds total", summary["rounds_total"]),
        ("touched per repair", f"{summary['touched_per_repair']:.1f}"),
        ("dominator drift", summary["drift_total"]),
        ("final live / members",
         f"{len(result.final_live)} / {len(result.final_members)}"),
    ]))
    if args.json_path:
        import json
        import pathlib

        payload = {
            "scenario": result.scenario,
            "policy": result.policy,
            "k": result.k,
            "epochs": len(result.timeline),
            "always_covered": result.always_covered,
            "summary": result.summary,
            "tail": result.timeline.to_dicts()[-max(0, args.tail):],
            "final_live": len(result.final_live),
            "final_members": len(result.final_members),
            "verify": result.verify_paths,
        }
        pathlib.Path(args.json_path).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.json_path}")
    return 0 if result.always_covered or args.policy == "lazy" else 1


def _cmd_serve(args) -> int:
    from repro.dynamics import MaintenanceLoop, make_policy
    from repro.service import CoverageDaemon, CoverageService, LoadGenerator

    scenario = _build_churn_scenario(args)
    loop = MaintenanceLoop(scenario, make_policy(args.policy),
                           shards=args.shards, workers=args.workers,
                           executor=args.executor)
    service = CoverageService(loop)
    daemon = CoverageDaemon(service, max_epochs=args.epochs,
                            epoch_interval=args.epoch_interval)
    daemon.install_signal_handlers()
    daemon.start()
    snap = service.current()
    print(f"serving n={snap.n} k={snap.k} members={snap.members} "
          f"policy={args.policy} epochs={args.epochs} "
          f"clients={args.clients} batch={args.batch} "
          f"(SIGINT/SIGTERM drains)")
    generator = LoadGenerator(daemon, batch=args.batch,
                              clients=args.clients, seed=args.seed)
    generator.start()
    # Serve until the writer exhausts its epoch budget — or a signal
    # flips the drain flag early.
    while not daemon.wait_for_writer(timeout=0.2):
        if daemon.draining:
            break
    generator.stop()
    report = daemon.drain()
    final = service.current()

    print()
    print(format_table(["metric", "value"], [
        ("epochs published", report["epochs_published"]),
        ("final epoch covered", final.fully_covered),
        ("queries answered", report["queries"]),
        ("batches", report["batches"]),
        ("throughput (queries/s)", f"{report['qps']:,.0f}"),
        ("p50 batch latency", f"{report['p50_batch_ms']:.3f} ms"),
        ("p99 batch latency", f"{report['p99_batch_ms']:.3f} ms"),
        ("max epoch lag", report["max_epoch_lag"]),
        ("dominator index carried / built",
         f"{report['dominator_index']['carried']} / "
         f"{sum(report['dominator_index']['built'].values())}"),
        ("last snapshot age", f"{report['last_snapshot_age_s']:.3f} s"),
        ("serving time", f"{report['duration_s']:.2f} s"),
    ]))
    if args.json_path:
        import json
        import pathlib

        from repro.engine.dispatch import provider_status

        payload = {
            "config": {
                "n": args.n, "k": args.k, "epochs": args.epochs,
                "policy": args.policy, "shards": args.shards,
                "workers": args.workers, "executor": args.executor,
                "clients": args.clients, "batch": args.batch,
                "seed": args.seed,
            },
            "snapshot": final.describe(),
            "metrics": report,
            "kernels": provider_status(),
        }
        pathlib.Path(args.json_path).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.json_path}")
    return 0


def _cmd_kernels(args) -> int:
    """``repro kernels``: which provider serves each hot entry point.

    The ops-facing face of :func:`repro.engine.dispatch.provider_status`
    (the same dict lands in ``repro serve --json`` and
    ``ExperimentReport.timing``): backend selection, native build
    digest, thread count and load error, and per-entry provider
    resolution.  A misconfigured ``REPRO_KERNEL_BACKEND`` exits 2 with
    the registry's error instead of a traceback; an entry point left
    unavailable (``native`` forced where the compiled kernels did not
    build or load) prints the table and exits 1, so a CI step that
    expects the build fails loudly.
    """
    from repro.engine.dispatch import provider_status
    from repro.errors import KernelBackendError

    try:
        status = provider_status()
    except KernelBackendError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    native = status["native"]
    print(f"backend: {status['backend']}"
          + (" (forced)" if status["forced"] else ""))
    print(f"native: available={native['available']} "
          f"digest={native['digest'] or '-'} threads={native['threads']}"
          + (f" error={native['error']}" if native["error"] else ""))
    print()
    rows = []
    for entry, info in status["entry_points"].items():
        rows.append((entry, info["provider"],
                     "yes" if info["compiled"] else "no",
                     "yes" if info["threaded"] else "no",
                     info.get("error", "")))
    print(format_table(
        ["entry point", "provider", "compiled", "threaded", "error"], rows))
    if args.json_path:
        import json
        import pathlib

        pathlib.Path(args.json_path).write_text(
            json.dumps(status, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.json_path}")
    missing = [entry for entry, info in status["entry_points"].items()
               if info["provider"] == "unavailable"]
    if missing:
        print(f"error: {len(missing)} of {len(status['entry_points'])} "
              "kernel entry points are unavailable", file=sys.stderr)
        return 1
    return 0


def _cmd_report(args) -> int:
    import pathlib

    from repro.experiments.base import render_document

    reports = []
    for eid in sorted(EXPERIMENTS, key=lambda e: int(e[1:])):
        print(f"running {eid} at scale {args.scale}...", flush=True)
        reports.append(run_experiment(eid, scale=args.scale, seed=args.seed))
    pathlib.Path(args.out).write_text(
        render_document(reports, scale=args.scale, seed=args.seed))
    print(f"wrote {args.out}")
    failures = [r for r in reports if not r.passed]
    for r in failures:
        print(f"!! {r.experiment_id} failed: {r.failed_checks()}",
              file=sys.stderr)
    return 1 if failures else 0


def _cmd_experiment(args) -> int:
    ids = sorted(EXPERIMENTS) if args.experiment_id == "all" \
        else [args.experiment_id]
    failures = 0
    reports = []
    for eid in ids:
        report = run_experiment(eid, scale=args.scale, seed=args.seed,
                                replicas=args.replicas)
        reports.append(report)
        print(report.render_markdown() if args.markdown else report.render())
        print()
        if not report.passed:
            failures += 1
            print(f"!! {eid} failed checks: {report.failed_checks()}",
                  file=sys.stderr)
    if args.json_path:
        import json
        import pathlib

        payload = [r.to_dict() for r in reports]
        pathlib.Path(args.json_path).write_text(
            json.dumps(payload[0] if len(payload) == 1 else payload,
                       indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.json_path}")
    return 1 if failures else 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "demo": _cmd_demo,
        "solve-udg": _cmd_solve_udg,
        "solve-general": _cmd_solve_general,
        "solve-weighted": _cmd_solve_weighted,
        "visualize": _cmd_visualize,
        "dynamics": _cmd_dynamics,
        "serve": _cmd_serve,
        "kernels": _cmd_kernels,
        "report": _cmd_report,
        "experiment": _cmd_experiment,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
