"""Tests of the benchmark itself: ``python -m pytest perfbench -q``.

The end-to-end tests start the benchmark in fresh processes, as the
benchmark is meant to be run, so they take a few minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import best, tail  # noqa: E402

#: Spans each workload's traced run must contain.
LAYERS = {
    "sweep": ("graphs.udg_build", "artifacts.build", "vecrng.seed",
              "udg.part1", "udg.part2", "udg.collect", "kernels.coverage",
              "dispatch.elect_batch", "dispatch.ball_adopt",
              "dispatch.member_counts_batch"),
    "protocol": ("network.build", "columnar.plan", "columnar.run",
                 "steppers.advance", "steppers.inbox_reduce", "faults.filter",
                 "dispatch.inbox_reduce", "dispatch.state_scatter"),
    "maintain": ("graphs.udg_build", "artifacts.build", "kernels.coverage",
                 "dispatch.deficit_vector", "dynamics.churn",
                 "dynamics.deficit", "dynamics.repair", "service.publish",
                 "service.lazy_index", "service.query.covered",
                 "service.query.k_deficit", "service.query.dominator_of",
                 "service.query.who_covers"),
}


def bench(*args, cwd=ROOT):
    out = subprocess.run([sys.executable, "perfbench/run.py", *args],
                         cwd=cwd, capture_output=True, text=True, timeout=600)
    return out


def result(out):
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    digest = next(line.split()[-1] for line in lines
                  if line.startswith("# digest"))
    return json.loads(lines[-1]), digest


@pytest.mark.parametrize("workload", sorted(LAYERS))
def test_same_seed_prints_same_digest(workload):
    args = ("--workload", workload, "--seed", "5", "--seconds", "0",
            "--trace", "0")
    first, digest_a = result(bench(*args))
    second, digest_b = result(bench(*args))
    assert digest_a == digest_b
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for res in (first, second):
        assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
        assert set(res["metrics"]) == {m["name"] for m in spec["end_to_end"]}
        assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("workload", sorted(LAYERS))
def test_traced_run_records_every_layer(workload):
    res, _ = result(bench("--workload", workload, "--seed", "6",
                          "--seconds", "0", "--trace", "1"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert res["correct"] and res["failed"] == 0
    assert set(res["metrics"]) == {m["name"] for m in spec["per_layer"]}
    record = json.loads((run.OUT / f"{workload}-seed6-trace1.json").read_text())
    for layer in LAYERS[workload]:
        assert record["layers"]["spans"].get(layer, 0) > 0, layer
    spans = json.loads(
        (run.OUT / f"spans-{workload}-seed6-trace1.json").read_text())["spans"]
    assert all(-1 <= parent < i and t0 <= t1
               for i, (_, t0, t1, parent, _) in enumerate(spans))
    assert 0 <= res["metrics"]["trace.unattributed_pct"]["value"] < 100


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = bench("--workload", "sweep", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert "{" not in out.stdout


def _record(tmp_path, name, providers, value):
    doc = {"workload": "sweep", "env": {"providers": providers},
           "metrics": {"bulk_best_norm_ms": value}}
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def test_compare_refuses_differing_provider_maps(tmp_path):
    base = _record(tmp_path, "a.json", {"elect_batch": "native"}, 10.0)
    new = _record(tmp_path, "b.json", {"elect_batch": "numpy"}, 10.0)
    with pytest.raises(SystemExit) as exc:
        run.compare(base, new, run.load_spec())
    assert exc.value.code == 3


def test_compare_flags_regression_beyond_bound(tmp_path, capsys):
    spec = run.load_spec()
    bound = next(m["bound"] for m in spec["end_to_end"]
                 if m["name"] == "bulk_best_norm_ms")
    base = _record(tmp_path, "a.json", {"elect_batch": "native"}, 10.0)
    same = _record(tmp_path, "b.json", {"elect_batch": "native"}, 10.0)
    slow = _record(tmp_path, "c.json", {"elect_batch": "native"},
                   10.0 * (1 + 2 * bound))
    with pytest.raises(SystemExit) as exc:
        run.compare(base, same, spec)
    assert exc.value.code == 0
    with pytest.raises(SystemExit) as exc:
        run.compare(base, slow, spec)
    assert exc.value.code == 1
    assert "REGRESSION" in capsys.readouterr().out


def test_self_time_subtracts_child_spans():
    tr = Tracer()
    tr.spans = [
        ["op.grid", 0, 100, -1, 0],
        ["udg.part1", 10, 60, 0, 0],
        ["dispatch.elect_batch", 20, 50, 1, 0],
        ["udg.part2", 60, 90, 0, 0],
    ]
    summary = tr.summary()
    assert summary["self_s"]["udg.part1"] == pytest.approx(20e-9)
    assert summary["self_s"]["dispatch.elect_batch"] == pytest.approx(30e-9)
    assert summary["op_wall_s"]["grid"] == pytest.approx(100e-9)
    assert summary["op_unattributed_s"]["grid"] == pytest.approx(20e-9)


def test_best_averages_each_positions_fastest_repeat():
    passes = [[3.0, 10.0], [1.0, 20.0], [2.0, 30.0]]
    assert best(passes) == pytest.approx((1.0 + 10.0) / 2)


def test_tail_needs_ten_samples_beyond():
    value, pct = tail(list(range(2000)))
    assert pct == 99.0 and value == pytest.approx(1979.01)
    value, pct = tail(list(range(200)))
    assert pct == 95.0
