"""Unit tests for the analysis harness (stats, reporting, ratio, sweep,
faults)."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.faults import (
    coverage_survival_curve,
    dominator_failure_experiment,
)
from repro.analysis.ratio import (
    OptimumEstimate,
    approximation_ratio,
    best_known_optimum,
)
from repro.analysis.reporting import format_markdown_table, format_table
from repro.analysis.stats import (
    geometric_mean,
    mean_confidence_interval,
    summarize,
)
from repro.analysis.sweep import group_mean, sweep
from repro.core.verify import coverage_counts
from repro.errors import GraphError
from repro.graphs.generators import gnp_graph
from repro.graphs.udg import random_udg


class TestStats:
    def test_summarize(self):
        s = summarize([1.0, 2.0, 3.0])
        assert s["mean"] == 2.0
        assert s["min"] == 1.0
        assert s["max"] == 3.0
        assert s["count"] == 3

    def test_summarize_empty(self):
        assert summarize([])["count"] == 0

    def test_ci_contains_mean(self):
        m, lo, hi = mean_confidence_interval([1, 2, 3, 4, 5])
        assert lo <= m <= hi
        assert m == 3.0

    def test_ci_single_sample(self):
        assert mean_confidence_interval([7.0]) == (7.0, 7.0, 7.0)

    def test_ci_zero_variance(self):
        m, lo, hi = mean_confidence_interval([2.0, 2.0, 2.0])
        assert (m, lo, hi) == (2.0, 2.0, 2.0)

    def test_ci_bad_confidence(self):
        with pytest.raises(ValueError):
            mean_confidence_interval([1, 2], confidence=1.5)

    def test_ci_widens_with_confidence(self):
        vals = list(np.random.default_rng(0).normal(size=30))
        _, lo95, hi95 = mean_confidence_interval(vals, 0.95)
        _, lo99, hi99 = mean_confidence_interval(vals, 0.99)
        assert hi99 - lo99 > hi95 - lo95

    def test_geometric_mean(self):
        assert geometric_mean([1, 4]) == pytest.approx(2.0)

    def test_geometric_mean_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])


class TestReporting:
    def test_ascii_table_alignment(self):
        out = format_table(["a", "bb"], [[1, 2.5], [30, 4]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert "2.500" in out

    def test_markdown_table(self):
        out = format_markdown_table(["x"], [[1], [2]])
        assert out.splitlines()[1] == "|---|"
        assert out.count("|") == 8

    def test_empty_rows(self):
        out = format_table(["only", "headers"], [])
        assert "only" in out


class TestRatio:
    def test_exact_on_small(self, tiny_gnp):
        opt = best_known_optimum(tiny_gnp, 1, exact_node_limit=60)
        assert opt.kind == "exact"
        assert opt.value >= 1

    def test_lp_on_large(self):
        g = gnp_graph(120, 0.05, seed=0)
        opt = best_known_optimum(g, 1, exact_node_limit=30)
        assert opt.kind == "lp"

    def test_ratio_math(self):
        assert approximation_ratio(10, OptimumEstimate(5.0, "exact")) == 2.0
        assert approximation_ratio(10, 4.0) == 2.5

    def test_ratio_zero_opt(self):
        assert approximation_ratio(0, 0.0) == 1.0
        assert approximation_ratio(3, 0.0) == float("inf")

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            OptimumEstimate(1.0, "guess")


class TestSweep:
    def test_grid_and_seeds(self):
        def measure(seed, a, b):
            return {"sum": a + b + seed}

        recs = sweep(measure, {"a": [1, 2], "b": [10]}, seeds=(0, 1))
        assert len(recs) == 4
        assert {r["sum"] for r in recs} == {11, 12, 13, 12 + 1}

    def test_on_record_callback(self):
        seen = []
        sweep(lambda seed, x: {"y": x}, {"x": [5]},
              on_record=lambda r: seen.append(r))
        assert len(seen) == 1
        assert seen[0]["y"] == 5

    def test_measure_batch_gets_whole_seed_list(self):
        calls = []

        def measure_batch(seeds, a):
            calls.append((tuple(seeds), a))
            return [{"y": a * 10 + s} for s in seeds]

        def measure(seed, a):  # must never run when batch form is given
            raise AssertionError("measure called despite measure_batch")

        recs = sweep(measure, {"a": [1, 2]}, seeds=(0, 3),
                     measure_batch=measure_batch)
        assert calls == [((0, 3), 1), ((0, 3), 2)]
        assert [(r["a"], r["seed"], r["y"]) for r in recs] \
            == [(1, 0, 10), (1, 3, 13), (2, 0, 20), (2, 3, 23)]

    def test_measure_batch_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="returned 1 results for 2"):
            sweep(lambda seed: {}, {}, seeds=(0, 1),
                  measure_batch=lambda seeds: [{}])

    def test_seeds_validated_before_any_run(self):
        from repro.errors import GraphError

        ran = []

        def measure(seed, a):
            ran.append(seed)
            return {}

        # The malformed *last* seed must fail the sweep before the
        # first measurement runs, not half-way through the grid.
        with pytest.raises(GraphError, match="seed must be an int or None"):
            sweep(measure, {"a": [1]}, seeds=(0, 1, "two"))
        assert ran == []

    def test_group_mean(self):
        recs = [{"g": 1, "v": 2.0}, {"g": 1, "v": 4.0}, {"g": 2, "v": 10.0}]
        out = group_mean(recs, by=["g"], value="v")
        assert out[(1,)] == 3.0
        assert out[(2,)] == 10.0


class TestFaults:
    def _setup(self):
        from repro.core.udg import solve_kmds_udg

        udg = random_udg(150, density=10.0, seed=2)
        ds3 = solve_kmds_udg(udg, k=3, seed=0)
        ds1 = solve_kmds_udg(udg, k=1, seed=0)
        return udg, ds1, ds3

    def test_zero_kill_full_coverage(self):
        udg, ds1, _ = self._setup()
        out = dominator_failure_experiment(udg, ds1.members, 0.0, trials=2,
                                           seed=0)
        assert out["uncovered_fraction"] == 0.0
        assert out["all_covered_probability"] == 1.0

    def test_full_kill_no_coverage(self):
        udg, ds1, _ = self._setup()
        out = dominator_failure_experiment(udg, ds1.members, 1.0, trials=2,
                                           seed=0)
        assert out["uncovered_fraction"] == 1.0

    def test_redundancy_helps(self):
        udg, ds1, ds3 = self._setup()
        out1 = dominator_failure_experiment(udg, ds1.members, 0.4,
                                            trials=20, seed=1)
        out3 = dominator_failure_experiment(udg, ds3.members, 0.4,
                                            trials=20, seed=1)
        assert out3["uncovered_fraction"] <= out1["uncovered_fraction"]

    def test_empty_members(self):
        udg, _, _ = self._setup()
        out = dominator_failure_experiment(udg, set(), 0.5, trials=1)
        assert out["uncovered_fraction"] == 1.0

    def test_invalid_fraction(self):
        udg, ds1, _ = self._setup()
        with pytest.raises(GraphError):
            dominator_failure_experiment(udg, ds1.members, 1.5)

    def test_invalid_trials(self):
        udg, ds1, _ = self._setup()
        with pytest.raises(GraphError):
            dominator_failure_experiment(udg, ds1.members, 0.5, trials=0)

    def test_survival_curve_shape(self):
        udg, ds1, _ = self._setup()
        curve = coverage_survival_curve(udg, ds1.members, [0.0, 0.5, 1.0],
                                        trials=5, seed=0)
        assert [c["kill_fraction"] for c in curve] == [0.0, 0.5, 1.0]
        assert curve[0]["uncovered_fraction"] <= \
            curve[-1]["uncovered_fraction"]


# ----------------------------------------------------------------------
# The matvec trials against the per-trial networkx loop they replaced
# ----------------------------------------------------------------------

def _failure_oracle(graph, members, kill_fraction, trials, strategy, seed):
    """``dominator_failure_experiment`` as it counted every trial with
    ``coverage_counts`` on the networkx graph and ranked client loads
    per trial."""
    g = getattr(graph, "nx", graph)
    member_list = sorted(set(members), key=repr)
    if not member_list:
        return {"uncovered_fraction": 1.0, "still_1_covered": 0.0,
                "mean_residual_coverage": 0.0, "all_covered_probability": 0.0}
    rng = np.random.default_rng(seed)
    n_kill = int(round(kill_fraction * len(member_list)))
    member_set = set(member_list)
    clients = [v for v in g.nodes if v not in member_set]
    uncovered_fracs, covered_fracs, residuals, all_covered = [], [], [], 0
    for _ in range(trials):
        if strategy == "random":
            idx = rng.choice(len(member_list), size=n_kill, replace=False)
            killed = {member_list[i] for i in idx}
        else:
            load = {m: sum(1 for w in g.neighbors(m) if w not in member_set)
                    for m in member_list}
            noise = rng.random(len(member_list))
            ranked = sorted(range(len(member_list)),
                            key=lambda i: (-load[member_list[i]], noise[i]))
            killed = {member_list[i] for i in ranked[:n_kill]}
        counts = coverage_counts(g, member_set - killed, convention="open")
        if not clients:
            uncovered_fracs.append(0.0)
            covered_fracs.append(1.0)
            residuals.append(0.0)
            all_covered += 1
            continue
        uncovered = sum(1 for v in clients if counts[v] == 0)
        uncovered_fracs.append(uncovered / len(clients))
        covered_fracs.append(1.0 - uncovered / len(clients))
        residuals.append(float(np.mean([counts[v] for v in clients])))
        if uncovered == 0:
            all_covered += 1
    return {
        "uncovered_fraction": float(np.mean(uncovered_fracs)),
        "still_1_covered": float(np.mean(covered_fracs)),
        "mean_residual_coverage": float(np.mean(residuals)),
        "all_covered_probability": all_covered / trials,
    }


@st.composite
def failure_cases(draw):
    """A UDG (wrapper or its networkx graph) or a relabelled gnp graph,
    with a member set drawn from its nodes."""
    seed = draw(st.integers(0, 10**6))
    kind = draw(st.sampled_from(("udg", "udg-nx", "gnp-str", "gnp-shuffled")))
    n = draw(st.integers(1, 60))
    if kind.startswith("udg"):
        graph = random_udg(n, density=draw(st.sampled_from((3.0, 10.0))),
                           seed=seed)
        nodes = list(range(n))
        if kind == "udg-nx":
            graph = graph.nx
    else:
        graph = nx.gnp_random_graph(n, 0.2, seed=seed)
        if kind == "gnp-str":
            graph = nx.relabel_nodes(graph, {v: f"v{v}" for v in graph})
        else:
            perm = draw(st.permutations(range(n)))
            graph = nx.relabel_nodes(graph, dict(zip(range(n), perm)))
        nodes = list(graph.nodes)
    if kind.startswith("udg") and draw(st.booleans()):
        # A k-fold dominating set: members neighbor members, so a
        # member's client load differs from its degree.
        from repro.core.udg import solve_kmds_udg

        members = set(solve_kmds_udg(random_udg(n, density=10.0, seed=seed),
                                     k=draw(st.integers(1, 3)),
                                     seed=seed).members)
    else:
        members = draw(st.sets(st.sampled_from(nodes), max_size=n))
    return graph, members


class TestFaultsOracle:
    @given(case=failure_cases(),
           kill=st.sampled_from((0.0, 0.2, 0.5, 0.9, 1.0)),
           trials=st.integers(1, 5),
           strategy=st.sampled_from(("random", "targeted")),
           seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=120, deadline=None)
    def test_matches_per_trial_networkx_loop(self, case, kill, trials,
                                             strategy, seed):
        graph, members = case
        want = _failure_oracle(graph, members, kill, trials, strategy, seed)
        got = dominator_failure_experiment(graph, members, kill,
                                           trials=trials, strategy=strategy,
                                           seed=seed)
        assert got == want

    @pytest.mark.parametrize("kill", [0.25, 0.5])
    @pytest.mark.parametrize("strategy", ["random", "targeted"])
    def test_matches_per_trial_loop_on_kmds(self, kill, strategy):
        from repro.core.udg import solve_kmds_udg

        udg = random_udg(300, density=10.0, seed=5)
        members = solve_kmds_udg(udg, k=2, seed=1).members
        assert dominator_failure_experiment(
            udg, members, kill, trials=4, strategy=strategy, seed=7) == \
            _failure_oracle(udg, members, kill, 4, strategy, 7)

    def test_unknown_member_raises(self):
        udg = random_udg(20, seed=1)
        with pytest.raises(GraphError, match="unknown node"):
            dominator_failure_experiment(udg, {0, 99}, 0.5, trials=2,
                                         seed=0)

    def test_unknown_strategy_raises(self):
        udg = random_udg(20, seed=1)
        with pytest.raises(GraphError, match="unknown failure strategy"):
            dominator_failure_experiment(udg, {0, 1}, 0.5, strategy="evil")
