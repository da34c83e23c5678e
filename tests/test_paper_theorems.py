"""Statistical validation of the paper's expectation-level guarantees.

The theorem checks in the regular test modules are per-instance (worst
case or deterministic).  The claims below are about *expectations* over
the algorithms' randomness, so they need replication — these tests are
marked slow and run with ``pytest -m slow``.
"""

import math

import numpy as np
import pytest

from repro.baselines.lp_opt import lp_optimum
from repro.core.fractional import fractional_kmds
from repro.core.rounding import randomized_rounding
from repro.core.udg import part_one_leaders, solve_kmds_udg
from repro.graphs.generators import gnp_graph
from repro.graphs.hexcover import leaders_per_disk
from repro.graphs.properties import feasible_coverage, max_degree
from repro.graphs.udg import random_udg

pytestmark = pytest.mark.slow


class TestTheorem46Expectation:
    """E[|DS|] <= rho * ln(Delta+1) * OPT + O(OPT)."""

    def test_mean_blowup_over_seeds(self):
        g = gnp_graph(120, 0.08, seed=4)
        delta = max_degree(g)
        cov = feasible_coverage(g, 2)
        frac = fractional_kmds(g, coverage=cov, t=3, compute_duals=False)
        sizes = [
            len(randomized_rounding(g, frac.x, coverage=cov, seed=s))
            for s in range(60)
        ]
        mean = float(np.mean(sizes))
        bound = math.log(delta + 1) * frac.objective \
            + 2 * g.number_of_nodes() / (delta + 1) + 5
        assert mean <= bound

    def test_variance_not_degenerate(self):
        # The rounding really is random: different seeds differ.
        g = gnp_graph(80, 0.1, seed=5)
        cov = feasible_coverage(g, 1)
        frac = fractional_kmds(g, coverage=cov, t=3, compute_duals=False)
        sizes = {
            len(randomized_rounding(g, frac.x, coverage=cov, seed=s))
            for s in range(20)
        }
        assert len(sizes) > 1


class TestTheorem57Expectation:
    """Expected O(1) approximation and O(1) leaders per disk."""

    def test_mean_ratio_constant_over_seeds(self):
        ratios = []
        for s in range(8):
            udg = random_udg(400, density=10.0, seed=100 + s)
            ds = solve_kmds_udg(udg, k=1, seed=s)
            opt = lp_optimum(udg, 1, convention="open").objective
            ratios.append(len(ds) / max(opt, 1.0))
        assert float(np.mean(ratios)) <= 8.0

    def test_lemma_55_expected_leader_density(self):
        densities = []
        for s in range(6):
            udg = random_udg(1200, density=10.0, seed=200 + s)
            res = part_one_leaders(udg, seed=s)
            stats = leaders_per_disk(udg.points, sorted(res.members),
                                     disk_radius=0.5, grid_step=0.5)
            densities.append(stats["mean"])
        assert float(np.mean(densities)) <= 8.0

    def test_lemma_56_leader_density_scales_with_k(self):
        udg = random_udg(800, density=10.0, seed=42)
        means = {}
        for k in (1, 4):
            ds = solve_kmds_udg(udg, k=k, seed=0)
            stats = leaders_per_disk(udg.points, sorted(ds.members),
                                     disk_radius=0.5, grid_step=0.5)
            means[k] = stats["mean"]
        # O(k): growing k 4x should grow density by at most ~4x (+slack).
        assert means[4] <= 4.0 * means[1] + 2.0


class TestPart2AdoptionExpectation:
    """Part II's constant-time claim: iterations stay small in
    expectation across sizes."""

    def test_iterations_flat_in_n(self):
        iters = {}
        for n in (200, 1600):
            vals = []
            for s in range(5):
                udg = random_udg(n, density=10.0, seed=300 + 10 * s + n)
                ds = solve_kmds_udg(udg, k=3, seed=s)
                vals.append(ds.details["part2_iterations"])
            iters[n] = float(np.mean(vals))
        assert iters[1600] <= iters[200] + 2.0


class TestLowerBoundContext:
    """[13]: finite-t ratios cannot be arbitrarily good — with t = 1 the
    fractional solver must do essentially no better than trivial."""

    def test_t1_is_trivial(self):
        g = gnp_graph(100, 0.1, seed=6)
        cov = feasible_coverage(g, 1)
        sol = fractional_kmds(g, coverage=cov, t=1, compute_duals=False)
        # t = 1: one threshold level, everyone saturates.
        assert sol.objective == pytest.approx(g.number_of_nodes())

    def test_ratio_improves_with_budget(self):
        g = gnp_graph(150, 0.06, seed=7)
        cov = feasible_coverage(g, 2)
        opt = lp_optimum(g, cov, convention="closed").objective
        r = {
            t: fractional_kmds(g, coverage=cov, t=t,
                               compute_duals=False).objective / opt
            for t in (1, 3, 6)
        }
        assert r[6] <= r[3] <= r[1]
