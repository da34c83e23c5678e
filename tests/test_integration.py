"""Integration tests: full pipelines across modules, including fault
injection on the real simulator and the public package API."""

import pytest

import repro
from repro.baselines.exact import exact_kmds
from repro.baselines.greedy import greedy_kmds
from repro.baselines.lp_opt import lp_optimum
from repro.core.fractional import FractionalNode, fractional_kmds
from repro.core.general import solve_kmds_general
from repro.core.udg import solve_kmds_udg
from repro.core.verify import is_k_dominating_set
from repro.graphs.generators import gnp_graph
from repro.graphs.properties import feasible_coverage, max_degree
from repro.graphs.udg import random_udg
from repro.simulation.faults import CrashFaultInjector, MessageLossInjector
from repro.simulation.network import SynchronousNetwork
from repro.simulation.runner import run_protocol


class TestPublicAPI:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_quickstart_from_docstring(self):
        udg = repro.random_udg(200, seed=1)
        ds = repro.solve_kmds_udg(udg, k=3, seed=7)
        assert repro.is_k_dominating_set(udg, ds.members, 3)

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None, name

    def test_general_api(self):
        g = repro.gnp_graph(50, 0.15, seed=2)
        cov = repro.feasible_coverage(g, 2)
        res = repro.solve_kmds_general(g, coverage=cov, t=3, seed=0)
        assert repro.is_k_dominating_set(g, res.members, cov,
                                         convention="closed")


class TestOptimalityChain:
    """LP_OPT <= ILP_OPT <= every algorithm's solution size."""

    @pytest.mark.parametrize("k", [1, 2])
    def test_chain_general(self, tiny_gnp, k):
        cov = feasible_coverage(tiny_gnp, k)
        lp = lp_optimum(tiny_gnp, cov, convention="closed").objective
        ilp = len(exact_kmds(tiny_gnp, cov, convention="closed"))
        greedy = len(greedy_kmds(tiny_gnp, cov, convention="closed"))
        pipeline = solve_kmds_general(tiny_gnp, coverage=cov, t=3,
                                      seed=0).size
        assert lp <= ilp + 1e-6
        assert ilp <= greedy
        assert ilp <= pipeline

    def test_chain_udg(self, udg_tiny):
        ilp = len(exact_kmds(udg_tiny.nx, 1, convention="open"))
        alg3 = len(solve_kmds_udg(udg_tiny, k=1, seed=0))
        assert ilp <= alg3

    def test_fractional_below_integral(self, tiny_gnp):
        cov = feasible_coverage(tiny_gnp, 1)
        frac = fractional_kmds(tiny_gnp, coverage=cov, t=6)
        lp = lp_optimum(tiny_gnp, cov, convention="closed").objective
        # Algorithm 1 approximates the LP from above.
        assert frac.objective >= lp - 1e-6


class TestFaultInjectionIntegration:
    def test_algorithm1_survives_message_loss(self):
        """Under light message loss the fractional x may be degraded but
        the protocol must still terminate without crashing."""
        g = gnp_graph(20, 0.3, seed=1)
        cov = feasible_coverage(g, 1)
        delta = max_degree(g)
        procs = [FractionalNode(v, cov[v], delta, 2, False) for v in g.nodes]
        net = SynchronousNetwork(g, procs, seed=0)
        stats = run_protocol(net, injectors=[MessageLossInjector(0.1, seed=4)],
                             max_rounds=50)
        assert stats.rounds == 8  # schedule is fixed regardless of loss

    def test_algorithm1_with_crashes_terminates(self):
        g = gnp_graph(20, 0.3, seed=2)
        cov = feasible_coverage(g, 1)
        delta = max_degree(g)
        procs = [FractionalNode(v, cov[v], delta, 2, False) for v in g.nodes]
        net = SynchronousNetwork(g, procs, seed=0)
        injector = CrashFaultInjector({3: [0, 1]})
        run_protocol(net, injectors=[injector], max_rounds=50)
        crashed = [p for p in procs if p.crashed]
        assert len(crashed) == 2
        assert all(p.finished for p in procs if not p.crashed)

    def test_survivors_recluster(self):
        """Kill dominators, rerun clustering on the survivor graph, and
        verify the survivors get covered again — the operational loop a
        sensor network would run."""
        udg = random_udg(150, density=12.0, seed=9)
        ds = solve_kmds_udg(udg, k=1, seed=0)
        killed = set(list(sorted(ds.members))[::2])
        survivors = [v for v in range(udg.n) if v not in killed]
        sub_pts = [tuple(udg.points[v]) for v in survivors]
        sub = repro.udg_from_points(sub_pts)
        ds2 = solve_kmds_udg(sub, k=1, seed=1)
        assert is_k_dominating_set(sub, ds2.members, 1)


class TestCrossConventionConsistency:
    def test_pipeline_closed_output_valid_open(self, small_gnp):
        cov = feasible_coverage(small_gnp, 2)
        res = solve_kmds_general(small_gnp, coverage=cov, t=3, seed=0)
        assert is_k_dominating_set(small_gnp, res.members, cov,
                                   convention="open")

    def test_udg_solution_on_nx_view(self, udg200):
        ds = solve_kmds_udg(udg200, k=2, seed=0)
        # Verification through the raw networkx graph agrees.
        assert is_k_dominating_set(udg200.nx, ds.members, 2)


class TestDeterminismEndToEnd:
    def test_full_pipeline_reproducible(self):
        g = gnp_graph(60, 0.1, seed=5)
        cov = feasible_coverage(g, 2)
        a = solve_kmds_general(g, coverage=cov, t=3, seed=123)
        b = solve_kmds_general(g, coverage=cov, t=3, seed=123)
        assert a.members == b.members

    def test_udg_reproducible_across_modes_and_runs(self):
        udg = random_udg(100, density=10.0, seed=3)
        runs = [solve_kmds_udg(udg, k=2, mode=m, seed=77).members
                for m in ("direct", "message", "direct")]
        assert runs[0] == runs[1] == runs[2]
