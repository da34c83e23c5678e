"""Fault-injection integration tests for Algorithm 3 in message mode.

The paper's motivation is node failure *of the structure once built*;
these tests crash nodes *during* the construction protocol itself and
check the protocol's behavior stays sane: it terminates, survivors hold
a consistent state, and the damage is localized.
"""

from repro.core.udg import UDGNode, theta_schedule
from repro.core.verify import coverage_counts
from repro.graphs.udg import random_udg
from repro.simulation.faults import CrashFaultInjector, MessageLossInjector
from repro.simulation.network import SynchronousNetwork
from repro.simulation.runner import run_protocol


def _run_with_injectors(udg, k, injectors, seed=0):
    n = udg.n
    procs = [UDGNode(v, k, n, "random", n + 1) for v in range(n)]
    net = SynchronousNetwork(udg, procs, seed=seed)
    stats = run_protocol(
        net, injectors=injectors,
        max_rounds=2 * len(theta_schedule(n)) + 3 * (n + 1) + 8)
    return procs, stats


class TestCrashDuringConstruction:
    def test_terminates_with_part1_crashes(self):
        udg = random_udg(100, density=10.0, seed=1)
        injector = CrashFaultInjector({2: [0, 5, 9], 4: [12]})
        procs, stats = _run_with_injectors(udg, 2, [injector])
        crashed = {p.node_id for p in procs if p.crashed}
        assert crashed == {0, 5, 9, 12}
        assert all(p.finished for p in procs if not p.crashed)

    def test_survivors_mostly_covered(self):
        udg = random_udg(150, density=12.0, seed=2)
        victims = list(range(0, 150, 15))
        injector = CrashFaultInjector({3: victims})
        procs, _ = _run_with_injectors(udg, 2, [injector])
        leaders = {p.node_id for p in procs if p.leader and not p.crashed}
        counts = coverage_counts(udg, leaders, convention="open")
        alive_clients = [p.node_id for p in procs
                         if not p.crashed and p.node_id not in leaders]
        uncovered = sum(1 for v in alive_clients if counts[v] == 0)
        # Crashing 10 of 150 nodes mid-protocol may leave a few clients
        # stranded near the crash sites, but the damage is localized.
        assert uncovered <= len(victims) * 3

    def test_crash_during_part2(self):
        udg = random_udg(80, density=10.0, seed=3)
        part1_rounds = 2 * len(theta_schedule(80))
        injector = CrashFaultInjector({part1_rounds + 2: [1, 2, 3]})
        procs, _ = _run_with_injectors(udg, 3, [injector])
        assert all(p.finished for p in procs if not p.crashed)

    def test_mass_crash_terminates(self):
        udg = random_udg(60, density=10.0, seed=4)
        injector = CrashFaultInjector({1: list(range(0, 60, 2))})
        procs, stats = _run_with_injectors(udg, 1, [injector])
        assert sum(1 for p in procs if p.crashed) == 30


class TestCombinedFaults:
    def test_loss_plus_crashes(self):
        udg = random_udg(90, density=10.0, seed=5)
        injectors = [
            CrashFaultInjector({2: [7, 8]}),
            MessageLossInjector(0.05, seed=1),
        ]
        procs, _ = _run_with_injectors(udg, 2, injectors)
        assert all(p.finished for p in procs if not p.crashed)

    def test_faults_do_not_change_node_randomness(self):
        # The same seed with and without loss must draw the same IDs
        # (fault randomness lives on its own stream): compare leader sets
        # under zero-probability loss vs no injector at all.
        udg = random_udg(70, density=10.0, seed=6)
        procs_a, _ = _run_with_injectors(
            udg, 2, [MessageLossInjector(0.0, seed=9)], seed=11)
        procs_b, _ = _run_with_injectors(udg, 2, [], seed=11)
        assert {p.node_id for p in procs_a if p.leader} == \
            {p.node_id for p in procs_b if p.leader}
