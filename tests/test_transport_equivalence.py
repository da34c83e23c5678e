"""Every message-passing path vs the per-node generator loop.

The per-node generator loop on the synchronous runner
(``execute(..., "message", reference=True)``) is the one oracle of the
message-passing backends.  These tests pin every other path to it
across the engine-ported algorithms:

- the columnar transport and protocol stepping plane (the ``message``
  default) — **solutions** compared exactly (``==`` on the x/y/z dicts
  and member sets: bit-identical floats, not approximately equal) and
  **RunStats** (rounds, messages, bits, max message size) compared
  exactly, including under crash and loss injectors;
- the asynchronous backends (``async`` / ``async-beta``) — the same
  solution and the same payload accounting as the synchronous run
  (control messages exist only on the synchronizers);
- a third-party injector that only overrides the per-edge
  ``filter_messages`` — the same result and the same drops as the
  built-in :class:`MessageLossInjector`, whose batch filter it defines.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.baselines.jrs import JRSProgram
from repro.core.fractional import FractionalProgram, _resolve_instance
from repro.core.rounding import RoundingProgram
from repro.core.udg import UDGProgram
from repro.engine import execute
from repro.engine.artifacts import graph_artifacts
from repro.graphs.properties import feasible_coverage
from repro.graphs.udg import random_udg
from repro.simulation.faults import (CrashFaultInjector, FaultInjector,
                                     MessageLossInjector)

SYNC_STATS = ("rounds", "messages_sent", "bits_sent", "max_message_bits")


def _graph(seed: int) -> nx.Graph:
    return nx.gnp_random_graph(24, 0.25, seed=seed)


def _run_pair(program, mode, *, seed, injector_factory=None):
    """Run ``program`` on ``mode`` and on the generator-loop oracle, with
    independent injector instances (injectors hold RNG state)."""
    def _injectors():
        return [injector_factory()] if injector_factory is not None else []
    fast = execute(program, mode, seed=seed, injectors=_injectors())
    oracle = execute(program, "message", seed=seed, injectors=_injectors(),
                     reference=True)
    return fast, oracle


def _assert_stats_equal(fast, oracle, fields=SYNC_STATS):
    for field in fields:
        assert getattr(fast.stats, field) == getattr(oracle.stats, field), \
            field


# ----------------------------------------------------------------------
# Algorithm 1 — exact x/y and exact accounting
# ----------------------------------------------------------------------

@pytest.mark.parametrize("seed", (0, 7))
def test_fractional_message_mode_bit_identical(seed):
    g = _graph(seed)
    lp = _resolve_instance(g, None, feasible_coverage(g, 2))
    program = FractionalProgram(lp, t=2, compute_duals=True)
    fast, oracle = _run_pair(program, "message", seed=seed)
    assert fast.x == oracle.x
    assert fast.y == oracle.y
    assert fast.z == oracle.z
    assert fast.alpha == oracle.alpha
    assert fast.beta == oracle.beta
    _assert_stats_equal(fast, oracle)


@pytest.mark.parametrize("mode", ("async", "async-beta"))
def test_fractional_async_modes_solution_identical(mode):
    g = _graph(3)
    lp = _resolve_instance(g, None, feasible_coverage(g, 1))
    program = FractionalProgram(lp, t=2, compute_duals=False)
    fast, oracle = _run_pair(program, mode, seed=3)
    assert fast.x == oracle.x
    # Payload accounting matches; only the synchronizer sends control
    # traffic.
    _assert_stats_equal(fast, oracle)
    assert fast.stats.control_messages > 0 == oracle.stats.control_messages


def test_fractional_under_loss_stats_and_drops_identical():
    g = _graph(5)
    lp = _resolve_instance(g, None, feasible_coverage(g, 2))
    program = FractionalProgram(lp, t=2, compute_duals=False)
    fast_inj = MessageLossInjector(0.3, seed=42)
    oracle_inj = MessageLossInjector(0.3, seed=42)
    fast = execute(program, "message", seed=5, injectors=[fast_inj])
    oracle = execute(program, "message", seed=5, injectors=[oracle_inj],
                     reference=True)
    # Both planes consume the injector RNG in per-edge send order, so
    # the *same* messages drop.
    assert fast_inj.dropped == oracle_inj.dropped
    assert fast.x == oracle.x
    _assert_stats_equal(fast, oracle)


def test_fractional_under_crashes_stats_identical():
    g = _graph(6)
    lp = _resolve_instance(g, None, feasible_coverage(g, 1))
    program = FractionalProgram(lp, t=2, compute_duals=False)
    victims = sorted(g.nodes)[:3]
    fast, oracle = _run_pair(
        program, "message", seed=6,
        injector_factory=lambda: CrashFaultInjector({2: victims[:2],
                                                     5: victims[2:]}))
    assert fast.x == oracle.x
    _assert_stats_equal(fast, oracle)


def test_fractional_under_total_loss_stats_identical():
    g = _graph(2)
    lp = _resolve_instance(g, None, feasible_coverage(g, 1))
    program = FractionalProgram(lp, t=2, compute_duals=False)
    fast, oracle = _run_pair(
        program, "message", seed=2,
        injector_factory=lambda: MessageLossInjector(1.0, seed=9))
    assert fast.x == oracle.x
    _assert_stats_equal(fast, oracle)


# ----------------------------------------------------------------------
# Algorithm 2 — randomized rounding (seeded coin flips)
# ----------------------------------------------------------------------

@pytest.mark.parametrize("mode", ("message", "async"))
@pytest.mark.parametrize("policy", ("random", "highest-x"))
def test_rounding_members_identical(mode, policy):
    g = _graph(1)
    lp = _resolve_instance(g, None, feasible_coverage(g, 1))
    frac = execute(FractionalProgram(lp, t=2, compute_duals=False), "direct")
    program = RoundingProgram(lp, frac.x, policy, 1)
    fast, oracle = _run_pair(program, mode, seed=1)
    assert fast.members == oracle.members
    _assert_stats_equal(fast, oracle)


# ----------------------------------------------------------------------
# Algorithm 3 — UDG clustering (geometric multicast via send_within)
# ----------------------------------------------------------------------

@pytest.mark.parametrize("mode", ("message", "async"))
def test_udg_members_identical(mode):
    udg = random_udg(30, density=8.0, seed=4)
    program = UDGProgram(udg, 2, "by-id", 4)
    fast, oracle = _run_pair(program, mode, seed=4)
    assert fast.members == oracle.members
    _assert_stats_equal(fast, oracle)


# ----------------------------------------------------------------------
# JRS/LRG baseline
# ----------------------------------------------------------------------

@pytest.mark.parametrize("convention", ("closed", "open"))
def test_jrs_members_identical(convention):
    g = _graph(8)
    req = {v: 1 for v in g.nodes}
    program = JRSProgram(graph_artifacts(g), req, convention, 8, 10_000)
    fast, oracle = _run_pair(program, "message", seed=8)
    assert fast.members == oracle.members
    assert fast.details["phases"] == oracle.details["phases"]
    _assert_stats_equal(fast, oracle)


# ----------------------------------------------------------------------
# Transport-level invariants
# ----------------------------------------------------------------------

@pytest.mark.parametrize("mode", ("async", "async-beta"))
def test_reference_flag_ignored_by_async_backends(mode):
    udg = random_udg(30, density=8.0, seed=2)
    program = UDGProgram(udg, 2, "random", 2)
    plain = execute(program, mode, seed=2)
    flagged = execute(program, mode, seed=2, reference=True)
    assert plain.members == flagged.members
    assert plain.stats == flagged.stats


def test_third_party_injector_fallback_matches_columnar():
    """An injector that only overrides the per-edge ``filter_messages``
    runs through the batch fallback (expand -> filter -> re-wrap) on
    the generator loop; implementing loss that way must give the same
    result and the same drops as the built-in injector on the columnar
    plane."""
    class PerEdgeLoss(FaultInjector):
        def __init__(self, loss_rate, seed):
            self.loss_rate = loss_rate
            self.rng = np.random.default_rng(seed)
            self.dropped = 0

        filter_messages = MessageLossInjector.filter_messages

    g = _graph(9)
    lp = _resolve_instance(g, None, feasible_coverage(g, 1))
    program = FractionalProgram(lp, t=2, compute_duals=False)
    builtin = MessageLossInjector(0.3, seed=11)
    third_party = PerEdgeLoss(0.3, seed=11)
    fast = execute(program, "message", seed=9, injectors=[builtin])
    fallback = execute(program, "message", seed=9, injectors=[third_party])
    assert builtin.dropped == third_party.dropped > 0
    assert fast.x == fallback.x
    _assert_stats_equal(fast, fallback)


# ----------------------------------------------------------------------
# Protocol stepping plane: eligibility + fallback matrix
# ----------------------------------------------------------------------
#
# The columnar *protocol* plane (repro.simulation.columnar /
# .steppers) batches whole rounds for stock protocols; anything it
# cannot replay bit-exactly must fall back to the per-node generator
# loop, and deciding that must not consume injector state.  The
# bit-identity matrix itself lives in tests/test_protocol_steppers.py.

def _network_for(program, seed):
    from repro.simulation.network import SynchronousNetwork

    return SynchronousNetwork(program.network_graph, program.processes(),
                              seed=seed, **program.network_kwargs)


def _fractional_network(seed=9):
    g = _graph(seed)
    lp = _resolve_instance(g, None, feasible_coverage(g, 1))
    return _network_for(FractionalProgram(lp, t=2, compute_duals=False),
                        seed)


def test_stepper_resolves_for_stock_run():
    from repro.simulation.columnar import resolve_stepper
    from repro.simulation.steppers import FractionalStepper

    net = _fractional_network()
    stepper = resolve_stepper(net, [MessageLossInjector(0.2, seed=1),
                                    CrashFaultInjector({1: [0]})])
    assert isinstance(stepper, FractionalStepper)


def test_stepper_declines_third_party_injector_without_side_effects():
    from repro.simulation.columnar import resolve_stepper
    from repro.simulation.faults import FaultInjector

    class Bespoke(FaultInjector):
        def filter_messages(self, round_index, messages):
            return messages

    loss = MessageLossInjector(0.2, seed=1)
    state_before = repr(loss.rng.bit_generator.state)
    assert resolve_stepper(_fractional_network(), [loss, Bespoke()]) is None
    assert repr(loss.rng.bit_generator.state) == state_before


def test_stepper_declines_subclassed_builtin_injector():
    from repro.simulation.columnar import resolve_stepper

    class LossWithLogging(MessageLossInjector):
        pass

    assert resolve_stepper(_fractional_network(),
                           [LossWithLogging(0.2, seed=1)]) is None


def test_stepper_declines_exotic_protocol_subclass():
    from repro.core.fractional import FractionalNode
    from repro.simulation.columnar import resolve_stepper

    class TweakedNode(FractionalNode):
        pass

    net = _fractional_network()
    for proc in net.processes.values():
        proc.__class__ = TweakedNode
    assert resolve_stepper(net, []) is None


def test_stepper_declines_heterogeneous_lane_parameters():
    from repro.simulation.columnar import resolve_stepper

    net = _fractional_network()
    next(iter(net.processes.values())).t += 1
    assert resolve_stepper(net, []) is None


def test_stepper_declines_strict_bit_budget():
    from repro.simulation.columnar import resolve_stepper

    net = _fractional_network()
    net.strict_message_bits = 10 ** 6
    assert resolve_stepper(net, []) is None


def test_jrs_stepper_declines_any_injector():
    from repro.baselines.jrs import JRSProgram
    from repro.simulation.columnar import resolve_stepper
    from repro.simulation.steppers import JRSStepper

    g = _graph(8)
    program = JRSProgram(graph_artifacts(g), {v: 1 for v in g.nodes},
                         "closed", 8, 10_000)
    assert isinstance(resolve_stepper(_network_for(program, 8), []),
                      JRSStepper)
    assert resolve_stepper(_network_for(program, 8),
                           [MessageLossInjector(0.1, seed=2)]) is None


def test_reference_flag_matches_default():
    g = _graph(4)
    lp = _resolve_instance(g, None, feasible_coverage(g, 1))
    program = FractionalProgram(lp, t=2, compute_duals=True)
    batched = execute(program, "message", seed=4)
    oracle = execute(program, "message", seed=4, reference=True)
    assert batched.x == oracle.x
    assert batched.z == oracle.z
    _assert_stats_equal(batched, oracle)
