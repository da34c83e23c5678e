"""Columnar protocol stepping plane vs the per-node generator oracle.

``run_protocol`` routes stock protocols through per-round batched
steppers (:mod:`repro.simulation.steppers`); the per-node generator
loop stays reachable via ``reference=True`` as the oracle.
These tests pin the batched plane to that oracle **bit-for-bit** —
solutions (exact float dicts, member sets), RunStats, per-lane RNG
consumption, and loss-injector RNG state/drop counts — across all five
registered protocols and the built-in injector matrix, plus the
experiment call sites (E17, E23) that ride the plane.
"""

from __future__ import annotations

from types import SimpleNamespace

import networkx as nx
import numpy as np
import pytest

from repro.baselines.jrs import JRSProgram
from repro.core.fractional import FractionalProgram, _resolve_instance
from repro.core.rounding import RoundingProgram
from repro.core.udg import UDGNode, UDGProgram, theta_schedule
from repro.dynamics.repair import LocalPatchRepair, PatchNode
from repro.engine import execute
from repro.engine.artifacts import graph_artifacts
from repro.engine.instrumentation import Instrumentation
from repro.errors import GraphError
from repro.graphs.properties import feasible_coverage
from repro.graphs.udg import random_udg
from repro.simulation.columnar import resolve_stepper
from repro.simulation.faults import CrashFaultInjector, MessageLossInjector
from repro.simulation.network import SynchronousNetwork
from repro.simulation.runner import run_protocol
from repro.simulation.vecrng import GridReplicaStreams, _FallbackStreams

STATS = ("rounds", "messages_sent", "bits_sent", "max_message_bits")


def _graph(seed: int) -> nx.Graph:
    return nx.gnp_random_graph(24, 0.25, seed=seed)


def _stats(s):
    return tuple(getattr(s, f) for f in STATS)


def _inj_state(injectors):
    out = []
    for inj in injectors:
        if isinstance(inj, MessageLossInjector):
            out.append((inj.dropped, repr(inj.rng.bit_generator.state)))
        else:
            out.append(tuple(sorted(map(repr, inj.crashed))))
    return out


def _pair(program, *, seed, injector_factory=lambda: []):
    """Batched and oracle runs with independent injector instances;
    returns (batched result, oracle result) and asserts stats + final
    injector state match exactly."""
    inj_b, inj_o = injector_factory(), injector_factory()
    batched = execute(program, "message", seed=seed, injectors=inj_b)
    oracle = execute(program, "message", seed=seed, injectors=inj_o,
                     reference=True)
    assert _stats(batched.stats) == _stats(oracle.stats)
    assert _inj_state(inj_b) == _inj_state(inj_o)
    return batched, oracle


# ----------------------------------------------------------------------
# Algorithm 1 — exact x/y/z and duals
# ----------------------------------------------------------------------

@pytest.mark.parametrize("t,duals", ((1, False), (2, True), (3, True)))
def test_fractional_stepper_bit_identical(t, duals):
    g = _graph(t)
    lp = _resolve_instance(g, None, feasible_coverage(g, 2))
    program = FractionalProgram(lp, t=t, compute_duals=duals)
    batched, oracle = _pair(program, seed=t)
    assert batched.x == oracle.x
    assert batched.y == oracle.y
    if duals:
        assert batched.z == oracle.z
        assert batched.alpha == oracle.alpha
        assert batched.beta == oracle.beta


@pytest.mark.parametrize("loss", (0.3, 1.0))
def test_fractional_stepper_under_loss(loss):
    g = _graph(5)
    lp = _resolve_instance(g, None, feasible_coverage(g, 2))
    program = FractionalProgram(lp, t=2, compute_duals=True)
    batched, oracle = _pair(
        program, seed=5,
        injector_factory=lambda: [MessageLossInjector(loss, seed=42)])
    assert batched.x == oracle.x
    assert batched.z == oracle.z


def test_fractional_stepper_under_crash_plus_loss():
    g = _graph(6)
    lp = _resolve_instance(g, None, feasible_coverage(g, 1))
    program = FractionalProgram(lp, t=2, compute_duals=False)
    victims = sorted(g.nodes)[:4]
    batched, oracle = _pair(
        program, seed=6,
        injector_factory=lambda: [
            CrashFaultInjector({1: victims[:2], 4: victims[2:]}),
            MessageLossInjector(0.5, seed=9)])
    assert batched.x == oracle.x
    assert batched.y == oracle.y


# ----------------------------------------------------------------------
# Algorithm 2 — seeded coin flips and REQ selection
# ----------------------------------------------------------------------

@pytest.mark.parametrize("policy", ("random", "highest-x"))
def test_rounding_stepper_identical(policy):
    g = _graph(1)
    lp = _resolve_instance(g, None, feasible_coverage(g, 1))
    frac = execute(FractionalProgram(lp, t=2, compute_duals=False), "direct")
    program = RoundingProgram(lp, frac.x, policy, 1)
    batched, oracle = _pair(
        program, seed=1,
        injector_factory=lambda: [MessageLossInjector(0.35, seed=3)])
    assert batched.members == oracle.members


def test_rounding_stepper_under_crash():
    g = _graph(2)
    lp = _resolve_instance(g, None, feasible_coverage(g, 1))
    frac = execute(FractionalProgram(lp, t=2, compute_duals=False), "direct")
    program = RoundingProgram(lp, frac.x, "random", 1)
    victims = sorted(g.nodes)[:3]
    batched, oracle = _pair(
        program, seed=2,
        injector_factory=lambda: [CrashFaultInjector({0: victims[:1],
                                                      1: victims[1:]})])
    assert batched.members == oracle.members


# ----------------------------------------------------------------------
# Algorithm 3 — Part I elections + Part II adoption
# ----------------------------------------------------------------------

@pytest.mark.parametrize("policy", ("by-id", "random"))
def test_udg_stepper_identical_under_loss(policy):
    udg = random_udg(40, density=8.0, seed=4)
    program = UDGProgram(udg, 2, policy, 5)
    batched, oracle = _pair(
        program, seed=4,
        injector_factory=lambda: [MessageLossInjector(0.3, seed=11)])
    assert batched.members == oracle.members


def test_udg_stepper_identical_under_crash_plus_loss():
    udg = random_udg(35, density=8.0, seed=7)
    program = UDGProgram(udg, 2, "by-id", 5)
    batched, oracle = _pair(
        program, seed=7,
        injector_factory=lambda: [
            CrashFaultInjector({2: [0, 5], 9: [9]}),
            MessageLossInjector(0.4, seed=13)])
    assert batched.members == oracle.members


# Around the vector engine's identifier boundary: n^4 - 1 fits the
# 32-bit sampler up to n = 256 (per-node fallback streams), and Lemire's
# 64-bit path from n = 257 on (vector draws).

@pytest.mark.parametrize("n", (256, 257, 300))
@pytest.mark.parametrize("policy", ("by-id", "random"))
def test_udg_stepper_identical_at_stream_boundary(n, policy):
    udg = random_udg(n, density=8.0, seed=n)
    program = UDGProgram(udg, 2, policy, 3)
    batched, oracle = _pair(
        program, seed=3,
        injector_factory=lambda: [MessageLossInjector(0.2, seed=5)])
    assert batched.members == oracle.members


@pytest.mark.parametrize("n", (257, 300))
def test_udg_stepper_identical_under_crash_plus_loss_vector_draws(n):
    udg = random_udg(n, density=8.0, seed=n + 1)
    program = UDGProgram(udg, 2, "random", 9)
    batched, oracle = _pair(
        program, seed=9,
        injector_factory=lambda: [
            CrashFaultInjector({2: [0, 7, 40], 9: [9, 120], 15: [3]}),
            MessageLossInjector(0.1, seed=21)])
    assert batched.members == oracle.members


def test_udg_stepper_lossy_run_to_iteration_cap():
    """The repository benchmark's lossy shape at n=257: a few leaders
    stay live until Part II's iteration cap."""
    n = 257
    udg = random_udg(n, density=10.0, seed=17)
    cap = 2 * len(theta_schedule(n)) + 2 + 3 * (n + 1)
    outs = []
    for reference in (False, True):
        procs = [UDGNode(v, 2, n, "random", n + 1) for v in range(n)]
        net = SynchronousNetwork(udg, procs, seed=0)
        injectors = [MessageLossInjector(0.05, seed=1)]
        stats = run_protocol(net, injectors=injectors, max_rounds=cap + 8,
                             reference=reference)
        outs.append(({p.node_id for p in procs if p.leader}, _stats(stats),
                     _inj_state(injectors)))
    assert outs[0] == outs[1]
    assert outs[0][1][0] == cap == 788


@pytest.mark.parametrize("n,kind", ((256, _FallbackStreams),
                                    (257, GridReplicaStreams)))
def test_udg_stepper_stream_class(n, kind):
    udg = random_udg(n, density=8.0, seed=n)
    procs = UDGProgram(udg, 2, "random", 0).processes()
    stepper = resolve_stepper(SynchronousNetwork(udg, procs, seed=0), [])
    assert type(stepper.streams) is kind


# ----------------------------------------------------------------------
# JRS/LRG baseline (injector-free plane; per-phase coin flips)
# ----------------------------------------------------------------------

@pytest.mark.parametrize("convention", ("closed", "open"))
def test_jrs_stepper_identical(convention):
    g = _graph(8)
    rng = np.random.default_rng(0)
    req = {v: (int(rng.integers(0, 3)) if convention == "open"
               else int(rng.integers(1, min(3, g.degree[v] + 1) + 1)))
           for v in g.nodes}
    for seed in (8, 21):
        batched, oracle = _pair(
            JRSProgram(graph_artifacts(g), req, convention, seed, 10_000),
            seed=seed)
        assert batched.members == oracle.members
        assert batched.details == oracle.details


def test_jrs_stepper_string_node_ids():
    g = nx.relabel_nodes(_graph(3), {v: f"n{v}" for v in range(24)})
    req = {v: 1 for v in g.nodes}
    batched, oracle = _pair(
        JRSProgram(graph_artifacts(g), req, "open", 3, 10_000), seed=3)
    assert batched.members == oracle.members


def test_jrs_stepper_convergence_valve_parity():
    g = nx.complete_graph(6)
    req = {v: 1 for v in g.nodes}
    errors = []
    for flag in (False, True):
        program = JRSProgram(graph_artifacts(g), req, "closed", 3, 0)
        with pytest.raises(GraphError) as exc:
            execute(program, "message", seed=3, reference=flag)
        errors.append(str(exc.value))
    assert errors[0] == errors[1]


# ----------------------------------------------------------------------
# Repair patch protocol — PatchNode
# ----------------------------------------------------------------------

def _patch_instance(gseed):
    """A damage patch exactly as ``LocalPatchRepair._repair_message``
    builds one: deficient nodes plus their 1-hop balls."""
    g = nx.gnp_random_graph(30, 0.15, seed=gseed)
    nodes = sorted(g.nodes)
    members = set(nodes[::3])
    deficient = {v: 1 + v % 3 for v in nodes[1::4] if v not in members}
    patch = nx.Graph()
    for u in deficient:
        patch.add_node(u)
        for w in g.neighbors(u):
            patch.add_edge(u, w)
    return patch, members, deficient


def _patch_procs(patch, members, deficient, *, k, policy, patience, maxit):
    return [
        PatchNode(v, k=k, policy=policy, deficit=deficient.get(v, 0),
                  is_member=v in members,
                  member_neighbors=[w for w in patch.neighbors(v)
                                    if w in members],
                  patience=patience, max_iterations=maxit)
        for v in sorted(patch.nodes)
    ]


def _patch_run(patch, members, deficient, *, policy="by-id", k=3,
               patience=3, maxit=10, seed=0, injector_factory=lambda: [],
               reference=False):
    procs = _patch_procs(patch, members, deficient, k=k, policy=policy,
                         patience=patience, maxit=maxit)
    net = SynchronousNetwork(patch, procs, seed=seed)
    injectors = injector_factory()
    stats = run_protocol(net, max_rounds=3 * maxit + 6, injectors=injectors,
                         reference=reference)
    snap = [(p.node_id, p.member, p.deficit, p.promoted, p.iterations,
             tuple(sorted(map(repr, p.member_neighbors)))) for p in procs]
    return snap, _stats(stats), _inj_state(injectors)


@pytest.mark.parametrize("policy", ("by-id", "random"))
@pytest.mark.parametrize("injector_factory", (
    lambda: [],
    lambda: [MessageLossInjector(0.3, seed=7)],
    lambda: [MessageLossInjector(1.0, seed=7)],
    lambda: [CrashFaultInjector({1: [1], 4: [2]}),
             MessageLossInjector(0.5, seed=9)],
))
def test_patch_stepper_identical(policy, injector_factory):
    patch, members, deficient = _patch_instance(1)
    a = _patch_run(patch, members, deficient, policy=policy,
                   injector_factory=injector_factory)
    b = _patch_run(patch, members, deficient, policy=policy,
                   injector_factory=injector_factory, reference=True)
    assert a == b


def test_patch_stepper_edge_cases_identical():
    g = nx.path_graph(4)
    cases = (
        dict(members={0, 1, 2, 3}, deficient={}, maxit=2),
        dict(members=set(), deficient={1: 2, 2: 1}, maxit=12),  # orphans
        dict(members={0}, deficient={1: 3, 3: 2}, maxit=1),  # exhaustion
    )
    for case in cases:
        a = _patch_run(g, case["members"], case["deficient"],
                       maxit=case["maxit"])
        b = _patch_run(g, case["members"], case["deficient"],
                       maxit=case["maxit"], reference=True)
        assert a == b


@pytest.mark.parametrize("loss", (0.0, 0.4))
def test_local_patch_repair_oracle_identical(loss):
    """The E23 call shape: a whole LocalPatchRepair epoch, batched vs
    ``reference=True``."""
    g = nx.gnp_random_graph(60, 0.08, seed=8)
    members = set(sorted(g.nodes)[::4])
    deficit = {v: 2 for v in sorted(set(g.nodes) - members)[:10]}
    state = SimpleNamespace(members=members)
    outs = []
    for flag in (False, True):
        policy = LocalPatchRepair("by-id", transport="message",
                                  loss_rate=loss, patience=3,
                                  reference=flag)
        out = policy.repair(state, g, dict(deficit), 2,
                            rng=np.random.default_rng(42),
                            instr=Instrumentation.for_n(60))
        outs.append((sorted(map(repr, out.promoted)),
                     sorted(map(repr, out.touched)), out.rounds,
                     out.messages, out.iterations, out.repaired))
    assert outs[0] == outs[1]


# ----------------------------------------------------------------------
# Two runs on one network: the node streams continue, process state
# carries over
# ----------------------------------------------------------------------

def _udg_rerun_case(n):
    udg = random_udg(n, density=8.0, seed=n)
    program = UDGProgram(udg, 2, "random", 0)
    return udg, program.processes, program.max_rounds()


def _rounding_rerun_case():
    g = _graph(1)
    lp = _resolve_instance(g, None, feasible_coverage(g, 2))
    frac = execute(FractionalProgram(lp, t=2, compute_duals=False), "direct")
    program = RoundingProgram(lp, frac.x, "random", 1)
    return program.network_graph, program.processes, program.max_rounds()


def _jrs_rerun_case():
    # The open convention: a closed-convention rerun never converges,
    # because members from the first run cannot join again (and some
    # open ones do not either; this one does).
    g = _graph(8)
    rng = np.random.default_rng(1)
    req = {v: int(rng.integers(0, 3)) for v in g.nodes}
    program = JRSProgram(graph_artifacts(g), req, "open", 8, 200)
    return g, program.processes, program.max_rounds()


def _patch_rerun_case(policy):
    patch, members, deficient = _patch_instance(1)
    return patch, lambda: _patch_procs(
        patch, members, deficient, k=1, policy=policy, patience=3,
        maxit=10), 36


_RERUN_CASES = {
    "udg-40": lambda: _udg_rerun_case(40),
    "udg-300": lambda: _udg_rerun_case(300),
    "rounding": _rounding_rerun_case,
    "jrs": _jrs_rerun_case,
    "patch-random": lambda: _patch_rerun_case("random"),
    "patch-by-id": lambda: _patch_rerun_case("by-id"),
}


def _proc_state(procs):
    """Every process attribute a run may write (``ctx`` aside: only the
    per-node loop builds contexts)."""
    def norm(value):
        if isinstance(value, (set, frozenset)):
            return tuple(sorted(map(repr, value)))
        return repr(value)

    return [sorted((k, norm(v)) for k, v in vars(p).items() if k != "ctx")
            for p in procs]


def _runs_on_one_network(case, references, seed=5):
    graph, make_procs, max_rounds = case
    procs = make_procs()
    net = SynchronousNetwork(graph, procs, seed=seed)
    out = []
    for reference in references:
        stats = run_protocol(net, max_rounds=max_rounds,
                             reference=reference)
        out.append((_stats(stats), _proc_state(procs)))
    return out


@pytest.mark.parametrize("case", sorted(_RERUN_CASES))
@pytest.mark.parametrize("order", ((False, False), (True, False),
                                   (False, True)),
                         ids=("columnar-columnar", "reference-columnar",
                              "columnar-reference"))
def test_rerun_on_one_network_matches_reference_reruns(case, order):
    build = _RERUN_CASES[case]
    got = _runs_on_one_network(build(), order)
    want = _runs_on_one_network(build(), (True, True))
    assert got == want


def test_stepper_declines_once_streams_advanced():
    udg, make_procs, max_rounds = _udg_rerun_case(40)
    net = SynchronousNetwork(udg, make_procs(), seed=5)
    assert resolve_stepper(net, []) is not None
    run_protocol(net, max_rounds=max_rounds)
    assert not net.rngs.fresh
    assert resolve_stepper(net, []) is None


@pytest.mark.parametrize("case", ("jrs", "patch-random", "patch-by-id"))
def test_stepper_reads_process_state_left_by_earlier_run(case):
    """Processes carrying an earlier run's state, on fresh streams: the
    stepper starts from what the generator body reads."""
    outs = []
    for reference in (False, True):
        graph, make_procs, max_rounds = _RERUN_CASES[case]()
        procs = make_procs()
        _runs_on_one_network((graph, lambda: procs, max_rounds), (True,))
        outs.append(_runs_on_one_network((graph, lambda: procs, max_rounds),
                                         (reference,), seed=6))
    assert outs[0] == outs[1]


# ----------------------------------------------------------------------
# Experiment call sites ride the plane bit-identically
# ----------------------------------------------------------------------

def test_e17_cell_identical_to_oracle():
    from repro.experiments.e17_message_loss import _run_with_loss

    udg = random_udg(60, density=8.0, seed=31)
    for loss in (0.0, 0.15):
        batched = _run_with_loss(udg, 3, loss, 17)
        oracle = _run_with_loss(udg, 3, loss, 17, reference=True)
        assert batched == oracle


# ----------------------------------------------------------------------
# The numpy dispatch leg (REPRO_KERNEL_BACKEND=numpy) is pinned too
# ----------------------------------------------------------------------

def test_take_consults_registry_only_for_native_dtypes(monkeypatch):
    from repro.engine import dispatch
    from repro.simulation import columnar

    looked_up = []
    monkeypatch.setattr(dispatch, "kernel",
                        lambda entry, size=None: looked_up.append(entry))
    idx = np.array([2, 0, 1])
    mask = np.array([True, False, True])
    assert columnar.take(mask, idx).tolist() == [True, True, False]
    assert looked_up == []
    values = np.array([0.5, 1.5, 2.5])
    assert columnar.take(values, idx).tolist() == [2.5, 0.5, 1.5]
    assert looked_up == ["state_scatter"]


def test_stepper_numpy_backend_matches_oracle(monkeypatch):
    g = _graph(12)
    lp = _resolve_instance(g, None, feasible_coverage(g, 2))
    program = FractionalProgram(lp, t=2, compute_duals=True)
    native = execute(program, "message", seed=12)
    monkeypatch.setenv("REPRO_KERNEL_BACKEND", "numpy")
    numpy_run = execute(program, "message", seed=12)
    oracle = execute(program, "message", seed=12, reference=True)
    assert numpy_run.x == oracle.x == native.x
    assert numpy_run.z == oracle.z == native.z
    assert _stats(numpy_run.stats) == _stats(oracle.stats)
