"""Generated differential suite: every stepper × every built-in injector.

The columnar plane (:mod:`repro.simulation.columnar`) must equal the
per-node generator loop bit for bit.  Hand-picked cells pin that in
``tests/test_protocol_steppers.py``; here Hypothesis generates the
matrix instead:

- graphs: gnp graphs and UDGs with n from 1 to 60, UDGs with n of 256
  and 257 (Algorithm 3's vecrng stream boundary), isolated nodes,
  edgeless graphs, string labels and mixed int/string labels;
- programs: Algorithm 1 with duals on and off (also weighted and with
  local Delta estimates), Algorithm 2 under each REQ policy, Algorithm
  3 with by-id and random selection, and the JRS baseline;
- injectors: none; loss at 0, 0.05, 0.5 and 1.0; crash schedules at
  round 0, in mid-run and of every node; crash plus loss in either
  order.

Two entry points are compared with the oracle on independent injector
instances: ``execute(program, "message")`` (a lane run, no processes)
against ``execute(..., reference=True)``, and ``run_protocol`` on
hand-built processes against ``run_protocol(..., reference=True)``.
Equal means equal results (float dicts and member sets with ``==``),
equal ``RunStats``, equal loss-injector RNG state and ``dropped``
count, equal crash sets and, for ``run_protocol``, equal process state
after the run.  A run that raises must raise the same error on both.

The direct backend (no injectors) is compared with the same oracle:
Algorithm 1 and JRS on results and ``RunStats``, Algorithm 2 on members
and ``RunStats`` (its kernel adds the ``sampled`` / ``requested``
tallies to the details), and Algorithm 3 on members and rounds (its
kernels charge rounds only) plus the invariants its details imply; its
graphs include the empty UDG, on which both paths run no round.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from repro.baselines.jrs import JRSProgram
from repro.core.fractional import FractionalProgram, _resolve_instance
from repro.core.local_delta import two_hop_max_degree
from repro.core.rounding import REQUEST_POLICIES, RoundingProgram
from repro.core.udg import SELECTION_POLICIES, UDGProgram
from repro.engine import execute
from repro.engine.artifacts import graph_artifacts
from repro.graphs.properties import feasible_coverage
from repro.graphs.udg import random_udg
from repro.simulation.faults import CrashFaultInjector, MessageLossInjector
from repro.simulation.network import SynchronousNetwork
from repro.simulation.runner import run_protocol
from repro.types import FractionalSolution

COMMON = dict(deadline=None, max_examples=60,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large])

STATS = ("rounds", "messages_sent", "bits_sent", "max_message_bits",
         "control_messages", "virtual_time")

LOSS_RATES = (0.0, 0.05, 0.5, 1.0)


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

@st.composite
def general_graphs(draw):
    """Graphs for Algorithms 1 and 2 and JRS (any labels)."""
    kind = draw(st.sampled_from(("gnp", "udg", "isolated", "edgeless",
                                 "strings", "mixed")))
    event(f"graph: {kind}")
    n = draw(st.integers(1, 60))
    seed = draw(st.integers(0, 2 ** 16))
    if kind == "udg":
        return random_udg(n, density=draw(st.sampled_from((3.0, 8.0))),
                          seed=seed).nx
    if kind == "edgeless":
        return nx.empty_graph(n)
    g = nx.gnp_random_graph(n, draw(st.sampled_from((0.05, 0.15, 0.4))),
                            seed=seed)
    if kind == "isolated":
        g.add_nodes_from(range(n, n + draw(st.integers(1, 5))))
    elif kind == "strings":
        g = nx.relabel_nodes(g, {v: f"n{v}" for v in g.nodes})
    elif kind == "mixed":
        g = nx.relabel_nodes(g, {v: (str(v) if v % 3 == 0 else v)
                                 for v in g.nodes})
    return g


@st.composite
def udg_graphs(draw, min_n=1):
    """UDGs for Algorithm 3: small ones (from ``min_n`` nodes), and both
    sides of the n = 256 stream boundary."""
    n = draw(st.one_of(st.integers(min_n, 60), st.sampled_from((256, 257))))
    event(f"udg: n={n}" if n > 60 else "udg: n<=60")
    density = draw(st.sampled_from((4.0, 8.0)))
    return random_udg(n, density=density, seed=draw(st.integers(0, 2 ** 16)))


@st.composite
def injector_mixes(draw, nodes, *, allow_loss=True):
    """A factory of fresh injector lists (injectors hold RNG and crash
    state, so each run gets its own) plus a label for failure output."""
    kinds = ["none", "crash0", "crash_mid", "crash_all"]
    if allow_loss:
        kinds += ["loss", "crash_loss", "loss_crash"]
    kind = draw(st.sampled_from(kinds))
    loss = draw(st.sampled_from(LOSS_RATES))
    loss_seed = draw(st.integers(0, 1000))
    when = draw(st.integers(1, 7))
    victims = draw(st.lists(st.sampled_from(nodes), unique=True,
                            max_size=max(1, len(nodes) // 3)))
    event(f"injectors: {kind}" + (f" {loss}" if "loss" in kind else ""))

    def make():
        lossy = MessageLossInjector(loss, seed=loss_seed)
        if kind == "none":
            return []
        if kind == "loss":
            return [lossy]
        if kind == "crash0":
            return [CrashFaultInjector({0: victims})]
        if kind == "crash_mid":
            return [CrashFaultInjector({when: victims})]
        if kind == "crash_all":
            return [CrashFaultInjector({when % 3: nodes})]
        crash = CrashFaultInjector({when: victims, when + 2: victims[:1]})
        return [crash, lossy] if kind == "crash_loss" else [lossy, crash]

    return (kind, loss), make


# ----------------------------------------------------------------------
# Comparison
# ----------------------------------------------------------------------

def _injector_state(injectors):
    out = []
    for inj in injectors:
        if isinstance(inj, MessageLossInjector):
            out.append((inj.dropped, repr(inj.rng.bit_generator.state)))
        else:
            out.append(tuple(sorted(map(repr, inj.crashed))))
    return out


def _stats(stats):
    return tuple(getattr(stats, f) for f in STATS)


def _result(result):
    if isinstance(result, FractionalSolution):
        return (result.x, result.y, result.z, result.alpha, result.beta,
                result.t)
    return (result.members, result.details)


def _outcome(run, injectors):
    """What a run produced: its result + stats (or the error it raised)
    and the injector state it left."""
    try:
        value = run(injectors)
    except Exception as exc:  # both paths must raise alike
        value = ("raised", type(exc).__name__, str(exc))
    return value, _injector_state(injectors)


def assert_execute_matches_oracle(program, seed, make_injectors):
    def lane_run(injectors):
        result = execute(program, "message", seed=seed, injectors=injectors)
        return _result(result), _stats(result.stats)

    def oracle(injectors):
        result = execute(program, "message", seed=seed, injectors=injectors,
                         reference=True)
        return _result(result), _stats(result.stats)

    assert _outcome(lane_run, make_injectors()) == \
        _outcome(oracle, make_injectors())


def _process_state(procs):
    def norm(value):
        if isinstance(value, (set, frozenset)):
            return tuple(sorted(map(repr, value)))
        return repr(value)

    return [sorted((k, norm(v)) for k, v in vars(p).items() if k != "ctx")
            for p in procs]


def assert_run_protocol_matches_oracle(program, seed, make_injectors):
    def run(reference):
        def go(injectors):
            procs = program.processes()
            net = SynchronousNetwork(program.network_graph, procs, seed=seed,
                                     **program.network_kwargs)
            try:
                stats = run_protocol(net, max_rounds=program.max_rounds(),
                                     injectors=injectors,
                                     reference=reference)
            except Exception as exc:
                return (("raised", type(exc).__name__, str(exc)),
                        _process_state(procs))
            return _stats(stats), _process_state(procs)
        return go

    assert _outcome(run(False), make_injectors()) == \
        _outcome(run(True), make_injectors())


# ----------------------------------------------------------------------
# Programs
# ----------------------------------------------------------------------

@st.composite
def fractional_programs(draw):
    g = draw(general_graphs())
    lp = _resolve_instance(g, None, feasible_coverage(g, draw(
        st.integers(1, 3))))
    t = draw(st.integers(1, 3))
    variant = draw(st.sampled_from(("duals", "plain", "weighted",
                                    "local_delta")))
    if variant == "weighted":
        rng = np.random.default_rng(draw(st.integers(0, 100)))
        weights = {v: float(rng.uniform(0.5, 3.0)) for v in g.nodes}
        return FractionalProgram(lp, t, False, weights=weights)
    if variant == "local_delta":
        return FractionalProgram(lp, t, draw(st.booleans()),
                                 local_delta=two_hop_max_degree(g))
    return FractionalProgram(lp, t, variant == "duals")


@st.composite
def rounding_programs(draw):
    g = draw(general_graphs())
    lp = _resolve_instance(g, None, feasible_coverage(g, draw(
        st.integers(1, 3))))
    values = draw(st.lists(st.floats(0.0, 1.0), min_size=lp.n,
                           max_size=lp.n))
    x = dict(zip(lp.nodes, values))
    policy = draw(st.sampled_from(REQUEST_POLICIES))
    return RoundingProgram(lp, x, policy, draw(st.integers(0, 1000)))


@st.composite
def udg_programs(draw, min_n=1):
    udg = draw(udg_graphs(min_n))
    return UDGProgram(udg, draw(st.integers(1, 3)),
                      draw(st.sampled_from(SELECTION_POLICIES)),
                      draw(st.integers(0, 1000)))


@st.composite
def jrs_programs(draw):
    g = draw(general_graphs())
    convention = draw(st.sampled_from(("closed", "open")))
    k = draw(st.integers(1, 2))
    req = (feasible_coverage(g, k) if convention == "closed"
           else {v: k for v in g.nodes})
    # A small phase cap keeps runs that cannot converge (crashed
    # neighbors never clear their residual) short; both paths raise.
    return JRSProgram(graph_artifacts(g), req, convention,
                      draw(st.integers(0, 1000)), 30)


PROGRAMS = {
    "fractional": fractional_programs,
    "rounding": rounding_programs,
    "udg": udg_programs,
    "jrs": jrs_programs,
}


def _nodes(program):
    return list(program.artifacts.nodes)


# ----------------------------------------------------------------------
# execute(): lane runs vs the per-node oracle
# ----------------------------------------------------------------------

@settings(**COMMON)
@given(data=st.data(), program=fractional_programs())
def test_fractional_lane_run_matches_oracle(data, program):
    _, make = data.draw(injector_mixes(_nodes(program)))
    assert_execute_matches_oracle(program, data.draw(st.integers(0, 99)),
                                  make)


@settings(**COMMON)
@given(data=st.data(), program=rounding_programs())
def test_rounding_lane_run_matches_oracle(data, program):
    _, make = data.draw(injector_mixes(_nodes(program)))
    assert_execute_matches_oracle(program, data.draw(st.integers(0, 99)),
                                  make)


@settings(**COMMON)
@given(data=st.data(), program=udg_programs())
def test_udg_lane_run_matches_oracle(data, program):
    # Loss keeps the whole 256/257-node oracle running to Part II's
    # iteration cap; the boundary sizes take crashes only.
    big = program.udg.n > 60
    _, make = data.draw(injector_mixes(_nodes(program), allow_loss=not big))
    assert_execute_matches_oracle(program, program.seed, make)


@settings(**COMMON)
@given(data=st.data(), program=jrs_programs())
def test_jrs_lane_run_matches_oracle(data, program):
    _, make = data.draw(injector_mixes(_nodes(program)))
    assert_execute_matches_oracle(program, program.seed, make)


# ----------------------------------------------------------------------
# run_protocol() on hand-built processes vs the per-node oracle
# ----------------------------------------------------------------------

@settings(**dict(COMMON, max_examples=80))
@given(data=st.data(), family=st.sampled_from(sorted(PROGRAMS)))
def test_process_run_matches_oracle(data, family):
    program = data.draw(PROGRAMS[family]())
    if family == "udg" and program.udg.n > 60:
        _, make = data.draw(injector_mixes(_nodes(program), allow_loss=False))
    else:
        _, make = data.draw(injector_mixes(_nodes(program)))
    assert_run_protocol_matches_oracle(
        program, data.draw(st.integers(0, 99)), make)


# ----------------------------------------------------------------------
# execute(..., "direct"): the fast path vs the per-node oracle
# ----------------------------------------------------------------------

def assert_direct_matches_oracle(program, seed):
    """The injector-free direct run and the per-node oracle give equal
    results and ``RunStats``, or raise the same error."""
    def run(mode, **kwargs):
        def go(injectors):
            result = execute(program, mode, seed=seed, **kwargs)
            return _result(result), _stats(result.stats)
        return go

    assert _outcome(run("direct"), []) == \
        _outcome(run("message", reference=True), [])


def _direct_and_oracle(program, seed):
    return (execute(program, "direct", seed=seed),
            execute(program, "message", seed=seed, reference=True))


@settings(**COMMON)
@given(program=fractional_programs(), seed=st.integers(0, 99))
def test_fractional_direct_matches_oracle(program, seed):
    assert_direct_matches_oracle(program, seed)


@settings(**COMMON)
@given(program=rounding_programs(), seed=st.integers(0, 99))
def test_rounding_direct_matches_oracle(program, seed):
    direct, oracle = _direct_and_oracle(program, seed)
    assert direct.members == oracle.members
    assert _stats(direct.stats) == _stats(oracle.stats)
    assert direct.details["policy"] == oracle.details["policy"]
    assert (direct.details["sampled"] + direct.details["requested"]
            == len(direct.members))


@settings(**COMMON)
@given(program=udg_programs(min_n=0), seed=st.integers(0, 99))
def test_udg_direct_matches_oracle(program, seed):
    # n = 0 included: an empty graph runs no round on either path.
    direct, oracle = _direct_and_oracle(program, seed)
    assert direct.members == oracle.members
    assert direct.stats.rounds == oracle.stats.rounds
    if program.udg.n == 0:
        return
    details = direct.details
    assert (details["part1_leaders"] + details["part2_adopted"]
            == len(direct.members))
    assert details["active_per_round"][-1] == details["part1_leaders"]
    assert direct.stats.rounds == (2 * len(details["theta_per_round"]) + 2
                                   + 3 * details["part2_iterations"])


def test_udg_direct_charges_the_given_accountant():
    # RoundProgram.direct's contract: the kernel run charges ``instr``.
    program = UDGProgram(random_udg(60, density=8.0, seed=3), 2, "random", 0)
    instr = program.instrumentation()
    result = program.direct(instr)
    assert result.stats is instr.stats
    oracle = execute(program, "direct", reference=True)
    assert instr.stats.rounds == oracle.stats.rounds > 0


@settings(**COMMON)
@given(program=jrs_programs(), seed=st.integers(0, 99))
def test_jrs_direct_matches_oracle(program, seed):
    assert_direct_matches_oracle(program, seed)
