"""Cross-backend equivalence: every engine-ported algorithm must compute
the same answer on every execution backend for the same seed.

This is the contract of :mod:`repro.engine`: ``mode=`` selects *how* an
algorithm runs (vectorized, simulated rounds, event-driven asynchrony),
never *what* it computes.  Each test runs one entry point under
``direct`` / ``message`` / ``async`` (and ``async-beta`` where cheap) on
fixed seeds and compares dominating sets exactly and x-vectors to float
tolerance.  The unified ``mode`` / ``seed`` validation is covered at the
end.
"""

from __future__ import annotations

import networkx as nx
import pytest

from repro.baselines.jrs import jrs_kmds
from repro.core.fractional import fractional_kmds
from repro.core.local_delta import estimate_two_hop_max_message
from repro.core.rounding import randomized_rounding
from repro.core.udg import solve_kmds_udg
from repro.errors import GraphError, UnknownModeError
from repro.graphs.properties import feasible_coverage
from repro.graphs.udg import UnitDiskGraph, random_udg
from repro.weighted.fractional import weighted_fractional_kmds

MODES = ("direct", "message", "async")
ALL_MODES = ("direct", "message", "async", "async-beta")
SEEDS = (0, 17)


def _graph(seed: int) -> nx.Graph:
    return nx.gnp_random_graph(26, 0.22, seed=seed)


# ----------------------------------------------------------------------
# Algorithm 1 (+ weighted variant): identical x-vectors
# ----------------------------------------------------------------------

@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("mode", ALL_MODES[1:])
def test_fractional_x_identical_across_modes(mode, seed):
    g = _graph(seed)
    cov = feasible_coverage(g, 2)
    ref = fractional_kmds(g, coverage=cov, t=2, mode="direct", seed=seed)
    alt = fractional_kmds(g, coverage=cov, t=2, mode=mode, seed=seed)
    assert set(ref.x) == set(alt.x)
    for v in ref.x:
        assert ref.x[v] == pytest.approx(alt.x[v], abs=1e-12)


@pytest.mark.parametrize("mode", MODES[1:])
def test_weighted_fractional_x_identical_across_modes(mode):
    g = _graph(3)
    weights = {v: 1.0 + (v % 5) for v in g.nodes}
    ref = weighted_fractional_kmds(g, weights, 1, t=2, mode="direct", seed=3)
    alt = weighted_fractional_kmds(g, weights, 1, t=2, mode=mode, seed=3)
    for v in ref.x:
        assert ref.x[v] == pytest.approx(alt.x[v], abs=1e-12)


# ----------------------------------------------------------------------
# Algorithm 2: identical dominating sets
# ----------------------------------------------------------------------

@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("mode", ALL_MODES[1:])
@pytest.mark.parametrize("policy", ("random", "highest-x", "self-first"))
def test_rounding_members_identical_across_modes(mode, policy, seed):
    g = _graph(seed)
    frac = fractional_kmds(g, 1, t=2, mode="direct", seed=seed)
    ref = randomized_rounding(g, frac.x, 1, policy=policy, mode="direct",
                              seed=seed)
    alt = randomized_rounding(g, frac.x, 1, policy=policy, mode=mode,
                              seed=seed)
    assert ref.members == alt.members


# ----------------------------------------------------------------------
# Algorithm 3: identical leader sets
# ----------------------------------------------------------------------

@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("mode", ALL_MODES[1:])
def test_udg_members_identical_across_modes(mode, seed):
    udg = random_udg(30, density=8.0, seed=seed)
    ref = solve_kmds_udg(udg, k=2, mode="direct", seed=seed)
    alt = solve_kmds_udg(udg, k=2, mode=mode, seed=seed)
    assert ref.members == alt.members


# ----------------------------------------------------------------------
# Kernel vs. the per-node oracle: the vectorized direct backends of
# Algorithms 2 and 3 must consume the per-node RNG streams exactly as
# the per-node generator loop does (execute(..., "direct",
# reference=True) runs it).  Algorithm 2 then has the loop's members
# and RunStats; Algorithm 3 its members and round count (its kernels
# charge rounds only, the loop counts messages too).
# ----------------------------------------------------------------------

def _assert_same_result(kernel, reference):
    assert kernel.members == reference.members
    assert kernel.stats == reference.stats
    assert kernel.details == reference.details


def _assert_udg_matches_oracle(kernel, oracle):
    assert kernel.members == oracle.members
    assert kernel.stats.rounds == oracle.stats.rounds


#: Extra sizes around vecrng's routing boundary: identifiers come from
#: [1, n^4], so n <= 256 draws on the per-node fallback streams and
#: n >= 257 on the vector engine.
BOUNDARY_NS = (256, 257, 300)


def _check_udg_kernel_matches_reference(n, policy, k, seed):
    from repro.core.udg import UDGProgram
    from repro.engine import execute

    udg = random_udg(n, density=9.0, seed=seed)
    kernel = solve_kmds_udg(udg, k=k, mode="direct",
                            selection_policy=policy, seed=seed)
    ref = execute(UDGProgram(udg, k, policy, seed), "direct", seed=seed,
                  reference=True)
    _assert_udg_matches_oracle(kernel, ref)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("k", (1, 2, 3))
@pytest.mark.parametrize("policy", ("random", "by-id"))
def test_udg_kernel_matches_reference(policy, k, seed):
    _check_udg_kernel_matches_reference(120, policy, k, seed)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("k", (1, 2, 3))
@pytest.mark.parametrize("policy", ("random", "by-id"))
@pytest.mark.parametrize("n", BOUNDARY_NS)
def test_udg_kernel_matches_reference_at_stream_boundary(n, policy, k, seed):
    _check_udg_kernel_matches_reference(n, policy, k, seed)


def _check_udg_kernel_matches_reference_on_geometric_variants(
        n, graph_kind, seed):
    from repro.core.udg import UDGProgram
    from repro.engine import execute
    from repro.engine.kernels import supports_kernel_election
    from repro.graphs.udg import NoisySensingUDG, QuasiUnitDiskGraph

    base = random_udg(n, density=9.0, seed=seed)
    if graph_kind == "qudg":
        udg = QuasiUnitDiskGraph(base.points, alpha=0.75, seed=seed)
    else:
        udg = NoisySensingUDG(base.points, sigma=0.05, noise_seed=seed)
    assert supports_kernel_election(udg)
    kernel = solve_kmds_udg(udg, k=2, mode="direct", seed=seed)
    ref = execute(UDGProgram(udg, 2, "random", seed), "direct", seed=seed,
                  reference=True)
    _assert_udg_matches_oracle(kernel, ref)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("graph_kind", ("qudg", "noisy"))
def test_udg_kernel_matches_reference_on_geometric_variants(graph_kind, seed):
    _check_udg_kernel_matches_reference_on_geometric_variants(
        90, graph_kind, seed)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("graph_kind", ("qudg", "noisy"))
@pytest.mark.parametrize("n", BOUNDARY_NS)
def test_udg_variants_match_reference_at_stream_boundary(n, graph_kind, seed):
    _check_udg_kernel_matches_reference_on_geometric_variants(
        n, graph_kind, seed)


class CustomSensing(UnitDiskGraph):
    """Bespoke sensing semantics the distance CSR cannot express."""

    def neighbors_within(self, v, theta):
        return [w for w in super().neighbors_within(v, theta)
                if (v + w) % 7 != 3]


def test_udg_exotic_subclass_runs_per_node_loop():
    # The kernels and the columnar plane both decline such a subclass,
    # so its direct run is the per-node message loop itself: the
    # oracle's members and RunStats, messages included.
    from repro.core.udg import UDGProgram, part_one_leaders
    from repro.engine import execute
    from repro.engine.kernels import supports_kernel_election

    base = random_udg(60, density=8.0, seed=4)
    udg = CustomSensing(base.points)
    assert not supports_kernel_election(udg)
    for k in (1, 2, 3):
        for seed in SEEDS:
            result = solve_kmds_udg(udg, k=k, mode="direct", seed=seed)
            oracle = execute(UDGProgram(udg, k, "random", seed), "message",
                             seed=seed, reference=True)
            assert result.members == oracle.members
            assert result.stats == oracle.stats
            # Part I draws first in every node's stream, so the Part I
            # leaders survive into the full solve, on stock and bespoke
            # sensing alike.
            for g in (base, udg):
                assert part_one_leaders(g, seed=seed).members <= \
                    solve_kmds_udg(g, k=k, seed=seed).members


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("k", (1, 2, 3))
@pytest.mark.parametrize("policy", ("random", "highest-x", "self-first"))
def test_rounding_kernel_matches_reference(policy, k, seed):
    from repro.core.lp import CoveringLP
    from repro.core.rounding import RoundingProgram
    from repro.engine import execute

    g = _graph(seed)
    cov = feasible_coverage(g, k)
    frac = fractional_kmds(g, coverage=cov, t=2, mode="direct", seed=seed)
    kernel = randomized_rounding(g, frac.x, coverage=cov, policy=policy,
                                 mode="direct", seed=seed)
    lp = CoveringLP(g, cov)
    ref = execute(RoundingProgram(lp, frac.x, policy, seed), "direct",
                  seed=seed, reference=True)
    assert kernel.members == ref.members
    assert kernel.stats == ref.stats


@pytest.mark.parametrize("seed", SEEDS)
def test_rounding_kernel_matches_reference_on_udg(seed):
    from repro.core.lp import CoveringLP
    from repro.core.rounding import RoundingProgram
    from repro.engine import execute
    from repro.graphs.properties import as_nx

    udg = random_udg(150, density=9.0, seed=seed)
    g = as_nx(udg)
    cov = feasible_coverage(g, 2)
    frac = fractional_kmds(g, coverage=cov, t=2, mode="direct", seed=seed)
    kernel = randomized_rounding(g, frac.x, coverage=cov, mode="direct",
                                 seed=seed)
    ref = execute(RoundingProgram(CoveringLP(g, cov), frac.x, "random",
                                  seed), "direct",
                  seed=seed, reference=True)
    assert kernel.members == ref.members
    assert kernel.stats == ref.stats


# ----------------------------------------------------------------------
# Replica-batched execution: solve_kmds_udg_batch on the direct backend
# must be bit-identical, per replica, to the sequential ``[execute(program,
# seed=s) for s in seeds]`` loop — same members, same RunStats, same
# details.  This pins the lane = (replica, node) batching across vecrng,
# the kernels, and Algorithm 3's kernel grid, the way the section above pins
# the single-replica kernels against the per-node reference.
# ----------------------------------------------------------------------

BATCH_SEEDS = (0, 5, 17)


def _assert_batch_matches_sequential(program, seeds=BATCH_SEEDS):
    from repro.core.udg import solve_kmds_udg_batch
    from repro.engine import execute

    batch = solve_kmds_udg_batch(program.udg, seeds, k=program.k,
                                 selection_policy=program.policy)
    seq = [execute(program, seed=s) for s in seeds]
    assert len(batch) == len(seq) == len(seeds)
    for one, ref in zip(batch, seq):
        _assert_same_result(one, ref)


@pytest.mark.parametrize("k", (1, 2, 3))
@pytest.mark.parametrize("policy", ("random", "by-id"))
def test_udg_batch_matches_sequential(policy, k):
    from repro.core.udg import UDGProgram

    udg = random_udg(120, density=9.0, seed=k)
    _assert_batch_matches_sequential(UDGProgram(udg, k, policy,
                                                BATCH_SEEDS[0]))


@pytest.mark.parametrize("graph_kind", ("qudg", "noisy"))
def test_udg_batch_matches_sequential_on_geometric_variants(graph_kind):
    from repro.core.udg import UDGProgram
    from repro.graphs.udg import NoisySensingUDG, QuasiUnitDiskGraph

    base = random_udg(90, density=9.0, seed=2)
    if graph_kind == "qudg":
        udg = QuasiUnitDiskGraph(base.points, alpha=0.75, seed=2)
    else:
        udg = NoisySensingUDG(base.points, sigma=0.05, noise_seed=2)
    _assert_batch_matches_sequential(UDGProgram(udg, 2, "random",
                                                BATCH_SEEDS[0]))


def test_solve_kmds_udg_batch_matches_solve_loop():
    from repro.core.udg import solve_kmds_udg_batch

    udg = random_udg(100, density=9.0, seed=1)
    seeds = (3, 1, 4, 1)  # a duplicated seed must reproduce its twin
    batch = solve_kmds_udg_batch(udg, seeds, k=2)
    for one, seed in zip(batch, seeds):
        ref = solve_kmds_udg(udg, k=2, mode="direct", seed=seed)
        _assert_same_result(one, ref)
    assert batch[1].members == batch[3].members


def test_batch_on_message_backend_falls_back_to_loop():
    from repro.core.udg import solve_kmds_udg_batch

    udg = random_udg(24, density=7.0, seed=0)
    batch = solve_kmds_udg_batch(udg, (0, 1), k=1, mode="message")
    for one, seed in zip(batch, (0, 1)):
        ref = solve_kmds_udg(udg, k=1, mode="message", seed=seed)
        assert one.members == ref.members
        assert one.stats == ref.stats


def test_batch_on_exotic_subclass_falls_back_to_loop():
    from repro.core.udg import solve_kmds_udg_batch

    udg = CustomSensing(random_udg(60, density=8.0, seed=4).points)
    batch = solve_kmds_udg_batch(udg, (0, 9), k=2)
    for one, seed in zip(batch, (0, 9)):
        ref = solve_kmds_udg(udg, k=2, mode="direct", seed=seed)
        _assert_same_result(one, ref)


def test_batch_validates_seeds_up_front():
    from repro.core.udg import solve_kmds_udg_batch

    udg = random_udg(20, density=6.0, seed=0)
    with pytest.raises(GraphError, match="seed must be an int or None"):
        solve_kmds_udg_batch(udg, (0, "one"), k=1)


def test_batch_with_empty_seed_list():
    from repro.core.udg import solve_kmds_udg_batch

    udg = random_udg(20, density=6.0, seed=0)
    assert solve_kmds_udg_batch(udg, (), k=1) == []


def _elect_round(src, nbr, within, active, ids):
    """One Part I election round for one replica row: the scatter-max
    oracle of ``kernels.elect_round_batch``.

    Every active node elects the lexicographically largest ``(id,
    node)`` among itself and its active neighbors at ``within``
    distance; a node stays active iff somebody elected it.  Pass 1
    scatter-maxes the candidate ids per elector, pass 2 the candidate
    indices among id-ties.
    """
    import numpy as np

    n = active.shape[0]
    sel = within & active[src] & active[nbr]
    s, d = src[sel], nbr[sel]
    best_id = np.where(active, ids, 0)
    np.maximum.at(best_id, s, ids[d])
    best_node = np.where(active & (ids == best_id),
                         np.arange(n, dtype=np.int64), -1)
    tie = ids[d] == best_id[s]
    np.maximum.at(best_node, s[tie], d[tie])
    elected = np.zeros(n, dtype=bool)
    chosen = best_node[active]
    elected[chosen[chosen >= 0]] = True
    return active & elected


def test_elect_round_batch_accepts_precompressed_within():
    # The shared within-compression a round computes once and passes via
    # within_csr must be the same thing elect_round_batch computes for
    # itself, and every batch row must equal the single-row oracle.
    import numpy as np

    from repro.engine.kernels import (compress_within, elect_prep,
                                      elect_round_batch, udg_distance_csr)

    udg = random_udg(50, density=8.0, seed=6)
    indptr, src, nbr, dist = udg_distance_csr(udg)
    within = dist <= udg.radius * 0.7
    rng = np.random.default_rng(0)
    R = 4
    active = rng.random((R, udg.n)) < 0.8
    ids = rng.integers(1, 1 << 40, size=(R, udg.n))
    auto = elect_round_batch(indptr, src, nbr, within, active.copy(), ids)
    pre = elect_round_batch(indptr, src, nbr, within, active.copy(), ids,
                            within_csr=compress_within(indptr, nbr, within))
    assert np.array_equal(auto, pre)
    prepped = elect_round_batch(
        indptr, src, nbr, None, active.copy(), ids,
        prep=elect_prep(compress_within(indptr, nbr, within)))
    assert np.array_equal(auto, prepped)
    for r in range(R):
        row = _elect_round(src, nbr, within, active[r].copy(), ids[r])
        assert np.array_equal(auto[r], row)


# ----------------------------------------------------------------------
# JRS/LRG baseline: identical sets and phase counts
# ----------------------------------------------------------------------

@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("mode", MODES[1:])
@pytest.mark.parametrize("convention", ("closed", "open"))
def test_jrs_members_identical_across_modes(mode, convention, seed):
    g = _graph(seed)
    ref = jrs_kmds(g, 1, convention=convention, mode="direct", seed=seed)
    alt = jrs_kmds(g, 1, convention=convention, mode=mode, seed=seed)
    assert ref.members == alt.members
    assert ref.details["phases"] == alt.details["phases"]


# ----------------------------------------------------------------------
# Local-Delta estimation: identical maps
# ----------------------------------------------------------------------

@pytest.mark.parametrize("mode", ALL_MODES)
def test_local_delta_estimates_identical_across_modes(mode):
    g = _graph(5)
    ref, _ = estimate_two_hop_max_message(g, mode="direct")
    alt, stats = estimate_two_hop_max_message(g, mode=mode)
    assert ref == alt
    assert stats.rounds >= 2


# ----------------------------------------------------------------------
# Async accounting: control traffic is reported, payload matches sync
# ----------------------------------------------------------------------

def test_async_stats_report_control_overhead():
    g = _graph(1)
    sync = fractional_kmds(g, 1, t=2, mode="message", seed=1)
    asyn = fractional_kmds(g, 1, t=2, mode="async", seed=1)
    assert asyn.stats.messages_sent == sync.stats.messages_sent
    assert asyn.stats.bits_sent == sync.stats.bits_sent
    assert asyn.stats.control_messages > 0
    assert asyn.stats.virtual_time > 0
    assert sync.stats.control_messages == 0


# ----------------------------------------------------------------------
# Unified mode / seed validation across all entry points
# ----------------------------------------------------------------------

ENTRY_POINTS = [
    lambda g, mode, seed: fractional_kmds(g, 1, t=1, mode=mode, seed=seed),
    lambda g, mode, seed: randomized_rounding(
        g, {v: 1.0 for v in g.nodes}, 1, mode=mode, seed=seed),
    lambda g, mode, seed: jrs_kmds(g, 1, mode=mode, seed=seed),
    lambda g, mode, seed: estimate_two_hop_max_message(
        g, mode=mode, seed=seed),
]


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_unknown_mode_rejected_uniformly(entry):
    g = _graph(0)
    with pytest.raises(UnknownModeError, match="unknown mode 'telepathy'"):
        entry(g, "telepathy", 0)


def test_unknown_mode_rejected_for_udg():
    udg = random_udg(10, density=6.0, seed=0)
    with pytest.raises(UnknownModeError, match="unknown mode 'telepathy'"):
        solve_kmds_udg(udg, k=1, mode="telepathy", seed=0)


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("bad_seed", (True, 1.5, "zero"))
def test_bad_seed_rejected_uniformly(entry, bad_seed):
    g = _graph(0)
    with pytest.raises(GraphError, match="seed must be an int or None"):
        entry(g, "direct", bad_seed)


def test_unknown_mode_is_a_graph_error():
    # Callers catching the old GraphError keep working.
    assert issubclass(UnknownModeError, GraphError)
