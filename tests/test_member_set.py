"""Array-backed member sets (:class:`repro.types.MemberSet`).

The kernel fast paths return a result's members as a sorted index array
over a node table.  These tests pin the type against a ``frozenset`` of
the same ids for every read-only set operation, check that each fast
path returns one and that it equals the per-node oracle, and that the
coverage plane's mask of one equals the mask of its ``set`` copy.
"""

from __future__ import annotations

import pickle

import networkx as nx
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.baselines.jrs import JRSProgram
from repro.core.fractional import FractionalProgram, _resolve_instance
from repro.core.rounding import RoundingProgram
from repro.core.udg import (UDGProgram, _part_one_direct, part_one_leaders,
                            solve_kmds_udg, solve_kmds_udg_batch,
                            solve_kmds_udg_grid)
from repro.core.verify import (coverage_counts, coverage_deficit,
                               is_k_dominating_set, redundancy_profile)
from repro.engine import execute
from repro.engine.artifacts import graph_artifacts
from repro.engine.kernels import member_mask
from repro.errors import GraphError
from repro.graphs.properties import feasible_coverage
from repro.graphs.udg import random_udg
from repro.simulation.rng import spawn_node_rngs
from repro.simulation.vecrng import replica_node_streams
from repro.types import MemberSet

# ----------------------------------------------------------------------
# The type against frozenset
# ----------------------------------------------------------------------

TABLE_KINDS = ("identity", "offset-range", "ints", "strings")


def _table(kind: str, n: int):
    if kind == "identity":
        return range(n)
    if kind == "offset-range":
        return range(100, 100 + 2 * n, 2)
    if kind == "ints":
        return [3 * i + 7 for i in range(n)]
    return [f"v{i}" for i in range(n)]


@st.composite
def member_sets(draw):
    """``(ms, ref, table, other_idx)``: a member set, the frozenset of
    its ids, its table, and a second index subset of the same table."""
    kind = draw(st.sampled_from(TABLE_KINDS))
    n = draw(st.integers(0, 24))
    table = _table(kind, n)
    subset = st.sets(st.integers(0, n - 1), max_size=n) if n \
        else st.just(set())
    idx = sorted(draw(subset))
    other = sorted(draw(subset))
    ms = MemberSet(np.asarray(idx, dtype=np.int64), table)
    ref = frozenset(table[i] for i in idx)
    return ms, ref, table, other


def _operands(table, idx):
    """The same ids as a set, a frozenset, a member set over the same
    table object, and one over an equal but distinct table."""
    ids = [table[i] for i in idx]
    arr = np.asarray(idx, dtype=np.int64)
    copy = (range(table.start, table.stop, table.step)
            if isinstance(table, range) else list(table))
    return [set(ids), frozenset(ids), MemberSet(arr, table),
            MemberSet(arr, copy)]


FOREIGN = ("x", None, 0.5, (1, 2), frozenset(), -1, 10 ** 9)


@given(member_sets())
def test_membership_matches_frozenset(case):
    ms, ref, table, _ = case
    probes = list(table) + list(FOREIGN)
    probes += [np.int64(v) for v in table if isinstance(v, int)]
    for value in probes:
        assert (value in ms) == (value in ref)
        assert (value not in ms) == (value not in ref)


@given(member_sets())
def test_size_and_iteration(case):
    ms, ref, table, _ = case
    assert len(ms) == len(ref)
    assert bool(ms) == bool(ref)
    items = list(ms)
    assert items == [table[i] for i in ms.indices.tolist()]
    assert ms.indices.tolist() == sorted(ms.indices.tolist())
    assert not any(isinstance(v, np.generic) for v in items)
    assert set(ms) == set(ref)
    assert sorted(ms, key=repr) == sorted(ref, key=repr)


@given(member_sets())
def test_comparisons_match_frozenset(case):
    ms, ref, table, other_idx = case
    for idx in (ms.indices.tolist(), other_idx):
        other_ref = frozenset(table[i] for i in idx)
        for other in _operands(table, idx):
            assert (ms == other) == (ref == other_ref)
            assert (other == ms) == (other_ref == ref)
            assert (ms != other) == (ref != other_ref)
            assert (other != ms) == (other_ref != ref)
            assert (ms <= other) == (ref <= other_ref)
            assert (ms >= other) == (ref >= other_ref)
            assert (ms < other) == (ref < other_ref)
            assert (ms > other) == (ref > other_ref)
            assert (other <= ms) == (other_ref <= ref)
            assert (other >= ms) == (other_ref >= ref)
    assert ms != list(ref)


@given(member_sets())
def test_algebra_returns_plain_sets(case):
    ms, ref, table, other_idx = case
    other_ref = frozenset(table[i] for i in other_idx)
    for other in _operands(table, other_idx):
        for got, want in ((ms | other, ref | other_ref),
                          (ms & other, ref & other_ref),
                          (ms - other, ref - other_ref),
                          (ms ^ other, ref ^ other_ref),
                          (other | ms, other_ref | ref),
                          (other & ms, other_ref & ref),
                          (other - ms, other_ref - ref),
                          (other ^ ms, other_ref ^ ref)):
            assert type(got) is set
            assert got == want
    assert ms.isdisjoint(other_ref) == ref.isdisjoint(other_ref)


@given(member_sets())
def test_pickle_round_trip(case):
    ms, ref, table, _ = case
    back = pickle.loads(pickle.dumps(ms))
    assert type(back) is MemberSet
    assert back == ms and back == ref
    assert list(back) == list(ms)
    assert not back.indices.flags.writeable


@given(member_sets())
def test_read_only_and_unhashable(case):
    ms, _, _, _ = case
    with pytest.raises(TypeError):
        hash(ms)
    for name in ("add", "discard", "remove", "update", "clear", "pop"):
        assert not hasattr(ms, name)
    with pytest.raises(ValueError):
        ms.indices[:1] = 0


def test_membership_builds_hash_set_on_first_use():
    ms = MemberSet(np.array([1, 4]), range(6))
    assert list(ms) == [1, 4] and len(ms) == 2
    assert ms == MemberSet(np.array([1, 4]), range(6))
    assert ms._lookup is None
    assert 4 in ms and 2 not in ms
    assert ms._lookup == frozenset({1, 4})


# ----------------------------------------------------------------------
# Every fast path returns one, equal to the per-node oracle
# ----------------------------------------------------------------------

def _assert_fast(result, oracle):
    members = result.members
    assert isinstance(members, MemberSet)
    assert not hasattr(members, "add") and not hasattr(members, "discard")
    assert members == oracle.members
    assert oracle.members == members


@pytest.fixture(scope="module")
def udg():
    return random_udg(150, density=8.0, seed=11)


@pytest.mark.parametrize("k", [1, 3])
def test_alg3_direct_single(udg, k):
    result = solve_kmds_udg(udg, k, seed=5)
    oracle = execute(UDGProgram(udg, k, "random", 5), "direct",
                     reference=True)
    _assert_fast(result, oracle)


def test_alg3_direct_batch(udg):
    seeds = [1, 2, 3]
    for seed, result in zip(seeds, solve_kmds_udg_batch(udg, seeds, k=2)):
        oracle = execute(UDGProgram(udg, 2, "random", seed), "direct",
                         reference=True)
        _assert_fast(result, oracle)


def test_alg3_direct_grid(udg):
    graphs = [udg, random_udg(150, density=8.0, seed=12)]
    ks, seeds = [1, 2], [4, 9]
    grid = solve_kmds_udg_grid(graphs, seeds, ks=ks)
    for g, per_k in zip(graphs, grid):
        for k, per_seed in zip(ks, per_k):
            for seed, result in zip(seeds, per_seed):
                oracle = execute(UDGProgram(g, k, "random", seed), "direct",
                                 reference=True)
                _assert_fast(result, oracle)


def test_part_one_leaders(udg):
    result = part_one_leaders(udg, seed=8)
    leaders = _part_one_direct(udg, spawn_node_rngs(range(udg.n), 8), {})
    assert isinstance(result.members, MemberSet)
    assert not hasattr(result.members, "add")
    assert result.members == leaders and leaders == result.members


def _lane_programs(udg):
    g = udg.nx
    lp = _resolve_instance(g, None, feasible_coverage(g, 2))
    frac = execute(FractionalProgram(lp, 2, False), "direct")
    return {
        "alg2": RoundingProgram(lp, frac.x, "random", 4),
        "alg3": UDGProgram(udg, 2, "random", 5),
        "jrs": JRSProgram(graph_artifacts(g), feasible_coverage(g, 2),
                          "closed", 6, 10_000),
    }


@pytest.mark.parametrize("name", ["alg2", "alg3", "jrs"])
def test_lane_runs(udg, name):
    program = _lane_programs(udg)[name]
    result = execute(program, "message", seed=3)
    oracle = execute(program, "message", seed=3, reference=True)
    _assert_fast(result, oracle)


def test_alg2_direct_shares_the_lane_table(udg):
    program = _lane_programs(udg)["alg2"]
    direct = execute(program, "direct")
    _assert_fast(direct, execute(program, "direct", reference=True))
    lane = execute(program, "message", seed=program.seed).members
    # One table (the artifacts' stable order): equality by array.
    assert direct.members.nodes is lane.nodes
    assert direct.members == lane


def _relabelled(g, mapping):
    """``g`` relabelled, nodes inserted in ``g``'s order (so a shuffled
    mapping leaves the artifacts' index order unsorted)."""
    h = nx.Graph()
    h.add_nodes_from(mapping[v] for v in g.nodes)
    h.add_edges_from((mapping[u], mapping[v]) for u, v in g.edges)
    return h


@pytest.mark.parametrize("labels", ["shuffled", "named"])
def test_general_graph_fast_paths(labels):
    base = nx.gnp_random_graph(60, 0.1, seed=4)
    if labels == "shuffled":
        perm = np.random.default_rng(1).permutation(60).tolist()
        mapping = dict(zip(base.nodes, perm))
    else:
        mapping = {v: f"n{v}" for v in base.nodes}
    g = _relabelled(base, mapping)
    cov = feasible_coverage(g, 2)
    lp = _resolve_instance(g, None, cov)
    frac = execute(FractionalProgram(lp, 2, False), "direct")
    alg2 = RoundingProgram(lp, frac.x, "random", 4)
    jrs = JRSProgram(graph_artifacts(g), cov, "closed", 6, 10_000)
    for program, mode in ((alg2, "direct"), (alg2, "message"),
                          (jrs, "direct"), (jrs, "message")):
        _assert_fast(execute(program, mode, seed=program.seed),
                     execute(program, mode, seed=program.seed,
                             reference=True))


# ----------------------------------------------------------------------
# The coverage plane reads the array
# ----------------------------------------------------------------------


def _mask_cases():
    g = nx.gnp_random_graph(40, 0.15, seed=3)
    perm = np.random.default_rng(0).permutation(40).tolist()
    shuffled = _relabelled(g, dict(zip(g.nodes, perm)))
    named = _relabelled(g, {v: f"n{v}" for v in g.nodes})
    idx = np.array([0, 3, 7, 8, 21, 39])
    cases = []
    for graph in (g, shuffled, named):
        art = graph_artifacts(graph)
        own = art.stable_order()[0]
        cases.append((art, MemberSet(idx, own)))          # its own table
        cases.append((art, MemberSet(idx, list(own))))    # a foreign one
        cases.append((art, MemberSet(idx[:0], own)))
    for graph in (g, shuffled):
        art = graph_artifacts(graph)
        cases.append((art, MemberSet(idx, range(40))))    # identity ids
    return cases


@pytest.mark.parametrize("case", range(11))
def test_member_mask_matches_set_copy(case):
    art, ms = _mask_cases()[case]
    assert np.array_equal(member_mask(art, ms), member_mask(art, set(ms)))
    assert coverage_counts(art, ms) == coverage_counts(art, set(ms))
    assert is_k_dominating_set(art, ms, 1) == \
        is_k_dominating_set(art, set(ms), 1)


def test_verifiers_take_one_shot_iterables():
    g = nx.path_graph(6)
    members = [1, 4]
    for graph in (g, graph_artifacts(g)):
        assert coverage_counts(graph, iter(members)) == \
            coverage_counts(graph, set(members))
        assert coverage_deficit(graph, iter(members), 2) == \
            coverage_deficit(graph, set(members), 2)
        assert redundancy_profile(graph, iter(members)) == \
            redundancy_profile(graph, set(members))
    with pytest.raises(GraphError, match="unknown node"):
        coverage_counts(graph_artifacts(g), iter([1, 9]))


def test_member_mask_unknown_ids_raise_like_sets():
    art = graph_artifacts(nx.path_graph(5))
    beyond = MemberSet(np.array([1, 7]), range(8))
    with pytest.raises(KeyError):
        member_mask(art, beyond)
    with pytest.raises(GraphError, match="unknown node"):
        coverage_counts(art, beyond)
    strangers = MemberSet(np.array([0]), ["z"])
    with pytest.raises(GraphError, match="unknown node"):
        is_k_dominating_set(art, strangers, 1)


def _dict_mask(art, members):
    """The per-member dict lookup the id table replaced (the oracle)."""
    mask = np.zeros(art.n, dtype=bool)
    mask[np.fromiter(map(art.index.__getitem__, members),
                     dtype=np.int64)] = True
    return mask


def _assert_mask_like_dict(art, members):
    """``member_mask`` answers (or raises ``KeyError``) as the dict."""
    try:
        want = _dict_mask(art, members)
    except KeyError:
        with pytest.raises(KeyError):
            member_mask(art, members)
        return
    got = member_mask(art, members)
    assert got.dtype == bool and np.array_equal(got, want)


@st.composite
def _int_labelled(draw):
    """An integer-labelled graph whose ids fill part of a compact range
    (gaps included), shuffled against the index order."""
    n = draw(st.integers(1, 24))
    lo = draw(st.sampled_from([0, 1, 9, -30]))
    labels = draw(st.permutations(range(lo, lo + 2 * n)))[:n]
    g = nx.gnp_random_graph(n, 0.3, seed=draw(st.integers(0, 9)))
    return _relabelled(g, dict(zip(g.nodes, labels))), labels


@given(st.data())
def test_member_mask_table_matches_dict_lookup(data):
    """Integer members of an integer-labelled bundle go through its dense
    id table; every form the dict accepts answers alike, and every id
    it rejects raises ``KeyError``: unknown ids inside the range, below
    it, beyond the table, at the int64 limits, bools (read as 0 and 1),
    numpy ints, integral and fractional floats and strings."""
    g, labels = data.draw(_int_labelled())
    art = graph_artifacts(g)
    assert art.id_lookup() is not None
    picks = data.draw(st.lists(st.sampled_from(labels), max_size=12))
    cast = data.draw(st.sampled_from([int, np.int64, np.int32]))
    members = {cast(v) for v in picks}
    _assert_mask_like_dict(art, members)
    _assert_mask_like_dict(art, list(members))
    lo, hi = min(labels), max(labels)
    strays = [v for v in range(lo - 2, hi + 3) if v not in set(labels)]
    stray = data.draw(st.sampled_from(
        strays + [hi + 10 ** 6, -(2 ** 62), 2 ** 63 - 1, -(2 ** 63)]))
    odd = data.draw(st.sampled_from(
        [stray, True, False, np.int64(stray), float(labels[0]),
         labels[0] + 0.5, str(labels[0]), 2 ** 64]))
    _assert_mask_like_dict(art, members | {odd})


def test_member_mask_reads_bools_as_the_dict_does():
    """The dict finds node 1 for ``True`` and node 0 for ``False``; the
    table must too, and reject them where those ids are missing."""
    art = graph_artifacts(_relabelled(nx.path_graph(3), {0: 2, 1: 1, 2: 0}))
    assert member_mask(art, {True}).tolist() == [False, True, False]
    assert member_mask(art, [False, np.True_]).tolist() == \
        [False, True, True]
    shifted = graph_artifacts(_relabelled(nx.path_graph(3),
                                          {0: 2, 1: 3, 2: 4}))
    for members in ({True}, {False, 3}):
        with pytest.raises(KeyError):
            member_mask(shifted, members)


def test_member_mask_table_follows_edits():
    """An edit drops the id table with the bundle's other derived
    structures: masks taken after it see the removal and the join."""
    g = _relabelled(nx.path_graph(6), dict(zip(range(6), [4, 9, 5, 7, 6, 8])))
    art = graph_artifacts(g).copy()
    _assert_mask_like_dict(art, {9, 6})
    art.delta_patcher().apply([("remove", 4), ("add", 20, [9, 8])])
    assert art.id_lookup() is not None
    with pytest.raises(KeyError):
        member_mask(art, {4})
    for members in ({20}, {9, 20, 5}, {np.int64(8), 7}):
        _assert_mask_like_dict(art, members)
    assert member_mask(art, {20})[art.index[20]]


def test_member_mask_wide_or_named_labels_take_the_dict():
    wide = _relabelled(nx.path_graph(3), {0: 0, 1: 10 ** 9, 2: -(10 ** 9)})
    named = _relabelled(nx.path_graph(3), {0: "a", 1: "b", 2: "c"})
    for graph, members in ((wide, {10 ** 9, 0}), (named, {"c"})):
        art = graph_artifacts(graph)
        assert art.id_lookup() is None
        _assert_mask_like_dict(art, members)
        _assert_mask_like_dict(art, members | {5})


def test_stale_own_table_falls_back_to_lookup():
    g = _relabelled(nx.gnp_random_graph(30, 0.2, seed=2),
                    {v: f"n{v}" for v in range(30)})
    art = graph_artifacts(g)
    ms = MemberSet(np.array([2, 5, 11]), art.stable_order()[0])
    ids = set(ms)
    art.delta_patcher().remove_node(next(v for v in art.nodes
                                         if v not in ids))
    # The edit drops the cached order but never edits the old table, so
    # the set still names the same ids and the mask takes the lookup.
    assert set(ms) == ids
    assert ms.nodes is not art.stable_order()[0]
    assert np.array_equal(member_mask(art, ms), member_mask(art, ids))


# ----------------------------------------------------------------------
# vecrng: the node -> lane map is built on first read
# ----------------------------------------------------------------------

def test_lane_map_is_lazy_and_draws_are_unchanged():
    nodes = ["b", "a", "c"]
    streams = replica_node_streams(nodes, [7])
    assert streams._lane is None
    first = streams.random(np.arange(3)).tolist()
    assert streams._lane is None
    assert streams.lane == {"a": 0, "b": 1, "c": 2}
    assert streams.lane is streams.lane
    ref = spawn_node_rngs(nodes, 7)
    assert first == [ref[v].random() for v in ("a", "b", "c")]
