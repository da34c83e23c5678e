"""Algorithm 3 — fault-tolerant clustering in unit disk graphs (Section 5).

Part I (the Gao-et-al.-style sparsification): ``log_xi(log n)`` rounds
(``xi = 3/2``) of local leader election.  Every active node draws a fresh
random identifier from ``[1, n^4]`` each round, elects the highest
identifier among active nodes within the current sensing radius ``theta``
(possibly itself), and stays active iff somebody elected it.  ``theta``
doubles every round, ending at half the communication radius, so the
surviving "leaders" form a plain dominating set of expected O(1) density
per unit disk (Lemma 5.5).

Part II: leaders repeatedly *adopt* deficient neighbors — non-leader nodes
with fewer than ``k`` leaders in their closed neighborhood — promoting up
to ``k`` of them per iteration, until nobody is deficient.  The result is a
k-fold dominating set (Section 1's open-neighborhood convention: members of
the set are exempt) of expected size O(OPT) (Theorem 5.7).

Interpretive notes (documented in DESIGN.md):

- The paper's analysis uses ``theta_i = 2^{i-1} / (log n)^{1/log xi}``
  (which makes the final radius exactly 1/2 of the unit radius);
  Algorithm 3's line 3 carries an extra factor 1/2 that would end at
  radius 1/4.  We follow the analysis, scaled to the graph's radius.
- Line 18's ``U(v) := {u in N_v | c(v) < k}`` is read as
  ``{u in N_v | c(u) < k}`` with already-promoted nodes excluded, the only
  reading consistent with the proofs of Lemmas 5.6 / Theorem 5.7 (selected
  nodes must be deficient, and promotion of a deficient node must make
  progress).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Set

import numpy as np

from repro.engine import (Instrumentation, Lanes, RoundProgram, execute,
                          execute_batch, execute_grid, validate_seed)
from repro.engine import kernels
from repro.engine.artifacts import StackedGraphs, graph_artifacts, \
    stacked_graphs
from repro.errors import GeometryError, GraphError
from repro.graphs.udg import UnitDiskGraph
from repro.simulation.messages import Message
from repro.simulation.node import NodeProcess
from repro.simulation.rng import spawn_node_rngs
from repro.engine import dispatch
from repro.simulation.vecrng import (grid_streams,
                                     materialize_bit_generator,
                                     node_stream_pool,
                                     replica_node_streams)
from repro.types import DominatingSet, NodeId, RunStats

#: The paper's base xi = 3/2 for the doubling schedule.
XI = 1.5

SELECTION_POLICIES = ("random", "by-id")


def part_one_round_count(n: int) -> int:
    """Number of Part I rounds, ``ceil(log_xi(log2 n))`` (at least 1)."""
    if n <= 2:
        return 1
    return max(1, math.ceil(math.log(math.log2(n), XI)))


def theta_schedule(n: int, radius: float = 1.0) -> List[float]:
    """The sensing radii for Part I's ``R = part_one_round_count(n)``
    rounds on a graph of communication radius ``radius`` (the paper's 1
    by default): a doubling schedule anchored to end at exactly half the
    radius, ``theta_i = (radius / 2) * 2^{i-R}``.

    The paper's analysis uses ``theta_i = 2^{i-1} / (log2 n)^{1/log2 xi}``
    with a *real-valued* round count ``log_xi log n``, which ends at
    exactly 1/2.  With the integer ceiling the raw formula can end
    anywhere in [1/2, 1), which breaks the coverage argument of Lemma 5.1
    (a passive node is covered within ``2 * theta_R``, which must not
    exceed the communication radius).  Anchoring the doubling at
    ``theta_R = radius / 2`` preserves both the doubling structure the
    induction needs and the final radius the coverage proof needs;
    ``theta_1`` matches the paper's value up to the rounding of R.
    At ``radius=1`` the scaling is an exact no-op.
    """
    rounds = part_one_round_count(n)
    return [radius * 0.5 * 2.0 ** (i - rounds)
            for i in range(1, rounds + 1)]


def _id_space(n: int) -> int:
    """Size of the random-identifier space, the paper's ``n^4``."""
    return max(2, n) ** 4


#: numpy's integer sampler is bounded by int64; cap the *sampled* space
#: there (collisions stay astronomically unlikely — the cap exceeds n^2
#: for any n below two billion) while message-size accounting still
#: charges the paper's full n^4 space.
_MAX_SAMPLED_ID = 2 ** 62


def _draw_id(rng, space: int) -> int:
    """Draw one random identifier from [1, space] (int64-safe)."""
    return int(rng.integers(1, min(space, _MAX_SAMPLED_ID) + 1))


def _pick(rng: np.random.Generator, candidates: List[NodeId], need: int,
          policy: str) -> List[NodeId]:
    """Select ``need`` adoption targets from ``candidates`` (sorted)."""
    if need >= len(candidates):
        return list(candidates)
    if policy == "random":
        idx = rng.choice(len(candidates), size=need, replace=False)
        return [candidates[i] for i in sorted(idx.tolist())]
    if policy == "by-id":
        return candidates[:need]
    raise GraphError(
        f"unknown selection policy {policy!r}; expected one of {SELECTION_POLICIES}"
    )


def _members_set(row: np.ndarray) -> set:
    """Materialize one indicator row as the result's member set."""
    return set(np.nonzero(row)[0].tolist())


def _id_ranges(n: int) -> tuple:
    """The ``bounded_ranges`` of Part I's identifier draws on n nodes."""
    return (min(_id_space(n), _MAX_SAMPLED_ID) - 1,)


def _result(details: dict, row: np.ndarray,
            instr: Instrumentation) -> DominatingSet:
    """One run's result: its leader row, with the round charge its
    details imply."""
    instr.charge_rounds(2 * len(details["theta_per_round"])
                        + 2 + 3 * details["part2_iterations"])
    return DominatingSet(members=_members_set(row), stats=instr.stats,
                         details=details)


def _as_udg(graph) -> UnitDiskGraph:
    if isinstance(graph, UnitDiskGraph):
        return graph
    raise GeometryError(
        "the UDG algorithm requires a UnitDiskGraph (node coordinates and "
        "distance sensing); build one with repro.graphs.random_udg or "
        "udg_from_points"
    )


# ======================================================================
# Direct mode — per-node reference implementation
#
# Kept verbatim-faithful to the paper's per-node formulation: it is the
# bit-exactness oracle the vectorized kernel path below is pinned
# against (``execute(..., reference=True)`` and the kernel-vs-reference
# suite in tests/test_mode_equivalence.py).
# ======================================================================

def _part_one_direct(udg: UnitDiskGraph, rngs, details: dict) -> Set[int]:
    n = udg.n
    active: Set[int] = set(range(n))
    schedule = theta_schedule(n, udg.radius)
    id_hi = _id_space(n)
    details["theta_per_round"] = list(schedule)
    details["active_per_round"] = [n]

    for theta in schedule:
        ids = {v: _draw_id(rngs[v], id_hi) for v in sorted(active)}
        elected: Set[int] = set()
        for v in active:
            best = v
            best_key = (ids[v], v)
            for w in udg.neighbors_within(v, theta):
                if w in active:
                    key = (ids[w], w)
                    if key > best_key:
                        best_key = key
                        best = w
            elected.add(best)
        active &= elected
        details["active_per_round"].append(len(active))
    return active


def _part_two_direct(udg: UnitDiskGraph, leaders: Set[int], k: int,
                     rngs, policy: str, details: dict) -> Set[int]:
    n = udg.n
    adj = [sorted(udg.nx.neighbors(v)) for v in range(n)]
    coverage = [0] * n
    leader_flag = [False] * n
    for v in leaders:
        leader_flag[v] = True
    for v in leaders:
        coverage[v] += 1
        for w in adj[v]:
            coverage[w] += 1

    # The deficient frontier, maintained incrementally across promotions:
    # each while-iteration costs O(frontier ball), not O(n).  Only nodes
    # in a promoted node's closed neighborhood can change deficiency.
    deficient: Set[int] = {u for u in range(n)
                           if not leader_flag[u] and coverage[u] < k}

    iterations = 0
    adopted_total = 0
    while deficient:
        iterations += 1
        picks: Set[int] = set()
        # Leaders with at least one deficient closed neighbor are exactly
        # the closed-ball leaders of the frontier; leaders outside it had
        # empty candidate lists (no picks, no RNG draws), so skipping
        # them is consumption- and output-identical.
        active_leaders = sorted({w for u in deficient
                                 for w in [u] + adj[u] if leader_flag[w]})
        for v in active_leaders:
            candidates = [u for u in [v] + adj[v] if u in deficient]
            picks.update(_pick(rngs[v], candidates, k, policy))
        if not picks:
            # No deficient node has a leader neighbor -- impossible after
            # Part I (Lemma 5.1) on a true UDG, but guard against livelock
            # on degenerate inputs by promoting the deficient nodes
            # themselves.
            picks = set(deficient)
        for u in picks:
            if not leader_flag[u]:
                leader_flag[u] = True
                adopted_total += 1
                coverage[u] += 1
                deficient.discard(u)  # members are exempt (open conv.)
                for w in adj[u]:
                    coverage[w] += 1
                    if w in deficient and coverage[w] >= k:
                        deficient.discard(w)

    details["part2_iterations"] = iterations
    details["part2_adopted"] = adopted_total
    return {v for v in range(n) if leader_flag[v]}


# ======================================================================
# Direct mode — the kernels
#
# Algorithm 3 on the CSR kernel layer (repro.engine.kernels), with one
# kernel per part.  A lane is a (replica, graph, node) triple over a
# stacked (block-diagonal) distance CSR, so Part I of every topology of
# one (n, radius) in a grid runs in one dispatch; the k axis is then
# fused over that single Part I (Part I never reads k), re-running only
# the adoption phase per k value.  Single and replica-batched runs are
# the one-graph shapes of the same kernels.  Per-node RNG draws happen
# in exactly the reference order, so every (graph, k, replica) cell is
# bit-identical to the per-node reference above (pinned by
# tests/test_mode_equivalence.py and tests/test_grid_equivalence.py).
# ======================================================================

def _part_one_kernel(udg: UnitDiskGraph, pool, details: dict) -> np.ndarray:
    """Single-run Part I: the one-seed case of
    :func:`_part_one_kernel_batch`.  Returns the (n,) leader row."""
    return _part_one_kernel_batch(udg, pool, [details])[0]


def _part_one_kernel_batch(udg: UnitDiskGraph, streams,
                           details_list: List[dict]) -> np.ndarray:
    """Replica-batched Part I: the one-graph case of
    :func:`_part_one_kernel_grid`.  Returns the (R, n) leader plane."""
    return _part_one_kernel_grid(stacked_graphs([udg]), streams,
                                 [details_list])


def _part_two_kernel(art, leader: np.ndarray, k: int, pool, policy: str,
                     details: dict) -> None:
    """Single-run Part II: the one-seed case of
    :func:`_part_two_kernel_batch`, adopting into the (n,) ``leader``
    row in place."""
    _part_two_kernel_batch(art, leader[None, :], k, pool, policy,
                           [details])


def _part_one_kernel_grid(stack: StackedGraphs, streams,
                          details_grid: List[List[dict]]) -> np.ndarray:
    """Part I over a same-(n, radius) group of stacked topologies.

    ``stack`` holds G graphs of one common size ``n`` and radius (a
    shared theta schedule is what makes the rounds stackable);
    ``streams`` is the matching ``R x G x n`` lane space and
    ``details_grid[g][r]`` the details dict of graph ``g``, replica
    ``r``.  Returns the ``(R, total)`` active plane.  The stacked CSR is
    block-diagonal and each lane's stream advancement depends only on
    its own mask history, so every graph block is bit-identical to the
    same kernel on that graph alone.

    The per-round within-radius compressions depend only on the (static)
    stacked distances and the (static) schedule, so they are cached on
    the stack's ``kernel_cache`` — repeated dispatches over the same
    stack skip the O(m) scans entirely.
    """
    n = int(stack.counts[0]) if len(stack.graphs) else 0
    total = stack.total
    R = len(streams.seeds)
    schedule = theta_schedule(
        n, stack.graphs[0].radius if len(stack.graphs) else 1.0)
    id_hi = min(_id_space(n), _MAX_SAMPLED_ID)
    for per_graph in details_grid:
        for details in per_graph:
            details["theta_per_round"] = list(schedule)
            details["active_per_round"] = [n]

    indptr, src, nbr, dist = kernels.stacked_distance_csr(stack)
    active = np.ones((R, total), dtype=bool)
    ids = np.zeros((R, total), dtype=np.int64)
    flat_ids = ids.reshape(-1)
    G = len(stack.graphs)
    cache = stack.kernel_cache
    for ri, theta in enumerate(schedule):
        ent = cache.get(("part1", ri, R))
        if ent is None:
            within_csr = kernels.compress_within(indptr, nbr, dist <= theta)
            # A node's identifier this round can only be *read* if it
            # has a within-neighbor to compare against (own election)
            # or is some other node's within-candidate.  Every other
            # draw must still happen — stream positions are part of the
            # bit-exactness contract — but its value is provably unread,
            # so the draw skips materializing it (vecrng's ``need``
            # mask).  In the early doubling rounds that is almost every
            # lane.
            need_node = within_csr[0] > 0
            need_node |= np.bincount(within_csr[2],
                                     minlength=total).astype(bool)
            ent = (kernels.elect_prep(within_csr), np.tile(need_node, R))
            cache[("part1", ri, R)] = ent
        prep, need = ent
        # One identifier per active lane, drawn straight into the
        # persistent ids plane (``out=``); lanes outside mask & need end
        # up stale or unspecified — provably unread this round, and
        # refreshed before any round that does read them.  The masked
        # draw leaves 0 on every needed-but-inactive lane, so the plane
        # doubles as the inactive-masked candidate plane.
        streams.draw_ints_masked(active.reshape(-1), id_hi,
                                 need=need, out=flat_ids)
        active = kernels.elect_round_batch(indptr, src, nbr, None,
                                           active, ids, prep=prep,
                                           ids_masked=True)
        # One (R, G) reduction per round: blocks are contiguous slices
        # of one common width, so the plane reshapes directly.
        counts = active.reshape(R, G, n).sum(axis=2)
        for g, per_graph in enumerate(details_grid):
            for r, details in enumerate(per_graph):
                details["active_per_round"].append(int(counts[r, g]))
    return active


def _part_two_kernel_batch(art, leader: np.ndarray, k, streams,
                           policy: str, details_list: List, *,
                           coverage: np.ndarray | None = None,
                           blocks: int = 1) -> None:
    """Adopt into ``leader`` (an (R, n) boolean plane, mutated in
    place) until no row has a deficient node.

    ``streams`` serves each adoption event the generator of its lane,
    ``streams.generator(streams.flat_lane(row, column))``: the run's own
    lane streams when rows are replicas, a snapshot shim
    (:class:`_GridAdoptionStreams`) under k-axis fusion.
    ``k`` is a scalar (every row shares it — single and replica runs)
    or a per-row int64 vector (the grid path's k-axis fusion: rows are
    (k value, replica) pairs over one shared Part I).  All comparisons
    against ``k`` are elementwise per row, so the per-row form is
    value-identical to running each row under its own scalar.
    ``coverage``: optional precomputed closed counts for ``leader``
    (the grid path slices one stacked mat-mat); computed here when
    absent, and mutated in place either way.

    ``blocks``: with ``blocks=G > 1``, ``art`` is a
    :class:`~repro.engine.artifacts.StackedGraphs` bundle of G equal-n
    topologies and each row spans G block-diagonal graph columns — the
    grid path's cross-graph fusion.  The CSR is block-diagonal and
    every event draws from its own (replica, graph, node) lane, so each
    (row, block) cell evolves exactly as it would in its own per-graph
    call; a cell whose deficiency has cleared contributes no pairs, no
    events, and no stream advancement while its siblings finish.  The
    livelock guard and the iteration/adoption tallies are kept
    per (row, block) for the same reason; entries of ``details_list``
    are then per-row *lists* of G per-block dicts.
    """
    R, n = leader.shape
    if isinstance(k, (int, np.integer)):
        ks_row = np.full(R, int(k), dtype=np.int64)
    else:
        ks_row = np.asarray(k, dtype=np.int64)
    if coverage is None:
        if blocks != 1:
            raise GraphError("stacked adoption requires precomputed "
                             "coverage")
        coverage = kernels.member_counts_batch(art, indicators=leader,
                                               convention="closed")
    deficient = (~leader) & (coverage < ks_row[:, None])

    iterations = np.zeros((R, blocks), dtype=np.int64)
    adopted = np.zeros((R, blocks), dtype=np.int64)
    ai, ax = art.closed_csr_arrays()
    # The three ball walks run in C when available: same CSR segments,
    # same final planes, no million-pair expansion temporaries.  The
    # numpy path below is the specification they are pinned against.
    ball_phase = dispatch.kernel("ball_phase")
    ball_adopt = dispatch.kernel("ball_adopt")
    use_native = (ball_phase is not None and ball_adopt is not None
                  and leader.flags.c_contiguous
                  and coverage.flags.c_contiguous
                  and coverage.dtype == np.int64)
    if use_native:
        # Reusable scratch for the fused phase kernel: counts and the
        # small-actor plane stay zeroed between calls (the kernel
        # re-zeroes exactly what it touched), touched/big are append
        # buffers with worst-case capacity.
        cnt_buf = np.zeros((R, n), dtype=np.int64)
        small_buf = np.zeros((R, n), dtype=np.uint8)
        touched_buf = np.empty(R * n, dtype=np.int64)
        big_buf = np.empty(R * n, dtype=np.int64)
    live = np.nonzero(deficient.any(axis=1))[0]
    while live.size:
        # A leader acts iff some deficient node sits in its closed ball
        # (= it sits in a frontier ball, by ball symmetry).  Deficient
        # nodes are few, so expanding *their* closed balls over the CSR
        # touches O(sum deg(deficient)) pairs — far less than a dense
        # mat-mat over every live replica — and each (deficient d,
        # ball member u) pair serves three reads: u's candidate count,
        # u's actor status, and (when u adopts wholesale) d's pick.
        # (def_live is read-only until the end-of-iteration coverage
        # update, so the all-rows-live case can alias the plane.)
        if live.size == R:
            def_live = deficient
        else:
            def_live = np.ascontiguousarray(deficient[live])
        alive = def_live.reshape(live.size, blocks, -1).any(axis=2)
        iterations[live] += alive
        rj, dd = np.nonzero(def_live)
        picks = np.zeros((live.size, n), dtype=bool)
        if use_native:
            # nonzero on a 2-D plane yields strided views of argwhere's
            # (N, 2) buffer; the kernels read flat int64, so repack.
            # One fused walk: counts, actor classification, wholesale
            # (small-actor) adoption picks, and the big-actor event
            # list, with scratch re-zeroed through the touched list.
            nb = ball_phase(
                n, np.ascontiguousarray(rj), np.ascontiguousarray(dd),
                ai, ax, live, leader.view(np.uint8), ks_row,
                cnt_buf[:live.size], small_buf[:live.size],
                picks.view(np.uint8), touched_buf, big_buf)
            bf = big_buf[:nb]
            events = zip((bf // n).tolist(), (bf % n).tolist())
        else:
            k_live = ks_row[live][:, None]
            deg = ai[dd + 1] - ai[dd]
            ends = np.cumsum(deg)
            ee = np.repeat(ai[dd] - (ends - deg), deg) \
                + np.arange(int(ends[-1]) if ends.size else 0)
            rep_pair = np.repeat(rj, deg)
            flat = rep_pair * n + ax[ee]
            cnt = np.bincount(flat, minlength=live.size * n) \
                .reshape(live.size, n)
            actor = leader[live] & (cnt > 0)
            small = actor & (cnt <= k_live)
            hit = small.reshape(-1)[flat]
            picks[rep_pair[hit], np.repeat(dd, deg)[hit]] = True
            events = zip(*(w.tolist()
                           for w in np.nonzero(actor ^ small)))
        # Actors with more than k candidates sample with their own
        # (replica, node) stream — the only remaining per-actor work.
        # (The events are ``actor & (cnt > k)``; their order differs
        # between the two paths, which is immaterial: each event draws
        # from its own lane stream and pick writes are idempotent.)
        for j, v in events:
            r = int(live[j])
            # The CSR row segment is the sorted closed ball of v (the
            # concatenation that built it), so candidate order — and
            # with it every choice() draw — matches the per-graph path.
            cv = ax[ai[v]:ai[v + 1]]
            cand = cv[def_live[j, cv]]
            rng = streams.generator(streams.flat_lane(r, v))
            if policy == "random":
                # _pick without the list round-trip: a big actor always
                # has more than k candidates, the choice() call (and so
                # the stream) is unchanged, and pick bits are order-free.
                idx = rng.choice(cand.size, size=int(ks_row[r]),
                                 replace=False)
                picks[j, cand[idx]] = True
            else:
                picks[j, _pick(rng, cand.tolist(), int(ks_row[r]),
                               policy)] = True
        # Degenerate-input livelock guard (see reference), applied per
        # (row, block) cell: a block whose deficient nodes drew no
        # picks adopts them wholesale, exactly as its own per-graph
        # call would, while sibling blocks are untouched.
        p3 = picks.reshape(live.size, blocks, -1)
        fire = alive & ~p3.any(axis=2)
        if fire.any():
            p3[fire] = def_live.reshape(live.size, blocks, -1)[fire]
        nr, nv = np.nonzero(
            picks & ~(leader if live.size == R else leader[live]))
        reps = live[nr]
        leader[reps, nv] = True
        adopted[live] += np.bincount(
            nr * blocks + nv // (n // blocks),
            minlength=live.size * blocks).reshape(live.size, blocks)
        if use_native:
            ball_adopt(n, np.ascontiguousarray(reps),
                       np.ascontiguousarray(nv), ai, ax, coverage,
                       leader.view(np.uint8),
                       deficient.view(np.uint8), ks_row)
        else:
            rr, touched = kernels.scatter_cover_batch(coverage, art,
                                                      reps, nv)
            deficient[rr, touched] = (~leader[rr, touched]) \
                & (coverage[rr, touched] < ks_row[rr])
        live = live[(deficient if live.size == R
                     else deficient[live]).any(axis=1)]

    for r, entry in enumerate(details_list):
        per_block = entry if isinstance(entry, list) else [entry]
        for g, details in enumerate(per_block):
            details["part2_iterations"] = int(iterations[r, g])
            details["part2_adopted"] = int(adopted[r, g])


class _GridAdoptionStreams:
    """Per-row generator streams for the k-fused adoption phase.

    Part II consumes randomness *only* by materializing a real
    ``Generator`` at a lane's post-Part-I stream state (no vector
    draws).  Under k-axis fusion several rows — one per k value — share
    replica ``r``'s frozen lane states, so each row starts an
    independent *snapshot* stream, cached per row.  Each stream starts
    from the same frozen state the per-point run would materialize at,
    so every k's adoption consumes a bit-identical stream.

    One pooled ``PCG64`` serves every event: constructing a bit
    generator per lane costs ~8us while swapping its state dict costs
    ~1us, and the adoption loop only ever uses one lane's stream at a
    time.  The previous lane's (possibly advanced) state is saved back
    before each swap — a full state round-trip, so a lane acting in
    several iterations continues its stream exactly like a dedicated
    generator would.  The returned ``Generator`` is therefore only
    valid until the next :meth:`generator` call.
    """

    def __init__(self, streams, replicas: int):
        self._streams = streams
        self._replicas = replicas
        # Rows span the whole stacked width: a stacked column is
        # already ``offsets[g] + v``, exactly its lane within a replica.
        self._n = streams.total
        self._states: Dict[int, dict] = {}
        self._bg = materialize_bit_generator()
        self._gen = np.random.Generator(self._bg)
        self._cur: int | None = None

    def flat_lane(self, row: int, lane: int) -> int:
        return row * self._n + lane

    def generator(self, flat: int) -> np.random.Generator:
        if self._cur is not None:
            self._states[self._cur] = self._bg.state
        state = self._states.get(flat)
        if state is None:
            row, v = divmod(flat, self._n)
            state = self._streams.snapshot_state(
                (row % self._replicas) * self._n + v)
        self._bg.state = state
        self._cur = flat
        return self._gen


# ======================================================================
# Message-passing mode
# ======================================================================

@dataclass(frozen=True)
class ElectionMsg(Message):
    """Part I line 6: ``send (a(v), ID_i(v))`` within the sensing radius."""
    ident: int = 0
    SCHEMA = (("ident", "id"),)


@dataclass(frozen=True)
class ElectMsg(Message):
    """Part I line 9: the election token M."""
    SCHEMA = ()


@dataclass(frozen=True)
class LeaderStatusMsg(Message):
    """Part II: broadcast of the sender's leader flag."""
    leader: bool = False
    SCHEMA = (("leader", "flag"),)


@dataclass(frozen=True)
class DeficitMsg(Message):
    """Part II: broadcast of the sender's deficiency flag."""
    deficient: bool = False
    SCHEMA = (("deficient", "flag"),)


@dataclass(frozen=True)
class AdoptMsg(Message):
    """Part II line 21: ``inform u_i to set leader(u_i) := true``."""
    SCHEMA = ()


class UDGNode(NodeProcess):
    """Per-node process implementing Algorithm 3 (Parts I and II)."""

    def __init__(self, node_id: int, k: int, n: int, policy: str,
                 part2_sync_iterations: int):
        super().__init__(node_id)
        self.k = k
        self.n = n
        self.policy = policy
        self.part2_sync_iterations = part2_sync_iterations
        self.leader = False

    def run(self, ctx) -> Iterator[None]:
        me = self.node_id
        schedule = theta_schedule(self.n, ctx.radius)
        id_hi = _id_space(self.n)
        active = True

        # ----- Part I: doubling-radius leader election ------------------
        # Every round costs exactly two yields for every node (active or
        # passive) so the whole network stays in lockstep.
        for theta in schedule:
            if active:
                my_id = _draw_id(ctx.rng, id_hi)
                ctx.send_within(theta, ElectionMsg(ident=my_id))
            inbox = yield
            elected_self = False
            if active:
                best, best_key = me, (my_id, me)
                for src, msg in inbox:
                    if isinstance(msg, ElectionMsg):
                        key = (msg.ident, src)
                        if key > best_key:
                            best_key = key
                            best = src
                elected_self = best == me
                if not elected_self:
                    ctx.send(best, ElectMsg())
            inbox = yield
            if active:
                got_token = any(isinstance(m, ElectMsg) for _, m in inbox)
                if not (got_token or elected_self):
                    active = False
        self.leader = active

        # ----- Part II: leaders adopt deficient neighbors ----------------
        leader_of: Dict[int, bool] = {}
        deficient_of: Dict[int, bool] = {}

        ctx.broadcast(LeaderStatusMsg(leader=self.leader))
        inbox = yield
        for src, msg in inbox:
            if isinstance(msg, LeaderStatusMsg):
                leader_of[src] = msg.leader
        coverage = (1 if self.leader else 0) + sum(
            1 for w in ctx.neighbors if leader_of.get(w, False))
        my_deficient = (not self.leader) and coverage < self.k
        ctx.broadcast(DeficitMsg(deficient=my_deficient))
        inbox = yield
        for src, msg in inbox:
            if isinstance(msg, DeficitMsg):
                deficient_of[src] = msg.deficient

        for _ in range(self.part2_sync_iterations):
            done = ((self.leader and not my_deficient
                     and not any(deficient_of.get(w, False)
                                 for w in ctx.neighbors))
                    or (not self.leader and not my_deficient))
            if done:
                return
            # (a) adoption round — only leaders select.
            if self.leader:
                candidates = sorted(
                    ([me] if my_deficient else [])
                    + [w for w in ctx.neighbors if deficient_of.get(w, False)]
                )
                for u in _pick(ctx.rng, candidates, self.k, self.policy):
                    if u == me:
                        my_deficient = False
                    else:
                        ctx.send(u, AdoptMsg())
            inbox = yield
            if not self.leader and any(isinstance(m, AdoptMsg)
                                       for _, m in inbox):
                self.leader = True
                my_deficient = False
            # (b) leader-status refresh.
            ctx.broadcast(LeaderStatusMsg(leader=self.leader))
            inbox = yield
            for src, msg in inbox:
                if isinstance(msg, LeaderStatusMsg):
                    leader_of[src] = msg.leader
            coverage = (1 if self.leader else 0) + sum(
                1 for w in ctx.neighbors if leader_of.get(w, False))
            my_deficient = (not self.leader) and coverage < self.k
            # (c) deficiency refresh.
            ctx.broadcast(DeficitMsg(deficient=my_deficient))
            inbox = yield
            for src, msg in inbox:
                if isinstance(msg, DeficitMsg):
                    deficient_of[src] = msg.deficient


# ======================================================================
# The round program
# ======================================================================

class UDGProgram(RoundProgram):
    """Algorithm 3 as an engine-executable round program."""

    def __init__(self, udg: UnitDiskGraph, k: int, policy: str,
                 seed: int | None):
        super().__init__(graph_artifacts(udg))
        self.udg = udg
        # Message-passing backends need the wrapper (distance sensing for
        # Part I's send_within), not the plain graph.
        self.network_graph = udg
        self.k = k
        self.policy = policy
        self.seed = seed

    def max_rounds(self) -> int:
        n = self.udg.n
        return 2 * len(theta_schedule(n)) + 3 * (n + 1) + 8

    def direct(self, instr: Instrumentation) -> DominatingSet:
        udg = self.udg
        if not kernels.supports_kernel_election(udg):
            # A UDG subclass with bespoke sensing semantics: stay on the
            # per-node reference path (correctness over speed).
            return self.direct_reference(instr)
        details: dict = {"mode": "direct", "k": self.k}
        pool = node_stream_pool(range(udg.n), self.seed,
                                bounded_ranges=_id_ranges(udg.n))
        leader = _part_one_kernel(udg, pool, details)
        details["part1_leaders"] = int(leader.sum())
        _part_two_kernel(self.artifacts, leader, self.k, pool, self.policy,
                         details)
        return _result(details, leader, instr)

    def supports_direct_batch(self) -> bool:
        # The batched path runs on the distance CSR; exotic sensing
        # subclasses must take the sequential reference fallback.
        return kernels.supports_kernel_election(self.udg)

    def direct_batch(self, instrs, seeds) -> List[DominatingSet]:
        """Replica-batched :meth:`direct`: the whole seed sweep in one
        kernel pass per phase (lane = (replica, node)).  Bit-identical
        per replica to the sequential per-seed loop."""
        udg = self.udg
        details_list: List[dict] = [{"mode": "direct", "k": self.k}
                                    for _ in seeds]
        streams = replica_node_streams(range(udg.n), seeds,
                                       bounded_ranges=_id_ranges(udg.n))
        leader = _part_one_kernel_batch(udg, streams, details_list)
        for details, row in zip(details_list, leader):
            details["part1_leaders"] = int(row.sum())
        _part_two_kernel_batch(self.artifacts, leader, self.k, streams,
                               self.policy, details_list)
        return [_result(details, row, instr)
                for details, row, instr in zip(details_list, leader, instrs)]

    def grid_supported(self, graph) -> bool:
        """Per-graph :meth:`direct_grid` eligibility: a nonempty stock
        UnitDiskGraph (or sensing subclass the distance CSR models).
        Everything else runs per-point through :meth:`grid_point`."""
        try:
            udg = _as_udg(graph)
        except GeometryError:
            return False
        return udg.n > 0 and kernels.supports_kernel_election(udg)

    def grid_point(self, graph, k) -> "UDGProgram":
        return UDGProgram(_as_udg(graph), int(k), self.policy, self.seed)

    def direct_grid(self, graphs, ks, seeds) -> List[List[List[DominatingSet]]]:
        """Grid-batched :meth:`direct`: the full ``graphs x ks x seeds``
        grid in stacked kernel dispatches, returning
        ``results[graph][k][seed]``.

        Graphs are grouped by size and radius (a shared theta schedule
        makes the election rounds stackable); each group runs Part I
        *once* over the stacked CSR and the grid RNG pool, then the k
        axis is fused:
        Part I never reads ``k``, so every k value's adoption phase
        starts from the same leaders, the same stacked coverage counts,
        and snapshot clones of the same frozen RNG lane states.
        Bit-identical per (graph, k, replica) to per-point
        ``execute_batch(grid_point(g, k), seeds)`` calls.
        """
        udgs = [_as_udg(g) for g in graphs]
        unsupported = [g for g, u in enumerate(udgs)
                       if not self.grid_supported(u)]
        if unsupported:
            raise GraphError(
                f"direct_grid cannot take graphs {unsupported}; route "
                "through repro.engine.execute_grid for per-point fallback")
        k_list = [int(k) for k in ks]
        if any(k < 1 for k in k_list):
            raise GraphError(f"k must be at least 1, got {min(k_list)}")
        policy = self.policy
        R = len(seeds)
        K = len(k_list)
        results: List[List[List[DominatingSet]]] = [None] * len(udgs)

        groups: Dict[tuple, List[int]] = {}
        for i, udg in enumerate(udgs):
            groups.setdefault((udg.n, udg.radius), []).append(i)
        for (n, _), idxs in groups.items():
            stack = stacked_graphs([udgs[i] for i in idxs])
            streams = grid_streams([n] * len(idxs), seeds,
                                   bounded_ranges=_id_ranges(n))
            details_grid: List[List[dict]] = \
                [[{} for _ in range(R)] for _ in idxs]
            active = _part_one_kernel_grid(stack, streams, details_grid)
            # Initial closed coverage for every graph block at once.
            cov0 = kernels.member_counts_stacked(stack, indicators=active,
                                                 convention="closed")
            ks_row = np.repeat(np.asarray(k_list, dtype=np.int64), R)
            G = len(idxs)
            # Part I leader counts per (replica, graph block).
            p1_leaders = active.reshape(R, G, n).sum(axis=2)
            # The (K*R, G*n) fused adoption plane: k value ki's rows
            # are [ki*R, (ki+1)*R), each starting from the shared
            # Part I leaders and coverage, and every graph block rides
            # in one cross-graph Part II call (``blocks=G``) over the
            # stacked CSR instead of G per-graph loops.
            leader = np.tile(active, (K, 1))
            coverage = np.tile(cov0, (K, 1))
            details_rows: List[List[dict]] = []
            for k in k_list:
                for r in range(R):
                    per_block: List[dict] = []
                    for j in range(G):
                        base = details_grid[j][r]
                        per_block.append({
                            "mode": "direct", "k": k,
                            "theta_per_round":
                                list(base["theta_per_round"]),
                            "active_per_round":
                                list(base["active_per_round"]),
                            "part1_leaders": int(p1_leaders[r, j]),
                        })
                    details_rows.append(per_block)
            _part_two_kernel_batch(stack, leader, ks_row,
                                   _GridAdoptionStreams(streams, R), policy,
                                   details_rows, coverage=coverage,
                                   blocks=G)
            for j, i in enumerate(idxs):
                off, _ = stack.graph_slice(j)
                results[i] = [
                    [_result(details_rows[ki * R + r][j],
                             leader[ki * R + r, off:off + n],
                             Instrumentation.for_n(n))
                     for r in range(R)]
                    for ki in range(K)]
        return results

    def direct_reference(self, instr: Instrumentation) -> DominatingSet:
        """The per-node reference implementation (bit-exactness oracle
        for the kernel path; select with ``execute(..., reference=True)``)."""
        udg, k, policy = self.udg, self.k, self.policy
        details: dict = {"mode": "direct", "k": k}
        rngs = spawn_node_rngs(range(udg.n), self.seed)

        leaders = _part_one_direct(udg, rngs, details)
        details["part1_leaders"] = len(leaders)
        members = _part_two_direct(udg, set(leaders), k, rngs, policy,
                                   details)

        instr.charge_rounds(2 * len(details["theta_per_round"])
                            + 2 + 3 * details["part2_iterations"])
        return DominatingSet(members=members, stats=instr.stats,
                             details=details)

    def processes(self) -> List[UDGNode]:
        n = self.udg.n
        # Upper bound on Part II iterations: each iteration removes at
        # least k deficient nodes from any nonempty U(v), so deg+1 over k
        # suffices; use n as a safe global bound (as :meth:`lanes` does).
        sync_iters = n + 1
        return [UDGNode(v, self.k, n, self.policy, sync_iters)
                for v in range(n)]

    def lanes(self) -> Lanes:
        # Lanes are the node ids 0..n-1 (the stepper requires it).
        n = self.udg.n
        return Lanes(UDGNode, k=self.k, n=n, policy=self.policy,
                     part2_sync_iterations=n + 1)

    def collect_lanes(self, stepper, stats: RunStats) -> DominatingSet:
        return DominatingSet(members=set(stepper.members().tolist()),
                             stats=stats,
                             details={"mode": "message", "k": self.k})

    def collect(self, processes: Sequence[UDGNode],
                stats: RunStats) -> DominatingSet:
        members = {p.node_id for p in processes if p.leader}
        return DominatingSet(members=members, stats=stats,
                             details={"mode": "message", "k": self.k})


# ======================================================================
# Public entry points
# ======================================================================

def part_one_leaders(graph, *, seed: int | None = None) -> DominatingSet:
    """Run only Part I of Algorithm 3 — the O(1)-approximate plain
    dominating set (the Gao-Guibas-Hershberger-Zhang-Zhu "discrete mobile
    centers" step).  Exposed for the E13 dynamics experiment and as the
    k = 1 comparison baseline."""
    udg = _as_udg(graph)
    details: dict = {"mode": "direct"}
    if udg.n == 0:
        return DominatingSet(members=set(), details=details)
    if kernels.supports_kernel_election(udg):
        pool = node_stream_pool(range(udg.n), seed,
                                bounded_ranges=_id_ranges(udg.n))
        leaders = _members_set(_part_one_kernel(udg, pool, details))
    else:
        rngs = spawn_node_rngs(range(udg.n), seed)
        leaders = _part_one_direct(udg, rngs, details)
    stats = RunStats()
    stats.rounds = 2 * len(details["theta_per_round"])
    return DominatingSet(members=set(leaders), stats=stats, details=details)


def solve_kmds_udg(graph, k: int = 1, *,
                   mode: str = "direct",
                   selection_policy: str = "random",
                   seed: int | None = None,
                   delay=None,
                   delay_seed: int | None = None) -> DominatingSet:
    """Run Algorithm 3: a k-fold dominating set of a unit disk graph in
    ``O(log log n)`` rounds with ``O(log n)``-bit messages, O(1)-approximate
    in expectation (Theorem 5.7).

    Parameters
    ----------
    graph:
        A :class:`~repro.graphs.udg.UnitDiskGraph`.
    k:
        Fault-tolerance parameter (open-neighborhood convention: every node
        outside the returned set has at least ``k`` neighbors inside it;
        always satisfiable since deficient nodes are promoted into the set).
    mode:
        An engine backend: ``"direct"`` (fast central simulation),
        ``"message"`` (full message-passing simulation with accounting),
        or ``"async"`` / ``"async-beta"`` (synchronizers over random link
        delays).
    selection_policy:
        How leaders pick adoption targets in Part II: ``"random"`` or
        ``"by-id"``.
    seed:
        Root seed for all node randomness; every backend consumes the
        per-node streams identically, so results match for equal seeds.
    """
    if k < 1:
        raise GraphError(f"k must be at least 1, got {k}")
    if selection_policy not in SELECTION_POLICIES:
        raise GraphError(
            f"unknown selection policy {selection_policy!r}; "
            f"expected one of {SELECTION_POLICIES}"
        )
    seed = validate_seed(seed)
    udg = _as_udg(graph)
    if udg.n == 0:
        from repro.engine.backends import resolve_backend

        resolve_backend(mode)
        return DominatingSet(members=set(), details={"mode": mode, "k": k})
    program = UDGProgram(udg, k, selection_policy, seed)
    result = execute(program, mode, seed=seed, delay=delay,
                     delay_seed=delay_seed)
    result.details["mode"] = mode
    return result


def solve_kmds_udg_batch(graph, seeds: Sequence, k: int = 1, *,
                         mode: str = "direct",
                         selection_policy: str = "random"
                         ) -> List[DominatingSet]:
    """Run Algorithm 3 once per seed — the replica-batched counterpart
    of a ``[solve_kmds_udg(..., seed=s) for s in seeds]`` sweep.

    On the ``direct`` backend the whole sweep executes as one
    replica-batched kernel pass (per-replica results bit-identical to
    the sequential loop); other modes, exotic sensing subclasses, and
    ``None`` seeds fall back to exactly that loop.  The E-series seed
    replication and ``repro experiment --replicas`` route through here.
    """
    if k < 1:
        raise GraphError(f"k must be at least 1, got {k}")
    if selection_policy not in SELECTION_POLICIES:
        raise GraphError(
            f"unknown selection policy {selection_policy!r}; "
            f"expected one of {SELECTION_POLICIES}"
        )
    seed_list = [validate_seed(s) for s in seeds]
    udg = _as_udg(graph)
    if udg.n == 0:
        from repro.engine.backends import resolve_backend

        resolve_backend(mode)
        return [DominatingSet(members=set(), details={"mode": mode, "k": k})
                for _ in seed_list]
    first = seed_list[0] if seed_list else None
    program = UDGProgram(udg, k, selection_policy, first)
    results = execute_batch(program, seed_list, mode)
    for result in results:
        result.details["mode"] = mode
    return results


def solve_kmds_udg_grid(graphs, seeds: Sequence, ks: Sequence[int] = (1,),
                        *, mode: str = "direct",
                        selection_policy: str = "random",
                        timing: dict | None = None
                        ) -> List[List[List[DominatingSet]]]:
    """Run Algorithm 3 over the full ``graphs x ks x seeds`` grid,
    returning ``results[graph][k][seed]`` — the grid-batched counterpart
    of a ``solve_kmds_udg_batch(g, seeds, k=k)`` double loop.

    On the ``direct`` backend eligible graphs execute through
    :func:`repro.engine.execute_grid`: topologies are stacked into one
    block-diagonal CSR dispatch per (size, radius) class, the k axis is
    fused over one shared Part I, and the RNG pool widens to one lane per
    (replica, graph, node) — per-(graph, k, seed) results bit-identical
    to the per-point loop and to the per-node reference (pinned by
    ``tests/test_grid_equivalence.py``).  Message backends and exotic
    sensing subclasses take the per-point loop.
    ``timing`` (optional dict) receives the dispatch breakdown — see
    :func:`repro.engine.execute_grid`.  The E-series grids (E6/E7)
    route through here.
    """
    for k in ks:
        if k < 1:
            raise GraphError(f"k must be at least 1, got {k}")
    if selection_policy not in SELECTION_POLICIES:
        raise GraphError(
            f"unknown selection policy {selection_policy!r}; "
            f"expected one of {SELECTION_POLICIES}"
        )
    from repro.engine.backends import resolve_backend

    resolve_backend(mode)
    seed_list = [validate_seed(s) for s in seeds]
    k_list = [int(k) for k in ks]
    udgs = [_as_udg(g) for g in graphs]
    out: List[List[List[DominatingSet]]] = [None] * len(udgs)
    nonempty = []
    for i, udg in enumerate(udgs):
        if udg.n == 0:
            out[i] = [[DominatingSet(members=set(),
                                     details={"mode": mode, "k": k})
                       for _ in seed_list] for k in k_list]
        else:
            nonempty.append(i)
    if nonempty:
        first = seed_list[0] if seed_list else None
        program = UDGProgram(udgs[nonempty[0]],
                             k_list[0] if k_list else 1,
                             selection_policy, first)
        sub = execute_grid(program, [udgs[i] for i in nonempty],
                           seed_list, k_list, mode, timing=timing)
        for j, i in enumerate(nonempty):
            out[i] = sub[j]
            for per_seed in sub[j]:
                for result in per_seed:
                    result.details["mode"] = mode
    elif timing is not None:
        timing.update({"path": "per-point", "grid_graphs": 0,
                       "per_point_graphs": 0, "grid_seconds": 0.0,
                       "per_point_seconds": 0.0})
    return out
