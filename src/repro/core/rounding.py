"""Algorithm 2 — Distributed Randomized Rounding (Section 4.2).

Converts a fractional (PP) solution into an integral k-fold dominating set:

1. every node joins with probability ``p_i = min(1, x_i * ln(Delta+1))``;
2. every node still deficient sends REQ messages to enough non-member
   closed neighbors, which then join unconditionally.

Theorem 4.6: starting from a ρ-approximate fractional solution the expected
integral size is ``ρ ln(Delta+1) + O(1)`` times the LP optimum; the
protocol takes a constant number of rounds (two message exchanges).

The paper leaves the choice of REQ targets open ("send REQ to ... neighbors
v_l with x'_l = 0"); three policies are provided (an E3 ablation):

- ``"random"`` (default) — uniform among non-member closed neighbors;
- ``"highest-x"`` — prefer neighbors with the largest fractional value
  (they were "almost chosen" and tend to be useful elsewhere too);
- ``"self-first"`` — a deficient node recruits itself first, then randoms.

The algorithm is a :class:`~repro.engine.program.RoundProgram`: the same
definition runs vectorized (``mode="direct"``), on the synchronous
simulator (``"message"``), or under the alpha / beta synchronizers
(``"async"`` / ``"async-beta"``).  All backends consume the per-node RNG
streams identically, so the same seed yields the same set everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, List, Mapping, Sequence

import numpy as np

from repro.core.lp import CoveringLP
from repro.engine import (Instrumentation, Lanes, RoundProgram, execute,
                          graph_artifacts, validate_seed)
from repro.engine import kernels
from repro.errors import GraphError
from repro.graphs.properties import node_degrees
from repro.simulation.messages import Message
from repro.simulation.node import NodeProcess
from repro.simulation.vecrng import node_stream_pool
from repro.types import CoverageMap, DominatingSet, MemberSet, NodeId, RunStats

REQUEST_POLICIES = ("random", "highest-x", "self-first")


def rounding_probability(x_i: float, delta: int) -> float:
    """Line 1 of Algorithm 2: ``p_i = min(1, x_i * ln(Delta+1))``."""
    return min(1.0, x_i * math.log(delta + 1.0)) if delta > 0 else min(1.0, x_i)


def _choose_requests(rng: np.random.Generator, me: NodeId,
                     candidates: List[NodeId], x: Mapping[NodeId, float],
                     need: int, policy: str) -> List[NodeId]:
    """Pick ``need`` REQ targets from non-member closed neighbors."""
    if need >= len(candidates):
        return list(candidates)
    if policy == "random":
        picks = rng.choice(len(candidates), size=need, replace=False)
        return [candidates[i] for i in sorted(picks.tolist())]
    if policy == "highest-x":
        ranked = sorted(candidates, key=lambda v: (-x.get(v, 0.0), repr(v)))
        return ranked[:need]
    if policy == "self-first":
        picked: List[NodeId] = []
        rest = list(candidates)
        if me in rest:
            picked.append(me)
            rest.remove(me)
        remaining = need - len(picked)
        if remaining > 0:
            idx = rng.choice(len(rest), size=remaining, replace=False)
            picked.extend(rest[i] for i in sorted(idx.tolist()))
        return picked
    raise GraphError(
        f"unknown request policy {policy!r}; expected one of {REQUEST_POLICIES}"
    )


# ======================================================================
# Messages
# ======================================================================

@dataclass(frozen=True)
class MembershipMsg(Message):
    """Line 3: announce the rounding outcome ``x'_i`` to all neighbors."""
    member: bool = False
    SCHEMA = (("member", "flag"),)


@dataclass(frozen=True)
class ReqMsg(Message):
    """Line 5: REQ — ask the receiver to join the dominating set."""
    SCHEMA = ()


class RoundingNode(NodeProcess):
    """Per-node process implementing Algorithm 2 verbatim."""

    def __init__(self, node_id: NodeId, k_i: int, delta: int,
                 x: Mapping[NodeId, float], policy: str):
        super().__init__(node_id)
        self.k_i = int(k_i)
        self.delta = delta
        self.x = x
        self.policy = policy
        self.member = False

    def run(self, ctx) -> Iterator[None]:
        me = self.node_id
        # Lines 1-2.
        self.member = ctx.rng.random() < rounding_probability(
            self.x[me], self.delta)
        # Line 3.
        ctx.broadcast(MembershipMsg(member=self.member))
        inbox = yield

        member_of = {src: msg.member for src, msg in inbox}
        member_of[me] = self.member
        closed = [me] + list(ctx.neighbors)
        have = sum(1 for w in closed if member_of.get(w, False))
        need = self.k_i - have
        # Lines 4-6.
        if need > 0:
            candidates = [w for w in closed if not member_of.get(w, False)]
            for w in _choose_requests(ctx.rng, me, candidates, self.x,
                                      need, self.policy):
                if w == me:
                    self.member = True
                else:
                    ctx.send(w, ReqMsg())
        inbox = yield
        # Line 7.
        if any(isinstance(msg, ReqMsg) for _, msg in inbox):
            self.member = True


# ======================================================================
# The round program
# ======================================================================

class RoundingProgram(RoundProgram):
    """Algorithm 2 as an engine-executable round program."""

    def __init__(self, lp: CoveringLP, x: Mapping[NodeId, float],
                 policy: str, seed: int | None):
        super().__init__(lp.artifacts)
        self.lp = lp
        self.x = x
        self.policy = policy
        self.seed = seed

    def max_rounds(self) -> int:
        return 8

    def direct(self, instr: Instrumentation) -> DominatingSet:
        """The vectorized kernel: one rounding draw and one coverage
        matvec over the node streams; only the (few) deficient nodes run
        the per-node REQ selection.  Equal, members and ``RunStats``, to
        the per-node loop of :class:`RoundingNode` (the
        ``reference=True`` oracle)."""
        lp, x, policy = self.lp, self.x, self.policy
        art = self.artifacts
        n = lp.n
        streams = node_stream_pool(lp.nodes, self.seed)
        delta = lp.delta

        # Lines 1-2: one u64 per node stream, then compare against each
        # node's probability; streams are independent, so drawing in
        # lane order consumes them exactly as the reference loop does.
        uniforms = streams.random(np.arange(n))
        probs = np.fromiter(
            (rounding_probability(x[v], delta) for v in lp.nodes),
            dtype=np.float64, count=n)
        perm = np.fromiter((streams.lane[v] for v in lp.nodes),
                           dtype=np.int64, count=n)
        member_vec = uniforms[perm] < probs
        sampled = int(member_vec.sum())
        # Lines 4-7: per-node closed-neighborhood member counts collapse
        # to one CSR matvec; only the (few) deficient nodes then run the
        # per-node selection logic, consuming their RNG streams exactly
        # as the reference loop does.
        counts = kernels.member_counts(art, indicator=member_vec,
                                       convention="closed")
        required = lp.requirements
        nbrs_of = art.sorted_neighbors
        is_member = dict(zip(lp.nodes, member_vec.tolist()))
        requested: set = set()
        req_messages = 0  # REQ sends (self-picks are local, not sent)
        for i in np.nonzero(required > counts)[0].tolist():
            v = art.nodes[i]
            need = int(required[i] - counts[i])
            candidates = ([] if is_member[v] else [v]) \
                + [w for w in nbrs_of[v] if not is_member[w]]
            rng = streams.generator(streams.lane[v])
            for w in _choose_requests(rng, v, candidates, x, need, policy):
                requested.add(w)
                if w != v:
                    req_messages += 1
        member_vec[np.fromiter(map(art.index.__getitem__, requested),
                               dtype=np.int64, count=len(requested))] = True
        # Accounting implied by the two-exchange schedule.
        instr.charge_messages(2 * self.artifacts.m,
                              MembershipMsg(member=False), rounds=1)
        instr.charge_messages(req_messages, ReqMsg(), rounds=1)
        # Results index the artifacts' stable node order.
        nodes, order, _ = art.stable_order()
        return DominatingSet(
            members=MemberSet.from_mask(member_vec[order], nodes),
            stats=instr.stats,
            details={"sampled": sampled, "requested": len(requested),
                     "policy": policy},
        )

    def lanes(self) -> Lanes:
        from repro.simulation.columnar import lane_order

        lp, x = self.lp, self.x
        _, order = lane_order(self.artifacts)
        n = lp.n
        return Lanes(
            RoundingNode,
            k=lp.requirements[order],
            delta=np.full(n, lp.delta, dtype=np.int64),
            x=np.fromiter((x[v] for v in lp.nodes), dtype=np.float64,
                          count=n)[order],
            xmap=[x] * n, policy=[self.policy] * n)

    def collect_lanes(self, stepper, stats: RunStats) -> DominatingSet:
        return DominatingSet(
            members=MemberSet.from_mask(stepper.member, stepper.plan.nodes),
            stats=stats, details={"policy": self.policy})

    def processes(self) -> List[RoundingNode]:
        lp = self.lp
        return [
            RoundingNode(v, lp.coverage[v], lp.delta, self.x, self.policy)
            for v in lp.nodes
        ]

    def collect(self, processes: Sequence[RoundingNode],
                stats: RunStats) -> DominatingSet:
        members = {p.node_id for p in processes if p.member}
        return DominatingSet(members=members, stats=stats,
                             details={"policy": self.policy})


# ======================================================================
# Public entry point
# ======================================================================

def randomized_rounding(graph, x: Mapping[NodeId, float],
                        k: int | None = 1, *,
                        coverage: CoverageMap | None = None,
                        policy: str = "random",
                        mode: str = "direct",
                        seed: int | None = None,
                        delay=None,
                        delay_seed: int | None = None) -> DominatingSet:
    """Run Algorithm 2: round a fractional (PP) solution to an integral
    k-fold dominating set (closed-neighborhood convention).

    Parameters
    ----------
    graph:
        The network graph.
    x:
        Fractional solution (typically from
        :func:`repro.core.fractional.fractional_kmds`).
    k / coverage:
        Uniform or per-node requirements, as in the fractional solver.
    policy:
        REQ target selection policy (see module docstring).
    mode:
        An engine backend: ``"direct"``, ``"message"``, ``"async"`` or
        ``"async-beta"``.
    seed:
        Root seed for all node randomness.  Every backend consumes the
        per-node streams identically, so the same seed yields the same set.
    """
    if policy not in REQUEST_POLICIES:
        raise GraphError(
            f"unknown request policy {policy!r}; expected one of {REQUEST_POLICIES}"
        )
    seed = validate_seed(seed)
    art = graph_artifacts(graph)
    if coverage is None:
        if k is None:
            raise GraphError("give either k (uniform) or a coverage map")
        coverage = dict.fromkeys(art.nodes, k)
    lp = CoveringLP(graph, coverage)
    missing = [v for v in lp.nodes if v not in x]
    if missing:
        raise GraphError(
            f"fractional solution missing {len(missing)} node(s), "
            f"e.g. {missing[0]!r}"
        )
    witness = lp.infeasible_witness()
    if witness is not None:
        from repro.errors import InfeasibleInstanceError
        _, degrees = node_degrees(graph)
        raise InfeasibleInstanceError(
            f"no k-fold dominating set exists: node {witness!r} requires "
            f"{lp.coverage[witness]} covers but |N_i| = "
            f"{degrees[art.index[witness]] + 1}",
            witness=witness,
        )
    if lp.n == 0:
        return DominatingSet(members=set())
    program = RoundingProgram(lp, x, policy, seed)
    return execute(program, mode, seed=seed, delay=delay,
                   delay_seed=delay_seed)
