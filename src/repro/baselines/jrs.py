"""A Jia-Rajaraman-Suel-style distributed greedy baseline ([9]).

The paper cites Jia, Rajaraman and Suel's *local randomized greedy* (LRG)
as "the only previously known upper bound on the distributed
approximability of the k-fold dominating set problem in general graphs":
expected ``O(log Delta)`` approximation in ``O(log n log Delta log k)``
time.  This module implements an LRG-style algorithm adapted to
k-coverage, used as the comparison point in experiment E12:

1. every unselected node computes its *span* — the number of coverage
   units it could still supply (one per closed neighbor with positive
   residual demand);
2. a node is a *candidate* if its span, rounded up to a power of 2, is
   maximal among the rounded spans within its 2-neighborhood (the rounding
   makes "nearly maximal" nodes candidates too, which is what makes the
   round count logarithmic);
3. every candidate joins the set with probability ``1 / median support``,
   where the support of a still-deficient node is the number of candidates
   that would cover it;
4. if a candidate saw no coin-flip join in its closed neighborhood and its
   ``(span, id)`` is maximal among candidates within distance 2, it joins
   deterministically (a *local* progress guarantee — every phase makes
   progress without any global coordination);
5. repeat until no residual demand remains anywhere within distance 2.

The algorithm is an engine :class:`~repro.engine.program.RoundProgram`
that runs as a real 7-round-per-phase protocol — state, span, 2-hop span
max, candidacy, support, coin joins, fallback joins — with per-message
bit accounting.  ``mode="direct"`` and ``"message"`` both run it as a
lane run on the columnar plane (``JRSStepper``; runs the plane declines,
e.g. under fault injectors, take the per-node ``JRSNode`` loop, which is
also the ``reference=True`` oracle); ``"async"`` / ``"async-beta"`` run
the ``JRSNode`` processes under a synchronizer.  Every path consumes the
per-node RNG streams identically, so the same seed yields the same set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Union

import numpy as np

from repro.engine import (Instrumentation, Lanes, RoundProgram, execute,
                          validate_seed)
from repro.engine.artifacts import graph_artifacts
from repro.errors import GraphError, InfeasibleInstanceError
from repro.graphs.properties import node_degrees
from repro.simulation.messages import Message
from repro.simulation.node import NodeProcess
from repro.types import (CoverageMap, DominatingSet, MemberSet, NodeId,
                         RunStats)

#: Communication rounds per LRG phase (state: 1, span: 1, 2-hop span max:
#: 1, candidacy: 1, support: 1, coin joins: 1, fallback joins: 1).  A run
#: takes ``ROUNDS_PER_PHASE * phases + 2`` rounds on a nonempty graph: the
#: closing state and span exchange that finds no residual demand within
#: distance 2 costs two more.
ROUNDS_PER_PHASE = 7


def _round_up_pow2(value: int) -> int:
    """Smallest power of two >= value (0 stays 0)."""
    if value <= 0:
        return 0
    return 1 << (value - 1).bit_length()


# ======================================================================
# Messages (one dataclass per protocol round)
# ======================================================================

@dataclass(frozen=True)
class JrsStateMsg(Message):
    """Round 1: membership + residual demand."""
    member: bool = False
    residual: int = 0
    SCHEMA = (("member", "flag"), ("residual", "count"))


@dataclass(frozen=True)
class JrsSpanMsg(Message):
    """Round 2: own span + whether any residual remains in N[v]."""
    span: int = 0
    active: bool = False
    SCHEMA = (("span", "count"), ("active", "flag"))


@dataclass(frozen=True)
class JrsHoodMaxMsg(Message):
    """Round 3: max rounded span over N[v] (relayed for the 2-hop max)."""
    value: int = 0
    SCHEMA = (("value", "count"),)


@dataclass(frozen=True)
class JrsCandMsg(Message):
    """Round 4: candidacy flag."""
    candidate: bool = False
    SCHEMA = (("candidate", "flag"),)


@dataclass(frozen=True)
class JrsSupportMsg(Message):
    """Round 5: own support + the best candidate key seen in N[v]
    (``best_span == 0`` means no candidate in N[v])."""
    support: int = 0
    best_span: int = 0
    best_id: int = 0
    SCHEMA = (("support", "count"), ("best_span", "count"), ("best_id", "id"))


@dataclass(frozen=True)
class JrsJoinMsg(Message):
    """Round 6: coin-flip join announcement."""
    joined: bool = False
    SCHEMA = (("joined", "flag"),)


@dataclass(frozen=True)
class JrsFallbackMsg(Message):
    """Round 7: deterministic fallback-join announcement."""
    joined: bool = False
    SCHEMA = (("joined", "flag"),)


class JRSNode(NodeProcess):
    """Per-node process running LRG phases until its 2-hop region has no
    residual demand left."""

    def __init__(self, node_id: NodeId, req: int, convention: str,
                 max_phases: int):
        super().__init__(node_id)
        self.req = int(req)
        self.convention = convention
        self.max_phases = max_phases
        self.member = False
        self.phases = 0

    def run(self, ctx) -> Iterator[None]:
        me = self.node_id
        nbrs = tuple(ctx.neighbors)
        closed = (me,) + nbrs
        convention = self.convention
        residual = self.req
        # Last-known neighbor state (exited neighbors stop broadcasting,
        # but their state is frozen by then, so stale values stay exact).
        member_of: Dict[NodeId, bool] = {w: False for w in closed}
        residual_of: Dict[NodeId, int] = {w: 0 for w in closed}

        while True:
            # --- round 1: state ---------------------------------------
            ctx.broadcast(JrsStateMsg(member=self.member, residual=residual))
            inbox = yield
            for src, msg in inbox:
                member_of[src] = msg.member
                residual_of[src] = msg.residual
            member_of[me] = self.member
            residual_of[me] = residual

            if self.member:
                span = 0
            else:
                span = sum(1 for u in nbrs if residual_of[u] > 0)
                if convention == "closed":
                    span += 1 if residual > 0 else 0
                else:
                    span += residual
            any_res1 = any(residual_of[u] > 0 for u in closed)

            # --- round 2: span (+ 1-hop activity flag) ----------------
            ctx.broadcast(JrsSpanMsg(span=span, active=any_res1))
            inbox = yield
            span_of: Dict[NodeId, int] = {me: span}
            active2 = any_res1
            for src, msg in inbox:
                span_of[src] = msg.span
                active2 = active2 or msg.active
            if not active2:
                # No residual demand anywhere within distance 2: every
                # value this node could still relay is zero, so it can
                # leave the protocol without affecting anyone.
                return
            self.phases += 1
            if self.phases > self.max_phases:
                raise GraphError(
                    f"LRG did not converge within {self.max_phases} phases"
                )
            rounded_of = {w: _round_up_pow2(s) for w, s in span_of.items()}
            hoodmax = max(rounded_of.values())

            # --- round 3: 2-hop rounded-span max ----------------------
            ctx.broadcast(JrsHoodMaxMsg(value=hoodmax))
            inbox = yield
            max2 = hoodmax
            for _, msg in inbox:
                max2 = max(max2, msg.value)
            candidate = rounded_of[me] > 0 and rounded_of[me] >= max2

            # --- round 4: candidacy -----------------------------------
            ctx.broadcast(JrsCandMsg(candidate=candidate))
            inbox = yield
            cand_of: Dict[NodeId, bool] = {me: candidate}
            for src, msg in inbox:
                cand_of[src] = msg.candidate
            support = (sum(1 for c in cand_of.values() if c)
                       if residual > 0 else 0)
            best1 = max(
                ((span_of.get(w, 0), repr(w), w)
                 for w, c in cand_of.items() if c),
                default=None,
            )

            # --- round 5: support + best candidate key in N[v] --------
            ctx.broadcast(JrsSupportMsg(
                support=support,
                best_span=best1[0] if best1 else 0,
                best_id=best1[2] if best1 else me,
            ))
            inbox = yield
            support_of: Dict[NodeId, int] = {me: support}
            best2 = (best1[0], best1[1]) if best1 else None
            for src, msg in inbox:
                support_of[src] = msg.support
                if msg.best_span > 0:
                    key = (msg.best_span, repr(msg.best_id))
                    if best2 is None or key > best2:
                        best2 = key
            joined = False
            if candidate:
                covered = [u for u in closed if residual_of[u] > 0]
                med = float(np.median([support_of.get(u, 1)
                                       for u in covered]))
                p = 1.0 if med <= 1 else 1.0 / med
                joined = ctx.rng.random() < p

            # --- round 6: coin-flip joins -----------------------------
            ctx.broadcast(JrsJoinMsg(joined=joined))
            inbox = yield
            joined_of: Dict[NodeId, bool] = {me: joined}
            for src, msg in inbox:
                joined_of[src] = msg.joined
            any_join1 = any(joined_of.values())
            fallback = (candidate and not joined and not any_join1
                        and best2 == (span, repr(me)))
            if fallback:
                joined = True
                joined_of[me] = True

            # --- round 7: fallback joins ------------------------------
            ctx.broadcast(JrsFallbackMsg(joined=fallback))
            inbox = yield
            for src, msg in inbox:
                if msg.joined:
                    joined_of[src] = True

            # Apply this phase's joins to the local view.
            for w in closed:
                if not joined_of.get(w, False) or member_of[w]:
                    continue
                member_of[w] = True
                if w == me:
                    self.member = True
                    if convention == "closed":
                        if residual > 0:
                            residual -= 1
                    else:
                        residual = 0
                elif residual > 0:
                    residual -= 1


# ======================================================================
# The round program
# ======================================================================

class JRSProgram(RoundProgram):
    """The LRG baseline as an engine-executable round program."""

    def __init__(self, artifacts, req: Dict[NodeId, int], convention: str,
                 seed: int | None, max_phases: int):
        super().__init__(artifacts)
        self.req = req
        self.convention = convention
        self.seed = seed
        self.max_phases = max_phases

    def max_rounds(self) -> int:
        return ROUNDS_PER_PHASE * self.max_phases + 4

    # ------------------------------------------------------------------
    def direct(self, instr: Instrumentation) -> DominatingSet:
        # The LRG phases have no kernel of their own: the lane run (the
        # columnar JRSStepper; a declined run takes the JRSNode loop)
        # is the fast path, with the protocol's exact RunStats.
        return execute(self, "message", seed=self.seed)

    # ------------------------------------------------------------------
    def lanes(self) -> Lanes:
        from repro.simulation.columnar import lane_order

        art = self.artifacts
        _, order = lane_order(art)
        n = art.n
        return Lanes(
            JRSNode, convention=self.convention, max_phases=self.max_phases,
            req=np.array([int(self.req[v]) for v in art.nodes],
                         dtype=np.int64)[order],
            member=np.zeros(n, dtype=bool),
            phases=np.zeros(n, dtype=np.int64))

    def collect_lanes(self, stepper, stats: RunStats) -> DominatingSet:
        phases = stepper.phases
        return DominatingSet(
            members=MemberSet.from_mask(stepper.member, stepper.plan.nodes),
            stats=stats,
            details={"algorithm": "jrs-lrg",
                     "phases": int(phases.max()) if phases.size else 0,
                     "convention": self.convention},
        )

    def processes(self) -> List[JRSNode]:
        return [JRSNode(v, self.req[v], self.convention, self.max_phases)
                for v in self.artifacts.nodes]

    def collect(self, processes: Sequence[JRSNode],
                stats: RunStats) -> DominatingSet:
        members = {p.node_id for p in processes if p.member}
        phases = max((p.phases for p in processes), default=0)
        return DominatingSet(
            members=members,
            stats=stats,
            details={"algorithm": "jrs-lrg", "phases": phases,
                     "convention": self.convention},
        )


# ======================================================================
# Public entry point
# ======================================================================

def jrs_kmds(graph, k: Union[int, CoverageMap] = 1, *,
             convention: str = "closed",
             mode: str = "direct",
             seed: int | None = None,
             delay=None,
             delay_seed: int | None = None,
             max_phases: int = 10_000) -> DominatingSet:
    """Run the LRG-style distributed greedy to a k-fold dominating set.

    Parameters
    ----------
    graph:
        The network graph.
    k:
        Uniform requirement or per-node map.
    convention:
        ``"closed"`` (default; matches the LP (PP) and Algorithm 1+2) or
        ``"open"`` (members exempt).
    mode:
        An engine backend: ``"direct"`` (default), ``"message"``,
        ``"async"`` or ``"async-beta"``.
    seed:
        Root seed for the per-node randomness (every backend consumes the
        per-node streams identically).
    max_phases:
        Safety valve against livelock on adversarial inputs.
    """
    if convention not in ("open", "closed"):
        raise GraphError(
            f"unknown convention {convention!r}; expected 'open' or 'closed'"
        )
    seed = validate_seed(seed)
    art = graph_artifacts(graph)
    req = dict.fromkeys(art.nodes, k) if isinstance(k, int) else dict(k)
    if convention == "closed":
        for v, d in zip(*node_degrees(graph)):
            if req[v] > d + 1:
                raise InfeasibleInstanceError(
                    f"node {v!r} requires {req[v]} covers but |N[v]| = "
                    f"{d + 1}",
                    witness=v,
                )
    program = JRSProgram(art, req, convention, seed, max_phases)
    return execute(program, mode, seed=seed, delay=delay,
                   delay_seed=delay_seed)
