"""Batched round steppers for the stock protocols.

One :class:`~repro.simulation.columnar.ColumnarStepper` subclass per
protocol-node class, each replaying that protocol's generator body as
lane-parallel array programs — one :meth:`advance` call per runner
round, inbox loops lowered to ``inbox_reduce`` / ``state_scatter``
dispatches.  Registration happens at import time via
:func:`~repro.simulation.columnar.register_stepper`; the module is
imported lazily by :func:`~repro.simulation.columnar.resolve_stepper`.

Every stepper is **bit-identical** to the per-node reference
(``reference=True``), including RNG consumption.  Node randomness comes
from the run's lane-space pool (:attr:`ColumnarStepper.streams
<repro.simulation.columnar.ColumnarStepper.streams>`), whose lane ``i``
is the very stream ``network.rngs`` gives lane ``i``'s node: coin flips
and identifiers are one vector draw over the drawing lanes, and each
stream advances exactly as the reference's per-node draw would.
Selection helpers (:func:`~repro.core.rounding._choose_requests`,
:func:`~repro.core.udg._pick`) are called verbatim rather than
re-implemented, with the lane's own ``Generator``
(``streams.generator(lane)``), taken only on lanes whose selection
draws.  Float reductions follow the reference's exact operand
order; where a stepper adds a masked ``+0.0`` in place of the
reference's *skip*, a comment states why the accumulator can never be
``-0.0`` (the one case where ``+ 0.0`` is not an identity).

Steppers seed every array the generator body reads from process state
(``PatchNode.promoted`` / ``iterations``, ``JRSNode.member`` /
``phases``), so a run on processes an earlier run left behind replays
the reference too.

A factory may return ``None`` to decline a run it cannot replay
exactly (heterogeneous per-lane parameters that never occur via the
stock programs, sensing subclasses with bespoke semantics, injector
mixes a stepper does not model); the runner then falls back to the
per-node generator loop.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.baselines.jrs import (JRSNode, JrsCandMsg, JrsFallbackMsg,
                                 JrsHoodMaxMsg, JrsJoinMsg, JrsSpanMsg,
                                 JrsStateMsg, JrsSupportMsg)
from repro.core.fractional import (_COLOR_WHITE, DualShareMsg,
                                   FractionalNode, XUpdateMsg)
from repro.core.rounding import (MembershipMsg, ReqMsg, RoundingNode,
                                 _choose_requests, rounding_probability)
from repro.core.udg import (_MAX_SAMPLED_ID, AdoptMsg, DeficitMsg,
                            ElectionMsg, ElectMsg, LeaderStatusMsg, UDGNode,
                            _id_ranges, _id_space, _pick, theta_schedule)
from repro.dynamics.repair import (AdoptMsg as PatchAdoptMsg, HelpMsg,
                                   LeaderAnnounceMsg, PatchNode)
from repro.engine import kernels
from repro.errors import GraphError
from repro.simulation.columnar import (ColumnarStepper, MessagePlan,
                                       RoundTraffic, inbox_reduce, plan_for,
                                       register_stepper, take)

__all__ = [
    "FractionalStepper",
    "JRSStepper",
    "PatchStepper",
    "RoundingStepper",
    "UDGStepper",
]


def _float_pow_table(bases: np.ndarray, expo: float,
                     post=lambda v: v) -> np.ndarray:
    """``post(bases ** expo)`` evaluated per *distinct* base with
    Python-float arithmetic — the exact expressions the per-node
    reference computes — then broadcast back to lanes.  Avoids any
    vectorized-pow ulp risk."""
    ubase, inv = np.unique(bases, return_inverse=True)
    vals = np.fromiter((post(float(b) ** expo) for b in ubase),
                       dtype=np.float64, count=ubase.size)
    return vals[inv]


def _same(values) -> bool:
    it = iter(values)
    try:
        first = next(it)
    except StopIteration:
        return True
    return all(v == first for v in it)


def _pick_lane(stepper: ColumnarStepper, lane: int, candidates: List,
               need: int, policy: str) -> List:
    """:func:`~repro.core.udg._pick` for one lane, taking the lane's
    ``Generator`` only when the pick draws (``random`` among more than
    ``need`` candidates; every other pick ignores its ``rng``)."""
    draws = policy == "random" and need < len(candidates)
    rng = stepper.streams.generator(lane) if draws else None
    return _pick(rng, candidates, need, policy)


# ======================================================================
# Algorithm 1 — FractionalNode
# ======================================================================

@register_stepper(FractionalNode)
def _fractional_factory(network, injectors):
    procs = network.processes.values()
    if not _same((p.t, p.compute_duals, p.w_max, p.w_min) for p in procs):
        return None
    return FractionalStepper(network, plan_for(network))


class FractionalStepper(ColumnarStepper):
    """Algorithm 1's ``2 t^2`` (+1 with duals) rounds, lane-batched.

    Advance ``2j`` / ``2j+1`` maps to inner iteration ``j``
    (``p = t-1-j//t``, ``q = t-1-j%t``): even advances process the
    previous ColorMsg round and broadcast XUpdateMsg; odd advances
    process XUpdateMsg (the coverage/dual accounting) and broadcast
    ColorMsg.  Advance ``2t^2`` processes the last ColorMsg and either
    finishes or unicasts DualShareMsg; advance ``2t^2+1`` assembles
    ``z``.

    Exactness notes (vs the generator body, which skips zero terms):

    - ``c_plus`` is ``inbox_reduce`` with ``init = x_plus`` — me-first
      then senders ascending, the reference's closed-neighborhood order;
    - ``alpha``/``beta``/``c``/``x`` accumulate only non-negative terms
      from ``0.0``, so they are never ``-0.0`` and the masked ``+0.0``
      adds are bit-exact no-ops, matching the reference's skips;
    - each dual share ``alpha*y - beta`` subtracts two non-negative
      finite floats, which never rounds to ``-0.0``, so the ``z``
      partial sums stay ``-0.0``-free and their masked adds are exact;
    - the white-set views are per-edge monotone bits whose integer
      counts equal ``len(white_set)`` in any summation order.
    """

    def __init__(self, network, plan: MessagePlan):
        super().__init__(network, plan)
        n = plan.n
        procs = self.procs
        p0 = procs[0]
        self.t = p0.t
        self.compute_duals = p0.compute_duals
        self.k_i = np.fromiter((p.k_i for p in procs), np.float64, n)
        self.w = np.fromiter((p.weight for p in procs), np.float64, n)
        base = np.fromiter((p.delta + 1.0 for p in procs), np.float64, n)
        self.base = base
        w_ratio = p0.w_max / p0.w_min
        self.big_e = np.fromiter((float(b) * w_ratio for b in base),
                                 np.float64, n)
        self.w_max = p0.w_max

        self.live = np.ones(n, dtype=bool)
        self.started = np.zeros(n, dtype=bool)
        self.x = np.zeros(n)
        self.c = np.zeros(n)
        self.y = np.zeros(n)
        self.z = np.zeros(n)
        self.white = np.ones(n, dtype=bool)
        self.dyn = plan.deg.astype(np.float64) + 1.0   # |closed N(v)|
        self.x_plus = np.zeros(n)
        self.gray_sent = np.zeros(n, dtype=bool)
        self.wrote_x = np.zeros(n, dtype=bool)
        self.wrote_z = np.zeros(n, dtype=bool)
        # White-set views: one bit per receiver-major edge plus the self
        # bit (gray is monotone, the bits only ever clear).
        E = plan.E
        self.W_e = np.ones(E, dtype=bool)
        self.W_self = np.ones(n, dtype=bool)
        # alpha/beta edge shares live on the receiver-major edge set
        # (row i, senders ascending == the reference's closed order).
        self.alpha_e = np.zeros(E)
        self.beta_e = np.zeros(E)
        self.alpha_self = np.zeros(n)
        self.beta_self = np.zeros(n)
        self._dual_vals: Optional[np.ndarray] = None
        self._pow_cache: Dict[Tuple[str, int], np.ndarray] = {}

    def _pow(self, kind: str, e: int) -> np.ndarray:
        out = self._pow_cache.get((kind, e))
        if out is None:
            if kind == "thr":
                out = _float_pow_table(self.base, e / self.t)
            elif kind == "raise":
                out = _float_pow_table(self.big_e, e / self.t,
                                       post=lambda v: v / self.w_max)
            else:  # "inc"
                out = _float_pow_table(self.base, e / self.t,
                                       post=lambda v: 1.0 / v)
            self._pow_cache[(kind, e)] = out
        return out

    def crash(self, lane: int) -> None:
        self.live[lane] = False

    def _broadcast(self, sample) -> RoundTraffic:
        plan, live = self.plan, self.live
        alive0 = None if live.all() else live[plan.esrc]
        return RoundTraffic(sample, plan.esrc, plan.edst, alive0)

    def _mask_r(self, alive_prev) -> np.ndarray:
        if alive_prev is None:
            return np.zeros(self.plan.E, dtype=bool)
        return self.plan.to_receiver(alive_prev)

    def _process_color(self, mask_r: np.ndarray) -> None:
        # The reference's ColorMsg block: shrink the white views, then
        # dyn = |white closed neighborhood| (its empty-set 0.0 branch is
        # what the monotone counts converge to without the branch).
        plan, live = self.plan, self.live
        self.W_e &= ~(mask_r & self.gray_sent[plan.rsrc] & live[plan.rdst])
        self.W_self[live] &= self.white[live]
        counts = (np.bincount(plan.rdst[self.W_e], minlength=plan.n)
                  + self.W_self).astype(np.float64)
        self.dyn[live] = counts[live]

    def _process_xupdate(self, mask_r: np.ndarray, p: int) -> None:
        plan, live = self.plan, self.live
        rsrc, rdst = plan.rsrc, plan.rdst
        xp_e = take(self.x_plus, rsrc)
        c_plus = inbox_reduce(plan.rindptr, xp_e, mask_r, self.x_plus)
        proc = self.white & live
        thr = self._pow("thr", p)
        lam = np.ones(plan.n)
        sel = proc & (c_plus > 0)
        lam[sel] = np.minimum(
            1.0, np.maximum(0.0, (self.k_i[sel] - self.c[sel]) / c_plus[sel]))
        # Dual shares: share = lam * x_plus per (row, sender) pair, each
        # touched once per round; gated-out terms add +0.0 to the
        # non-negative accumulators — exactly the reference's skip.
        gate_e = mask_r & proc[rdst]
        share_e = np.where(gate_e, take(lam, rdst) * xp_e, 0.0)
        self.alpha_e += share_e
        self.beta_e += np.where(gate_e, share_e / take(thr, rdst), 0.0)
        share_s = np.where(proc, lam * self.x_plus, 0.0)
        self.alpha_self += share_s
        self.beta_self += np.where(proc, share_s / thr, 0.0)
        self.c[proc] += c_plus[proc]
        newly = proc & (self.c >= self.k_i)
        self.y[newly] = 1.0 / thr[newly]
        self.white[newly] = False
        self.gray_sent = ~self.white

    def advance(self, round_index: int, alive_prev):
        plan, live, t = self.plan, self.live, self.t
        last = 2 * t * t

        if round_index == 0:
            self.started |= live

        if round_index < last and round_index % 2 == 0:
            # ColorMsg processing (iteration j-1), then the raise step
            # and XUpdateMsg broadcast of iteration j.
            if round_index > 0:
                self._process_color(self._mask_r(alive_prev))
            j = round_index // 2
            raising = (live & (self.x < 1.0)
                       & (self.dyn >= self._pow("raise", t - 1 - j // t)
                          * self.w))
            self.x_plus = np.where(
                raising,
                np.minimum(self._pow("inc", t - 1 - j % t), 1.0 - self.x),
                0.0)
            self.x = self.x + self.x_plus
            return self._broadcast(XUpdateMsg()), ()

        if round_index < last:
            # XUpdateMsg processing + ColorMsg broadcast of iteration j.
            j = round_index // 2
            self._process_xupdate(self._mask_r(alive_prev), t - 1 - j // t)
            return self._broadcast(_COLOR_WHITE), ()

        if round_index == last:
            # Last ColorMsg processing; then ``self.x = x`` and either
            # termination or the DualShareMsg unicast exchange.
            self._process_color(self._mask_r(alive_prev))
            self.wrote_x |= live
            if not self.compute_duals:
                return None, np.nonzero(live)[0].tolist()
            # Enqueue order (sender lane asc, dest asc) == the
            # receiver-major edge order keyed (row, sender): row i's
            # edge (j -> i) carries i's share alpha_i[j]*y_i - beta_i[j]
            # back to j.
            self._dual_vals = (self.alpha_e * take(self.y, plan.rdst)
                               - self.beta_e)
            alive0 = None if live.all() else live[plan.rdst]
            return RoundTraffic(DualShareMsg(), plan.rdst, plan.rsrc,
                                alive0), ()

        # Dual assembly: z = own + left-to-right sum of delivered shares
        # in sender order.  Dual-receiver-major order == the plan's
        # sender-major order, reached by undoing ``rperm``.
        vals_sm = np.empty(plan.E)
        mask_sm = np.zeros(plan.E, dtype=bool)
        vals_sm[plan.rperm] = self._dual_vals
        if alive_prev is not None:
            mask_sm[plan.rperm] = alive_prev
        s = inbox_reduce(plan.indptr, vals_sm, mask_sm, np.zeros(plan.n))
        z = (self.alpha_self * self.y - self.beta_self) + s
        self.z[live] = z[live]
        self.wrote_z |= live
        return None, np.nonzero(live)[0].tolist()

    def finalize(self) -> None:
        plan = self.plan
        nodes = plan.nodes
        rindptr = plan.rindptr.tolist()
        # Bulk ndarray -> Python-float conversion once (``tolist`` yields
        # the same floats as per-element ``float()``), then dict-building
        # per lane with zero per-edge numpy indexing.
        xs, ys, zs = self.x.tolist(), self.y.tolist(), self.z.tolist()
        a_self, b_self = self.alpha_self.tolist(), self.beta_self.tolist()
        a_e, b_e = self.alpha_e.tolist(), self.beta_e.tolist()
        senders = [nodes[s] for s in plan.rsrc.tolist()]
        for i, proc in enumerate(self.procs):
            if not self.started[i]:
                continue
            if self.wrote_x[i]:
                proc.x = xs[i]
            proc.y = ys[i]
            if self.wrote_z[i]:
                proc.z = zs[i]
            lo, hi = rindptr[i], rindptr[i + 1]
            alpha = {nodes[i]: a_self[i]}
            alpha.update(zip(senders[lo:hi], a_e[lo:hi]))
            beta = {nodes[i]: b_self[i]}
            beta.update(zip(senders[lo:hi], b_e[lo:hi]))
            proc.alpha = alpha
            proc.beta = beta


# ======================================================================
# Algorithm 2 — RoundingNode
# ======================================================================

@register_stepper(RoundingNode)
def _rounding_factory(network, injectors):
    return RoundingStepper(network, plan_for(network))


class RoundingStepper(ColumnarStepper):
    """Algorithm 2's two exchanges, lane-batched.

    The coin flips are one ``streams.random`` draw over the live lanes;
    a REQ-target selection is the reference's own ``_choose_requests``
    on the lane's ``Generator``, taken only when the selection may draw.
    """

    def __init__(self, network, plan: MessagePlan):
        super().__init__(network, plan)
        n = plan.n
        self.live = np.ones(n, dtype=bool)
        self.member = np.zeros(n, dtype=bool)
        self.member_sent = np.zeros(n, dtype=bool)
        self._req_edst: Optional[np.ndarray] = None

    def crash(self, lane: int) -> None:
        self.live[lane] = False

    def advance(self, round_index: int, alive_prev):
        plan, live = self.plan, self.live

        if round_index == 0:
            lanes = np.flatnonzero(live)
            procs = self.procs
            probs = np.fromiter(
                (rounding_probability(procs[i].x[procs[i].node_id],
                                      procs[i].delta)
                 for i in lanes.tolist()),
                dtype=np.float64, count=lanes.size)
            self.member[lanes] = self.streams.random(lanes) < probs
            self.member_sent = self.member.copy()
            alive0 = None if live.all() else live[plan.esrc]
            return RoundTraffic(MembershipMsg(), plan.esrc, plan.edst,
                                alive0), ()

        if round_index == 1:
            mask_r = (np.zeros(plan.E, dtype=bool) if alive_prev is None
                      else plan.to_receiver(alive_prev))
            # A closed neighbor counts as member iff its announcement
            # arrived and said so (member_of.get(w, False)).
            heard_member = mask_r & self.member_sent[plan.rsrc]
            have = (np.bincount(plan.rdst[heard_member], minlength=plan.n)
                    + self.member.astype(np.int64))
            esrc: List[int] = []
            edst: List[int] = []
            rindptr, rsrc, nodes = plan.rindptr, plan.rsrc, plan.nodes
            for i in np.nonzero(live)[0]:
                proc = self.procs[i]
                need = proc.k_i - int(have[i])
                if need <= 0:
                    continue
                me = nodes[i]
                row = slice(rindptr[i], rindptr[i + 1])
                candidates = ([] if self.member[i] else [me]) + \
                    [nodes[s] for s, hm in zip(rsrc[row], heard_member[row])
                     if not hm]
                # Only "highest-x" never draws, and no selection draws
                # when it takes every candidate.
                draws = proc.policy != "highest-x" and need < len(candidates)
                rng = self.streams.generator(int(i)) if draws else None
                for w in _choose_requests(rng, me, candidates,
                                          proc.x, need, proc.policy):
                    if w == me:
                        self.member[i] = True
                    else:
                        esrc.append(i)
                        edst.append(plan.lane_of[w])
            if not esrc:
                self._req_edst = None
                return None, ()
            self._req_edst = np.asarray(edst, dtype=np.int64)
            return RoundTraffic(ReqMsg(), np.asarray(esrc, dtype=np.int64),
                                self._req_edst), ()

        # Round 2: any delivered REQ forces membership; everyone stops.
        if alive_prev is not None and self._req_edst is not None:
            got = np.zeros(plan.n, dtype=bool)
            got[self._req_edst[alive_prev]] = True
            self.member[live & got] = True
        return None, np.nonzero(live)[0].tolist()

    def finalize(self) -> None:
        for i, proc in enumerate(self.procs):
            proc.member = bool(self.member[i])


# ======================================================================
# Algorithm 3 — UDGNode
# ======================================================================

@register_stepper(UDGNode)
def _udg_factory(network, injectors):
    sensing = network._sensing
    if sensing is None or not kernels.supports_kernel_election(sensing):
        return None
    procs = network.processes.values()
    if not _same((p.k, p.n, p.policy, p.part2_sync_iterations)
                 for p in procs):
        return None
    plan = plan_for(network)
    if plan.nodes != list(range(plan.n)):
        return None
    return UDGStepper(network, plan, sensing)


class _Frontier(NamedTuple):
    """The live lanes' slice of a :class:`MessagePlan` (see
    :meth:`UDGStepper._frontier`)."""

    lanes: np.ndarray   # live lanes, ascending
    rows: np.ndarray    # their receiver-major edge ids, inbox order
    seg: np.ndarray     # position in ``lanes`` of each ``rows`` entry
    sent: np.ndarray    # sender-major edge ids of their broadcasts
    esrc: np.ndarray    # ``plan.esrc[sent]``
    edst: np.ndarray    # ``plan.edst[sent]``


class UDGStepper(ColumnarStepper):
    """Algorithm 3 (Parts I and II), lane-batched.

    Part I (advances ``0 .. 2R-1``, two per theta): the active lanes
    draw their identifiers as one masked vector draw, the within-theta
    fan-out comes from the distance CSR
    (:func:`~repro.engine.kernels.udg_distance_csr`, whose per-row order
    is the ``neighbors_within`` enqueue order), and the election is a
    two-pass lexicographic scatter-max (the argmax of
    :func:`~repro.engine.kernels.elect_round_batch`) restricted to
    *delivered* edges (an empty inbox leaves the incumbent ``(my_id,
    me)`` — self-election, exactly the reference).  Advance ``2R``
    processes the last token round, fixes ``leader``, and starts Part
    II.

    Part II repeats 3-advance iterations; a lane whose done-predicate
    holds finishes at the iteration's first advance, before sending.
    Views (``leader_of`` / ``deficient_of``) are per-receiver-major-edge
    cells updated only on delivery, so stale views under loss match the
    reference's dict semantics.  Part II works on the live frontier
    (:meth:`_frontier`): broadcasts emit only the live senders' edges,
    in enqueue order — the edges a full broadcast masked by the live
    senders would leave, which is all the injectors ever see — and
    views and deficiency are updated over the live lanes' rows only.
    Under loss a few leaders stay live for most of Part II's iteration
    cap, so no round pays for the whole edge set.
    """

    def __init__(self, network, plan: MessagePlan, udg):
        super().__init__(network, plan)
        n = plan.n
        p0 = self.procs[0]
        self.k = p0.k
        self.policy = p0.policy
        self.iters = p0.part2_sync_iterations
        self.schedule = theta_schedule(p0.n, network.radius)
        self.id_hi = min(_id_space(p0.n), _MAX_SAMPLED_ID)
        self.bounded_ranges = _id_ranges(p0.n)
        _, self.d_src, self.d_nbr, self.d_dist = kernels.udg_distance_csr(udg)
        self.live = np.ones(n, dtype=bool)
        self.active = np.ones(n, dtype=bool)
        self.ids = np.zeros(n, dtype=np.int64)
        self.elected_self = np.zeros(n, dtype=bool)
        self.leader = np.zeros(n, dtype=bool)
        self.wrote_leader = np.zeros(n, dtype=bool)
        self.my_def = np.zeros(n, dtype=bool)
        self.Lview = np.zeros(plan.E, dtype=bool)
        self.Dview = np.zeros(plan.E, dtype=bool)
        self.leader_sent = np.zeros(n, dtype=bool)
        self.def_sent = np.zeros(n, dtype=bool)
        self.lane_idx = np.arange(n, dtype=np.int64)
        self._edges: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._front: Optional[_Frontier] = None
        self._sent: Optional[np.ndarray] = None

    def crash(self, lane: int) -> None:
        self.live[lane] = False

    # -- shared pieces -------------------------------------------------
    def _frontier(self) -> _Frontier:
        """The live lanes' rows and fan-out, rebuilt whenever the live
        count changes (``live`` only shrinks, so an equal count is an
        equal set)."""
        live = self.live
        count = int(np.count_nonzero(live))
        front = self._front
        if front is None or front.lanes.size != count:
            plan = self.plan
            rows = np.flatnonzero(live[plan.rdst])
            sent = np.flatnonzero(live[plan.esrc])
            seg = (np.cumsum(live) - 1)[plan.rdst[rows]]
            front = self._front = _Frontier(
                np.flatnonzero(live), rows, seg, sent,
                plan.esrc[sent], plan.edst[sent])
        return front

    def _delivered_to(self, alive_prev) -> np.ndarray:
        """Receivers of at least one delivered unicast from the last
        dynamic (non-broadcast) traffic this stepper emitted."""
        got = np.zeros(self.plan.n, dtype=bool)
        if alive_prev is not None and self._edges is not None:
            got[self._edges[1][alive_prev]] = True
        return got

    def _broadcast(self, sample) -> RoundTraffic:
        front = self._frontier()
        self._edges = None
        self._sent = front.sent
        return RoundTraffic(sample, front.esrc, front.edst)

    def _process_token(self, alive_prev) -> None:
        got = self._delivered_to(alive_prev)
        upd = self.active & self.live
        self.active[upd] &= got[upd] | self.elected_self[upd]

    def _update_views(self, view: np.ndarray, sent: np.ndarray,
                      alive_prev) -> None:
        """Record the last broadcast's delivered values in their
        receivers' view cells.  (Cells of lanes that have left ``live``
        since are written too; nothing reads them again.)"""
        if alive_prev is None:
            return
        plan = self.plan
        pos = plan.rpos[self._sent[alive_prev]]
        view[pos] = sent[plan.rsrc[pos]]

    def _refresh_deficiency(self) -> None:
        front = self._frontier()
        lanes = front.lanes
        lead = self.leader[lanes]
        cov = np.bincount(front.seg[self.Lview[front.rows]],
                          minlength=lanes.size) + lead
        self.my_def[lanes] = ~lead & (cov < self.k)

    # -- the round map -------------------------------------------------
    def advance(self, round_index: int, alive_prev):
        plan, live = self.plan, self.live
        R = len(self.schedule)
        a0 = 2 * R

        if round_index < a0 and round_index % 2 == 0:
            # Token processing of the previous theta, then identifier
            # draw + within-theta ElectionMsg multicast.
            if round_index > 0:
                self._process_token(alive_prev)
            sending = self.active & live
            self.streams.draw_ints_masked(sending, self.id_hi, out=self.ids)
            theta = self.schedule[round_index // 2]
            sel = (self.d_dist <= theta) & sending[self.d_src]
            esrc, edst = self.d_src[sel], self.d_nbr[sel]
            self._edges = (esrc, edst)
            return RoundTraffic(ElectionMsg(), esrc, edst), ()

        if round_index < a0:
            # Election: max (id, node) over the incumbent self and the
            # delivered candidates; non-self-elected send the token.
            procm = self.active & live
            best_id = np.where(procm, self.ids, -1)
            if alive_prev is not None and self._edges is not None:
                s, d = self._edges
                s, d = s[alive_prev], d[alive_prev]
                np.maximum.at(best_id, d, self.ids[s])
                best_node = np.where(procm & (self.ids == best_id),
                                     self.lane_idx, -1)
                tie = self.ids[s] == best_id[d]
                np.maximum.at(best_node, d[tie], s[tie])
            else:
                best_node = np.where(procm, self.lane_idx, -1)
            self.elected_self = procm & (best_node == self.lane_idx)
            senders = procm & ~self.elected_self
            esrc = self.lane_idx[senders]
            edst = best_node[senders]
            self._edges = (esrc, edst)
            return RoundTraffic(ElectMsg(), esrc, edst), ()

        if round_index == a0:
            # Last token processing; Part I verdict; Part II begins.
            self._process_token(alive_prev)
            self.leader[live] = self.active[live]
            self.wrote_leader |= live
            self.leader_sent = self.leader.copy()
            return self._broadcast(LeaderStatusMsg()), ()

        if round_index == a0 + 1:
            self._update_views(self.Lview, self.leader_sent, alive_prev)
            self._refresh_deficiency()
            self.def_sent = self.my_def.copy()
            return self._broadcast(DeficitMsg()), ()

        phase = (round_index - a0 - 2) % 3
        if phase == 0:
            # DeficitMsg processing, the done check, adoption picks.
            self._update_views(self.Dview, self.def_sent, alive_prev)
            m = (round_index - a0 - 2) // 3
            if m == self.iters:
                # The reference's for-loop is exhausted: StopIteration.
                return None, np.flatnonzero(live).tolist()
            front = self._frontier()
            lanes = front.lanes
            any_def = np.bincount(front.seg[self.Dview[front.rows]],
                                  minlength=lanes.size) > 0
            lead = self.leader[lanes]
            done = ~self.my_def[lanes] & (~lead | ~any_def)
            finished = lanes[done].tolist()
            live[lanes[done]] = False
            esrc: List[int] = []
            edst: List[int] = []
            rindptr, rsrc, Dview = plan.rindptr, plan.rsrc, self.Dview
            for i in lanes[lead & ~done].tolist():
                lo, hi = rindptr[i], rindptr[i + 1]
                candidates = sorted(([i] if self.my_def[i] else [])
                                    + rsrc[lo:hi][Dview[lo:hi]].tolist())
                for u in _pick_lane(self, i, candidates, self.k,
                                    self.policy):
                    if u == i:
                        self.my_def[i] = False
                    else:
                        esrc.append(i)
                        edst.append(u)
            e = (np.asarray(esrc, dtype=np.int64),
                 np.asarray(edst, dtype=np.int64))
            self._edges = e
            return RoundTraffic(AdoptMsg(), e[0], e[1]), finished

        if phase == 1:
            # Adoption; leader-status refresh broadcast.
            got = self._delivered_to(alive_prev)
            adopted = live & ~self.leader & got
            self.leader[adopted] = True
            self.my_def[adopted] = False
            self.leader_sent = self.leader.copy()
            return self._broadcast(LeaderStatusMsg()), ()

        # phase == 2: status processing; deficiency refresh broadcast.
        self._update_views(self.Lview, self.leader_sent, alive_prev)
        self._refresh_deficiency()
        self.def_sent = self.my_def.copy()
        return self._broadcast(DeficitMsg()), ()

    def finalize(self) -> None:
        for i, proc in enumerate(self.procs):
            if self.wrote_leader[i]:
                proc.leader = bool(self.leader[i])


# ======================================================================
# Repair patch protocol — PatchNode
# ======================================================================

@register_stepper(PatchNode)
def _patch_factory(network, injectors):
    procs = network.processes.values()
    if not _same((p.k, p.policy, p.patience, p.max_iterations)
                 for p in procs):
        return None
    if any(p.max_iterations < 1 for p in procs):
        return None
    return PatchStepper(network, plan_for(network))


class PatchStepper(ColumnarStepper):
    """The repair patch protocol, lane-batched: three advances per
    iteration (help broadcasts / adoption picks / promotion +
    announcements), exactly :meth:`PatchNode.run`'s shape.

    A lane's generator finishes only at an iteration's *first* advance
    — after announcement processing — by retirement (member idle past
    patience, client healed) or by loop exhaustion; ``member`` /
    ``deficit`` are written back only for those normally-finished
    lanes (crashed lanes keep their constructor attributes), while
    ``promoted`` / ``iterations`` / ``member_neighbors`` mirror the
    reference's in-run attribute mutations — seeded from the processes,
    which the reference only ever adds to — and are written for every
    lane.  Adoption picks call :func:`~repro.core.udg._pick` verbatim
    with the delivered help senders in inbox (sender-ascending) order,
    on the lane's own stream.
    """

    def __init__(self, network, plan: MessagePlan):
        super().__init__(network, plan)
        n = plan.n
        p0 = self.procs[0]
        self.k = p0.k
        self.policy = p0.policy
        self.patience = p0.patience
        self.max_iterations = p0.max_iterations
        self.live = np.ones(n, dtype=bool)
        self.member = np.fromiter((p.member for p in self.procs), bool, n)
        # The generator's local: members run with deficit 0.
        self.deficit = np.fromiter(
            (0 if p.member else p.deficit for p in self.procs), np.int64, n)
        self.has_mn = np.fromiter((bool(p.member_neighbors)
                                   for p in self.procs), bool, n)
        self.waited = np.zeros(n, dtype=np.int64)
        self.idle = np.zeros(n, dtype=np.int64)
        self.heard = np.zeros(n, dtype=bool)
        self.promote = np.zeros(n, dtype=bool)
        self.promoted = np.fromiter((p.promoted for p in self.procs),
                                    bool, n)
        self.iterations = np.fromiter((p.iterations for p in self.procs),
                                      np.int64, n)
        self.finished_ok = np.zeros(n, dtype=bool)
        # Per-receiver-major-edge bit: an announcement from this sender
        # arrived at some point (feeds ``member_neighbors``).
        self.ann_r = np.zeros(plan.E, dtype=bool)
        self._edges: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def crash(self, lane: int) -> None:
        self.live[lane] = False

    def _mask_r(self, alive_prev) -> np.ndarray:
        if alive_prev is None:
            return np.zeros(self.plan.E, dtype=bool)
        return self.plan.to_receiver(alive_prev)

    def advance(self, round_index: int, alive_prev):
        plan, live = self.plan, self.live
        phase = round_index % 3

        if phase == 0:
            # Announcement processing, retirement / exhaustion, then the
            # next iteration's help broadcasts.
            finished: List[int] = []
            if round_index > 0:
                upd = self._mask_r(alive_prev) & live[plan.rdst]
                self.ann_r |= upd
                cnt = np.bincount(plan.rdst[upd], minlength=plan.n)
                self.has_mn |= cnt > 0
                self.deficit[live] = np.maximum(
                    self.deficit[live] - cnt[live], 0)
                mem = live & self.member
                self.idle[mem] = np.where(self.heard[mem], 0,
                                          self.idle[mem] + 1)
                done = (mem & (self.idle > self.patience)) | \
                    (live & ~self.member & (self.deficit <= 0))
                if round_index // 3 == self.max_iterations:
                    done = live  # the reference's for-loop is exhausted
                finished = np.nonzero(done)[0].tolist()
                self.finished_ok |= done
                live = self.live = live & ~done
            if not live.any():
                return None, finished
            self.iterations[live] += 1
            senders = live & (self.deficit > 0)
            self._edges = None
            return RoundTraffic(HelpMsg(), plan.esrc, plan.edst,
                                None if senders.all()
                                else senders[plan.esrc]), finished

        if phase == 1:
            # Adoption picks (members) + the deficient side's timeout
            # decision, recorded for the next advance.
            heard_e = self._mask_r(alive_prev) & live[plan.rdst]
            got_any = np.bincount(plan.rdst[heard_e], minlength=plan.n) > 0
            self.heard = live & self.member & got_any
            esrc: List[int] = []
            edst: List[int] = []
            rindptr, rsrc, nodes = plan.rindptr, plan.rsrc, plan.nodes
            for i in np.nonzero(self.heard)[0]:
                row = slice(rindptr[i], rindptr[i + 1])
                candidates = [nodes[s] for s in rsrc[row][heard_e[row]]]
                for u in _pick_lane(self, int(i), candidates, self.k,
                                    self.policy):
                    esrc.append(i)
                    edst.append(plan.lane_of[u])
            self.promote = (live & ~self.member & (self.deficit > 0)
                            & (~self.has_mn
                               | (self.waited >= self.patience)))
            e = (np.asarray(esrc, dtype=np.int64),
                 np.asarray(edst, dtype=np.int64))
            self._edges = e
            return RoundTraffic(PatchAdoptMsg(), e[0], e[1]), ()

        # phase == 2: promotion + announcements.
        got = np.zeros(plan.n, dtype=bool)
        if alive_prev is not None and self._edges is not None:
            got[self._edges[1][alive_prev]] = True
        client = live & ~self.member & (self.deficit > 0)
        newly = client & (got | self.promote)
        self.member[newly] = True
        self.deficit[newly] = 0
        self.promoted[newly] = True
        self.waited[client & ~newly] += 1
        self._edges = None
        return RoundTraffic(LeaderAnnounceMsg(), plan.esrc, plan.edst,
                            newly[plan.esrc]), ()

    def finalize(self) -> None:
        plan = self.plan
        nodes, rindptr, rsrc = plan.nodes, plan.rindptr, plan.rsrc
        for i, proc in enumerate(self.procs):
            proc.promoted = bool(self.promoted[i])
            proc.iterations = int(self.iterations[i])
            for e in range(rindptr[i], rindptr[i + 1]):
                if self.ann_r[e]:
                    proc.member_neighbors.add(nodes[rsrc[e]])
            if self.finished_ok[i]:
                proc.member = bool(self.member[i])
                proc.deficit = int(self.deficit[i])


# ======================================================================
# LRG baseline — JRSNode
# ======================================================================

@register_stepper(JRSNode)
def _jrs_factory(network, injectors):
    # The stepper exploits that with no injectors every broadcast from a
    # non-exited lane is delivered, so the last-known-state views are
    # the current state arrays (exited lanes' state is frozen — their
    # residual is 0 at exit and never changes).  Any injector (loss OR
    # crash) breaks that identity: fall back to the per-node loop.
    if injectors:
        return None
    procs = network.processes.values()
    if not _same((p.convention, p.max_phases) for p in procs):
        return None
    plan = plan_for(network)
    reprs = [repr(v) for v in plan.nodes]
    if len(set(reprs)) != plan.n:
        return None  # (span, repr(id)) ranking needs distinct reprs
    return JRSStepper(network, plan, reprs)


class JRSStepper(ColumnarStepper):
    """The LRG baseline's 7-round phases, lane-batched.

    Advance ``7p + s`` runs phase ``p``'s round ``s+1``; a lane exits
    (StopIteration) at ``s == 2`` when no residual demand is left
    within distance 2, and the convergence valve raises the reference's
    exact :class:`~repro.errors.GraphError` there.  The reference's
    ``(span, repr(id))`` / ``(best_span, repr(best_id))`` tuple maxima
    become integer maxima over packed keys ``span * n + repr_rank``
    (the factory guarantees distinct reprs); the coin flips at round 6
    are one ``streams.random`` draw over the candidate lanes, with the
    reference's own ``float(np.median(...))`` expression.
    ``support_of.get(u, 1)`` defaults are provably dead: a node with
    positive residual never exits and always sends its support.
    ``member`` and ``phases`` start from the processes' values, as the
    generator body's do.
    """

    def __init__(self, network, plan: MessagePlan, reprs: List[str]):
        super().__init__(network, plan)
        n = plan.n
        p0 = self.procs[0]
        self.convention = p0.convention
        self.max_phases = p0.max_phases
        self.live = np.ones(n, dtype=bool)
        self.member = np.fromiter((p.member for p in self.procs), bool, n)
        self.residual = np.fromiter((p.req for p in self.procs),
                                    np.int64, n)
        self.phases = np.fromiter((p.phases for p in self.procs),
                                  np.int64, n)
        order = sorted(range(n), key=reprs.__getitem__)
        self.rank = np.empty(n, dtype=np.int64)
        self.rank[order] = np.arange(n, dtype=np.int64)
        # Per-phase scratch.
        self.span = np.zeros(n, dtype=np.int64)
        self.any_res1 = np.zeros(n, dtype=bool)
        self.rounded = np.zeros(n, dtype=np.int64)
        self.hoodmax = np.zeros(n, dtype=np.int64)
        self.candidate = np.zeros(n, dtype=bool)
        self.support = np.zeros(n, dtype=np.int64)
        self.b1 = np.full(n, -1, dtype=np.int64)
        self.b2 = np.full(n, -1, dtype=np.int64)
        self.joined = np.zeros(n, dtype=bool)

    def crash(self, lane: int) -> None:  # pragma: no cover — no injectors
        self.live[lane] = False

    def _broadcast(self, sample) -> RoundTraffic:
        plan, live = self.plan, self.live
        alive0 = None if live.all() else live[plan.esrc]
        return RoundTraffic(sample, plan.esrc, plan.edst, alive0)

    def _apply_joins(self) -> None:
        plan, live = self.plan, self.live
        # ``joined_of`` at phase end is coin | fallback (round 6 sets,
        # round 7 ORs); both were folded into ``joined`` already.
        newly = self.joined & ~self.member
        res = self.residual
        me_new = newly & live
        # Closed order is me-first: own convention adjustment, then one
        # guarded decrement per freshly-joined neighbor (== floor at 0).
        if self.convention == "closed":
            res = np.where(me_new & (res > 0), res - 1, res)
        else:
            res = np.where(me_new, 0, res)
        cnt = np.bincount(plan.edst[newly[plan.esrc]], minlength=plan.n)
        self.residual = np.where(live, np.maximum(res - cnt, 0),
                                 self.residual)
        self.member = self.member | me_new

    def advance(self, round_index: int, alive_prev):
        plan, live = self.plan, self.live
        esrc, edst = plan.esrc, plan.edst
        n = plan.n
        sub = round_index % 7

        if sub == 0:
            if round_index > 0:
                self._apply_joins()
            return self._broadcast(JrsStateMsg()), ()

        if sub == 1:
            # Views == the state arrays themselves (see the factory).
            res_pos = self.residual > 0
            nbr_cnt = np.bincount(edst[res_pos[esrc]], minlength=n)
            extra = (res_pos.astype(np.int64)
                     if self.convention == "closed" else self.residual)
            self.span = np.where(self.member, 0, nbr_cnt + extra)
            self.any_res1 = res_pos | (nbr_cnt > 0)
            return self._broadcast(JrsSpanMsg()), ()

        if sub == 2:
            # Exit check on the 2-hop activity flag, then the 1-hop
            # rounded-span max.  Span/activity senders are the lanes
            # live *before* this advance's exits.
            sel = live[esrc]
            act2 = self.any_res1 | (np.bincount(
                edst[sel & self.any_res1[esrc]], minlength=n) > 0)
            exiting = live & ~act2
            finished = np.nonzero(exiting)[0].tolist()
            live = self.live = live & ~exiting
            self.phases[live] += 1
            if live.any() and int(self.phases[live].max()) > self.max_phases:
                raise GraphError(
                    f"LRG did not converge within {self.max_phases} phases"
                )
            v = self.span
            r = (v > 0).astype(np.int64)  # smallest power of two >= v
            while True:
                lt = r < v
                if not lt.any():
                    break
                r[lt] *= 2
            self.rounded = r
            hm = r.copy()
            np.maximum.at(hm, edst[sel], r[esrc[sel]])
            self.hoodmax = hm
            return self._broadcast(JrsHoodMaxMsg()), finished

        if sub == 3:
            sel = live[esrc]
            m2 = self.hoodmax.copy()
            np.maximum.at(m2, edst[sel], self.hoodmax[esrc[sel]])
            self.candidate = live & (self.rounded > 0) & (self.rounded >= m2)
            return self._broadcast(JrsCandMsg()), ()

        if sub == 4:
            sel = live[esrc]
            selc = sel & self.candidate[esrc]
            cand_cnt = (self.candidate.astype(np.int64)
                        + np.bincount(edst[selc], minlength=n))
            self.support = np.where(self.residual > 0, cand_cnt, 0)
            # Packed (span, repr-rank) key; -1 encodes "no candidate".
            packed = np.where(self.candidate, self.span * n + self.rank, -1)
            b1 = packed.copy()
            np.maximum.at(b1, edst[selc], packed[esrc[selc]])
            self.b1 = b1
            return self._broadcast(JrsSupportMsg()), ()

        if sub == 5:
            # best2: a sender relays its best1 key iff best_span > 0,
            # which is exactly b1 >= 0 (candidates have span > 0); -1
            # contributions are no-ops under max, matching the skip.
            sel = live[esrc]
            b2 = self.b1.copy()
            np.maximum.at(b2, edst[sel], self.b1[esrc[sel]])
            self.b2 = b2
            joined = np.zeros(n, dtype=bool)
            res_pos = self.residual > 0
            rindptr, rsrc = plan.rindptr, plan.rsrc
            cands = np.flatnonzero(live & self.candidate)
            probs = np.empty(cands.size)
            for j, i in enumerate(cands.tolist()):
                nbr = rsrc[rindptr[i]:rindptr[i + 1]]
                sup = ([int(self.support[i])] if res_pos[i] else []) + \
                    [int(s) for s in self.support[nbr[res_pos[nbr]]]]
                med = float(np.median(sup))
                probs[j] = 1.0 if med <= 1 else 1.0 / med
            if cands.size:
                joined[cands] = self.streams.random(cands) < probs
            self.joined = joined
            return self._broadcast(JrsJoinMsg()), ()

        # sub == 6: coin-join processing + the deterministic fallback.
        sel = live[esrc]
        any_join1 = self.joined | (np.bincount(
            edst[sel & self.joined[esrc]], minlength=n) > 0)
        fallback = (self.candidate & ~self.joined & ~any_join1
                    & (self.b2 == self.span * n + self.rank))
        self.joined = self.joined | fallback
        return self._broadcast(JrsFallbackMsg()), ()

    def finalize(self) -> None:
        for i, proc in enumerate(self.procs):
            proc.member = bool(self.member[i])
            proc.phases = int(self.phases[i])
