"""Algorithm 1 — Distributed LP Approximation (Section 4.1).

Computes a fractional solution of the covering LP ``(PP)`` in ``O(t^2)``
synchronous rounds, together with the dual bookkeeping (``y``, ``z``,
``alpha``, ``beta``) used by the paper's dual-fitting analysis.

The algorithm is written once as a
:class:`~repro.engine.program.RoundProgram` and executed by
:func:`repro.engine.execute` on any backend:

- ``mode="direct"`` — the round structure is simulated centrally with
  vectorized numpy (fast; use for large graphs and sweeps);
- ``mode="message"`` — every node runs as a real
  :class:`~repro.simulation.node.NodeProcess` exchanging
  ``O(log n)``-bit messages on the synchronous simulator (faithful; use to
  measure rounds/messages/bits);
- ``mode="async"`` / ``"async-beta"`` — the same node processes over an
  event-driven network with random link delays, kept round-synchronous by
  the alpha / beta synchronizer.

Algorithm 1 is deterministic, so all backends agree up to floating-point
summation order.

Guarantees (Theorem 4.5): the primal is (PP)-feasible, the run takes
``2 t^2`` communication rounds (+1 round to assemble the dual ``z`` when
``compute_duals`` is on), and the objective is within
``t((Delta+1)^{2/t} + (Delta+1)^{1/t})`` of the LP optimum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

from repro.core.lp import CoveringLP
from repro.engine import (Instrumentation, Lanes, RoundProgram, execute,
                          validate_seed)
from repro.errors import GraphError, InfeasibleInstanceError
from repro.graphs.properties import as_nx
from repro.simulation.messages import Message
from repro.simulation.node import NodeProcess
from repro.types import CoverageMap, FractionalSolution, NodeId, RunStats


def theorem_45_ratio_bound(t: int, delta: int) -> float:
    """Theorem 4.5's approximation guarantee
    ``t * ((Delta+1)^{2/t} + (Delta+1)^{1/t})`` for Algorithm 1."""
    if t < 1:
        raise GraphError(f"t must be a positive integer, got {t}")
    base = delta + 1.0
    return t * (base ** (2.0 / t) + base ** (1.0 / t))


def lemma_44_dual_violation_bound(t: int, delta: int) -> float:
    """Lemma 4.4's bound ``t (Delta+1)^{1/t}`` on the factor by which the
    constructed dual violates (DP)."""
    if t < 1:
        raise GraphError(f"t must be a positive integer, got {t}")
    return t * (delta + 1.0) ** (1.0 / t)


def _resolve_instance(graph, k: int | None,
                      coverage: CoverageMap | None) -> CoveringLP:
    g = as_nx(graph)
    if coverage is None:
        if k is None:
            raise GraphError("give either k (uniform) or a coverage map")
        coverage = {v: k for v in g.nodes}
    lp = CoveringLP(g, coverage)
    witness = lp.infeasible_witness()
    if witness is not None:
        raise InfeasibleInstanceError(
            f"(PP) is infeasible: node {witness!r} requires "
            f"{lp.coverage[witness]} covers but its closed neighborhood has "
            f"only {lp.graph.degree[witness] + 1} nodes; consider "
            "repro.graphs.feasible_coverage(graph, k)",
            witness=witness,
        )
    return lp


# ======================================================================
# Messages
# ======================================================================

@dataclass(frozen=True)
class XUpdateMsg(Message):
    """Line 9: ``send x_i, x_i^+, delta~_i to all neighbors``."""
    x: float = 0.0
    x_plus: float = 0.0
    dyn: float = 0.0
    SCHEMA = (("x", "value"), ("x_plus", "value"), ("dyn", "count"))


@dataclass(frozen=True)
class ColorMsg(Message):
    """Line 23: ``send col_i to all neighbors``."""
    gray: bool = False
    SCHEMA = (("gray", "flag"),)


#: The two possible color announcements, interned: frozen messages are
#: value objects, so every node shares these instances instead of
#: constructing one per broadcast.
_COLOR_WHITE = ColorMsg(gray=False)
_COLOR_GRAY = ColorMsg(gray=True)


@dataclass(frozen=True)
class DualShareMsg(Message):
    """Final exchange for Line 27: the neighbor's share
    ``alpha_{i,j} * y_j - beta_{i,j}`` of node i's ``z_i``."""
    value: float = 0.0
    SCHEMA = (("value", "value"),)


class FractionalNode(NodeProcess):
    """Per-node process implementing Algorithm 1 verbatim."""

    def __init__(self, node_id: NodeId, k_i: int, delta: int, t: int,
                 compute_duals: bool, weight: float = 1.0,
                 w_max: float = 1.0, w_min: float = 1.0):
        super().__init__(node_id)
        self.k_i = float(k_i)
        self.delta = delta
        self.t = t
        self.compute_duals = compute_duals
        self.weight = float(weight)
        self.w_max = float(w_max)
        self.w_min = float(w_min)
        # Final state, read by the driver after the run:
        self.x = 0.0
        self.y = 0.0
        self.z = 0.0
        self.alpha: Dict[NodeId, float] = {}
        self.beta: Dict[NodeId, float] = {}

    def run(self, ctx) -> Iterator[None]:
        me = self.node_id
        nbrs = ctx.neighbors
        closed = (me,) + tuple(nbrs)
        base = self.delta + 1.0
        t = self.t

        x = 0.0
        c = 0.0
        white = True
        dyn = float(len(closed))
        big_e = base * (self.w_max / self.w_min)
        duals = self.compute_duals
        if duals:
            # The dual bookkeeping (Lines 12-16's alpha/beta shares) is
            # analysis-only: without compute_duals the rows stay empty.
            self.alpha = {j: 0.0 for j in closed}
            self.beta = {j: 0.0 for j in closed}
        # Members of the closed neighborhood still white.  Gray is
        # monotone (a covered node never reverts), so tracking the
        # shrinking white set replaces re-summing a color map; under
        # loss, a missed ColorMsg just leaves the sender in the set —
        # the same stale view the color map kept.
        white_set = set(closed)
        # Hot-loop locals (this generator body runs 2 t^2 times per node).
        broadcast = ctx.broadcast
        discard = white_set.discard
        alpha, beta = self.alpha, self.beta
        k_i, weight = self.k_i, self.weight

        for p in range(t - 1, -1, -1):
            thr = base ** (p / t)                  # dual threshold
            thr_raise = big_e ** (p / t) / self.w_max
            for q in range(t - 1, -1, -1):
                inc = 1.0 / (base ** (q / t))
                x_plus = 0.0
                if x < 1.0 and dyn >= thr_raise * weight:
                    x_plus = min(inc, 1.0 - x)
                    x += x_plus
                broadcast(XUpdateMsg(x=x, x_plus=x_plus, dyn=dyn))
                inbox = yield

                if white:
                    # The inbox is sender-sorted (delivery-order contract)
                    # and ``closed`` is me followed by the id-sorted
                    # neighbors, so summing me-then-inbox reproduces the
                    # closed-neighborhood summation order exactly; senders
                    # absent under loss would contribute +0.0 terms, and
                    # zero shares are skipped below — adding +0.0 to the
                    # non-negative alpha/beta accumulators is an exact
                    # no-op, so the skips are bit-identical.
                    c_plus = x_plus
                    for _, msg in inbox:
                        c_plus += msg.x_plus
                    if not duals:
                        lam = 0.0  # lam only weights the dual shares
                    elif c_plus > 0:
                        lam = min(1.0, max(0.0, (k_i - c) / c_plus))
                    else:
                        lam = 1.0
                    c += c_plus
                    if lam:
                        if x_plus:
                            share = lam * x_plus
                            beta[me] += share / thr
                            alpha[me] += share
                        for src, msg in inbox:
                            xp = msg.x_plus
                            if xp:
                                share = lam * xp
                                beta[src] += share / thr
                                alpha[src] += share
                    if c >= k_i:
                        white = False
                        self.y = 1.0 / thr
                broadcast(_COLOR_WHITE if white else _COLOR_GRAY)
                inbox = yield
                if white_set:
                    for src, msg in inbox:
                        if msg.gray:
                            discard(src)
                    if not white:
                        discard(me)
                    dyn = float(len(white_set))  # |{j in N_i^+ : white}|
                else:
                    dyn = 0.0

        self.x = x

        if duals:
            # Line 27 needs alpha_{i,j} y_j - beta_{i,j}, which lives at
            # neighbor j; one extra exchange delivers every share.
            for j in nbrs:
                ctx.send(j, DualShareMsg(
                    value=self.alpha[j] * self.y - self.beta[j]))
            inbox = yield
            z = self.alpha[me] * self.y - self.beta[me]
            z += sum(msg.value for _, msg in inbox)
            self.z = z


# ======================================================================
# The round program (one definition, every backend)
# ======================================================================

class FractionalProgram(RoundProgram):
    """Algorithm 1 as an engine-executable round program."""

    def __init__(self, lp: CoveringLP, t: int, compute_duals: bool,
                 weights: Optional[Dict[NodeId, float]] = None,
                 local_delta: Optional[Dict[NodeId, int]] = None):
        super().__init__(lp.artifacts)
        self.lp = lp
        self.t = t
        self.compute_duals = compute_duals
        self.weights = weights
        self.local_delta = local_delta

    def max_rounds(self) -> int:
        return 2 * self.t * self.t + 4

    # ------------------------------------------------------------------
    def direct(self, instr: Instrumentation) -> FractionalSolution:
        lp, t = self.lp, self.t
        compute_duals = self.compute_duals
        n = lp.n
        # Per-node (Delta_i + 1): the global maximum degree by default, or
        # the node's 2-hop local estimate (the Section 4 remark; see
        # repro.core.local_delta).
        if self.local_delta is None:
            base = np.full(n, lp.delta + 1.0)
        else:
            base = np.asarray([self.local_delta[v] + 1.0 for v in lp.nodes])
        k_vec = lp.k_vector()
        adj = self.artifacts.closed_adjacency()

        # Weighted extension (Section 4.1 remark): nodes raise x when their
        # cost-effectiveness (dynamic degree per unit weight) clears the
        # round threshold.  With unit weights this reduces bit-for-bit to
        # the paper's condition delta~_i >= (Delta+1)^{p/t}.
        w_vec = (np.ones(n) if self.weights is None
                 else np.asarray([float(self.weights[v]) for v in lp.nodes]))
        w_max = float(w_vec.max()) if n else 1.0
        w_min = float(w_vec.min()) if n else 1.0
        big_e = base * (w_max / w_min)   # per-node effectiveness range

        # Directed closed-neighborhood pairs (covered i, contributor j) used
        # to carry the alpha/beta edge shares of the dual-fitting bookkeeping.
        if compute_duals:
            cov_idx, con_idx = self.artifacts.closed_pairs()
            alpha_e = np.zeros(len(cov_idx))
            beta_e = np.zeros(len(cov_idx))

        x = np.zeros(n)
        c = np.zeros(n)
        y = np.zeros(n)
        white = np.ones(n, dtype=bool)
        dyn = adj @ white.astype(float)  # delta_i + 1 initially

        for p in range(t - 1, -1, -1):
            thr = base ** (p / t)                    # dual threshold (Line 15/20)
            thr_raise = big_e ** (p / t) / w_max     # raising threshold (Line 5)
            for q in range(t - 1, -1, -1):
                inc = 1.0 / (base ** (q / t))
                # Line 5-8: raise x at eligible nodes (effectiveness test).
                raising = (x < 1.0) & (dyn >= thr_raise * w_vec)
                x_plus = np.where(raising, np.minimum(inc, 1.0 - x), 0.0)
                x = x + x_plus

                # Lines 10-17: coverage accounting at white nodes.
                c_plus = adj @ x_plus
                lam = np.zeros(n)
                safe = white & (c_plus > 0)
                lam[safe] = np.minimum(1.0, (k_vec[safe] - c[safe]) / c_plus[safe])
                lam[white & (c_plus <= 0)] = 1.0
                np.clip(lam, 0.0, 1.0, out=lam)
                if compute_duals:
                    share = lam[cov_idx] * x_plus[con_idx]
                    alpha_e += share
                    beta_e += share / thr[cov_idx]
                c = np.where(white, c + c_plus, c)

                # Lines 18-21: newly covered nodes turn gray, fix their y.
                newly_gray = white & (c >= k_vec)
                y[newly_gray] = 1.0 / thr[newly_gray]
                white = white & ~newly_gray

                # Lines 23-24: refresh dynamic degrees.
                dyn = adj @ white.astype(float)

        # Line 27: assemble z from the shares stored at neighbors.
        if compute_duals:
            z = np.bincount(con_idx, weights=alpha_e * y[cov_idx] - beta_e,
                            minlength=n)
            alpha: Dict[NodeId, Dict[NodeId, float]] = {v: {} for v in lp.nodes}
            beta: Dict[NodeId, Dict[NodeId, float]] = {v: {} for v in lp.nodes}
            for e in range(len(cov_idx)):
                i_node = lp.nodes[cov_idx[e]]
                j_node = lp.nodes[con_idx[e]]
                alpha[i_node][j_node] = float(alpha_e[e])
                beta[i_node][j_node] = float(beta_e[e])
        else:
            z = np.zeros(n)
            alpha = {v: {} for v in lp.nodes}
            beta = {v: {} for v in lp.nodes}

        self._charge_schedule(instr)
        return FractionalSolution(
            x={v: float(x[i]) for i, v in enumerate(lp.nodes)},
            y={v: float(y[i]) for i, v in enumerate(lp.nodes)},
            z={v: float(z[i]) for i, v in enumerate(lp.nodes)},
            alpha=alpha,
            beta=beta,
            t=t,
            stats=instr.stats,
        )

    def _charge_schedule(self, instr: Instrumentation) -> None:
        """Round/message accounting implied by the fixed communication
        schedule (every node broadcasts in every round; 2 rounds per inner
        iteration)."""
        t = self.t
        m2 = 2 * self.artifacts.m  # messages per full broadcast round
        instr.charge_messages(t * t * m2,
                              XUpdateMsg(x=0.0, x_plus=0.0, dyn=0.0),
                              rounds=t * t)
        instr.charge_messages(t * t * m2, ColorMsg(gray=False),
                              rounds=t * t)
        if self.compute_duals:
            instr.charge_messages(m2, DualShareMsg(value=0.0), rounds=1)

    # ------------------------------------------------------------------
    def processes(self) -> List[FractionalNode]:
        lp = self.lp
        if self.weights is None:
            w_of = {v: 1.0 for v in lp.nodes}
            w_max = w_min = 1.0
        else:
            w_of = {v: float(self.weights[v]) for v in lp.nodes}
            w_max = max(w_of.values())
            w_min = min(w_of.values())
        return [
            FractionalNode(
                v, lp.coverage[v],
                lp.delta if self.local_delta is None else self.local_delta[v],
                self.t, self.compute_duals,
                weight=w_of[v], w_max=w_max, w_min=w_min)
            for v in lp.nodes
        ]

    def lanes(self) -> Lanes:
        from repro.simulation.columnar import lane_order

        lp = self.lp
        _, order = lane_order(self.artifacts)
        if self.weights is None:
            weight = np.ones(lp.n)
            w_max = w_min = 1.0
        else:
            w_list = [float(self.weights[v]) for v in lp.nodes]
            weight = np.asarray(w_list)[order]
            w_max, w_min = max(w_list), min(w_list)
        if self.local_delta is None:
            delta = np.full(lp.n, float(lp.delta))
        else:
            delta = np.fromiter((self.local_delta[v] for v in lp.nodes),
                                dtype=np.float64, count=lp.n)[order]
        return Lanes(FractionalNode, t=self.t,
                     compute_duals=self.compute_duals,
                     w_max=w_max, w_min=w_min,
                     k=lp.k_vector()[order], delta=delta, weight=weight)

    def collect_lanes(self, stepper, stats: RunStats) -> FractionalSolution:
        lp, plan = self.lp, stepper.plan
        # A lane that crashed before the end never wrote its x (nor z);
        # the process keeps its constructor's 0.0 there.
        x = np.where(stepper.wrote_x, stepper.x, 0.0)
        z = np.where(stepper.wrote_z, stepper.z, 0.0)
        x, y, z = (plan.to_artifact_order(col).tolist()
                   for col in (x, stepper.y, z))
        if self.compute_duals:
            alpha, beta = (
                dict(zip(lp.nodes, plan.to_artifact_order(
                    np.array(rows, dtype=object)).tolist()))
                for rows in stepper.dual_rows())
        else:
            alpha = {v: {} for v in lp.nodes}
            beta = {v: {} for v in lp.nodes}
        return FractionalSolution(
            x=dict(zip(lp.nodes, x)),
            y=dict(zip(lp.nodes, y)),
            z=dict(zip(lp.nodes, z)),
            alpha=alpha,
            beta=beta,
            t=self.t,
            stats=stats,
        )

    def collect(self, processes: Sequence[FractionalNode],
                stats: RunStats) -> FractionalSolution:
        lp = self.lp
        by_id = {p.node_id: p for p in processes}
        return FractionalSolution(
            x={v: by_id[v].x for v in lp.nodes},
            y={v: by_id[v].y for v in lp.nodes},
            z={v: by_id[v].z for v in lp.nodes},
            alpha={v: dict(by_id[v].alpha) for v in lp.nodes},
            beta={v: dict(by_id[v].beta) for v in lp.nodes},
            t=self.t,
            stats=stats,
        )


# ======================================================================
# Public entry point
# ======================================================================

def fractional_kmds(graph, k: int | None = 1, *,
                    coverage: CoverageMap | None = None,
                    t: int = 3,
                    mode: str = "direct",
                    compute_duals: bool = True,
                    seed: int | None = None,
                    weights: Optional[Dict[NodeId, float]] = None,
                    local_delta: Optional[Dict[NodeId, int]] = None,
                    delay=None,
                    delay_seed: int | None = None) -> FractionalSolution:
    """Run Algorithm 1 on ``graph``.

    Parameters
    ----------
    graph:
        ``networkx.Graph`` or wrapper.
    k:
        Uniform coverage requirement (ignored when ``coverage`` given).
    coverage:
        Per-node requirements ``k_i`` (the LP's general form).
    t:
        The time/quality trade-off parameter: ``2 t^2`` rounds for a
        ``t((Delta+1)^{2/t} + (Delta+1)^{1/t})`` approximation.
    mode:
        An engine backend: ``"direct"`` (vectorized central simulation),
        ``"message"`` (real message passing on the synchronous simulator),
        or ``"async"`` / ``"async-beta"`` (alpha / beta synchronizer over
        random link delays).
    compute_duals:
        Whether to carry the dual bookkeeping (needed for the Lemma 4.2-4.4
        diagnostics; adds one communication round and O(m) memory).
    seed:
        Simulator seed (message-passing backends only; the algorithm is
        deterministic).
    weights:
        Optional positive node costs for the weighted k-MDS extension
        (Section 4.1 remark).  Nodes then raise x based on
        cost-effectiveness; the dual bookkeeping is only defined for the
        unit-weight LP, so ``compute_duals`` must be off.
    local_delta:
        Optional per-node Delta estimates replacing the global maximum
        degree (the Section 4 remark removing the known-Delta
        assumption).  Use
        :func:`repro.core.local_delta.two_hop_max_degree` (or its
        2-round message protocol) to build one.

    Raises
    ------
    InfeasibleInstanceError
        If some node's requirement exceeds its closed neighborhood.
    """
    if t < 1:
        raise GraphError(f"t must be a positive integer, got {t}")
    seed = validate_seed(seed)
    lp = _resolve_instance(graph, k, coverage)
    if weights is not None:
        missing = [v for v in lp.nodes if v not in weights]
        if missing:
            raise GraphError(
                f"weights missing {len(missing)} node(s), e.g. {missing[0]!r}"
            )
        if any(weights[v] <= 0 for v in lp.nodes):
            raise GraphError("node weights must be positive")
        if compute_duals:
            raise GraphError(
                "the dual bookkeeping (alpha/beta/y/z) is only defined for "
                "the unit-weight LP; pass compute_duals=False with weights"
            )
    if local_delta is not None:
        missing = [v for v in lp.nodes if v not in local_delta]
        if missing:
            raise GraphError(
                f"local_delta missing {len(missing)} node(s), "
                f"e.g. {missing[0]!r}"
            )
    if lp.n == 0:
        return FractionalSolution(x={}, y={}, z={}, alpha={}, beta={}, t=t)
    program = FractionalProgram(lp, t, compute_duals, weights, local_delta)
    return execute(program, mode, seed=seed, delay=delay,
                   delay_seed=delay_seed)
