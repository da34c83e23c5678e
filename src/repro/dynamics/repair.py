"""Repair policies: how a damaged k-fold dominating set heals.

Three policies, all driven by the same deficit signal from
:mod:`repro.core.verify`:

- :class:`LocalPatchRepair` — the paper's Algorithm 3 Part II adoption
  rule applied *incrementally*: only the deficient nodes' 2-hop balls
  participate.  Each patch iteration mirrors one Part II iteration of
  the message protocol (help broadcast, adoption, leader announcement),
  so its round/message accounting is directly comparable to a fresh run;
- :class:`RecomputeRepair` — the from-scratch baseline: re-run
  Algorithm 3 on the live graph and swap in the result;
- :class:`LazyRepair` — defer an inner policy until the damage crosses a
  severity threshold (trade availability for repair traffic).

Message accounting uses the same information-theoretic currency as the
simulator (:mod:`repro.simulation.messages`), charged through
:class:`~repro.engine.instrumentation.Instrumentation`.  For the
recompute baseline only the Part II status/adoption traffic of the
re-run is charged and Part I elections are charged one message per
active node per round — a deliberate *undercount* of the true cost, so
the local-vs-recompute comparison is conservative.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, TYPE_CHECKING

import numpy as np

from repro.core.udg import SELECTION_POLICIES, _pick, solve_kmds_udg
from repro.engine.instrumentation import Instrumentation
from repro.errors import GraphError
from repro.simulation.messages import Message
from repro.simulation.node import NodeProcess
from repro.types import NodeId

if TYPE_CHECKING:  # pragma: no cover
    import networkx as nx

    from repro.dynamics.state import NetworkState

REPAIR_POLICIES = ("local", "recompute", "lazy")


# ----------------------------------------------------------------------
# Messages of the patch protocol (bit accounting only)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class HelpMsg(Message):
    """A deficient node broadcasts its shortfall to its neighbors."""
    deficit: int = 0
    SCHEMA = (("deficit", "count"),)


@dataclass(frozen=True)
class AdoptMsg(Message):
    """A leader promotes a deficient neighbor (Part II line 21)."""
    SCHEMA = ()


@dataclass(frozen=True)
class LeaderAnnounceMsg(Message):
    """A freshly promoted node announces its new leader status."""
    leader: bool = True
    SCHEMA = (("leader", "flag"),)


# ----------------------------------------------------------------------
# Outcome record
# ----------------------------------------------------------------------

@dataclass
class RepairOutcome:
    """What one epoch's repair did and what it cost.

    ``touched`` is the *locality* measure: every node that had to
    execute protocol steps or update state for this repair (for a local
    patch, the deficient nodes' 2-hop balls; for a recompute, every live
    node).
    """

    promoted: Set[NodeId] = field(default_factory=set)
    demoted: Set[NodeId] = field(default_factory=set)
    touched: Set[NodeId] = field(default_factory=set)
    rounds: int = 0
    messages: int = 0
    iterations: int = 0
    #: Whether the policy actually acted (False for a no-op epoch or a
    #: lazy deferral).
    repaired: bool = False
    #: Deficit the policy chose to leave in place (lazy deferrals).
    deferred_deficit: int = 0


class RepairPolicy:
    """Base class; ``repair`` maps a deficit signal to an outcome.

    Policies never mutate ``state`` — they return the membership delta
    in the outcome and the :class:`~repro.dynamics.loop.MaintenanceLoop`
    applies it (single writer, so policies compose and the loop can
    verify every transition).
    """

    name = "base"
    #: Whether the policy's repair is confined to the deficit's damage
    #: balls, so the sharded loop may run it per damage unit.  Global
    #: policies (recompute, lazy triggers) must stay unsharded.
    shardable = False

    def repair(self, state: "NetworkState", graph: "nx.Graph",
               deficit: Dict[NodeId, int], k: int, *,
               rng: np.random.Generator,
               instr: Instrumentation) -> RepairOutcome:
        raise NotImplementedError


class LocalPatchRepair(RepairPolicy):
    """Incremental Part II adoption confined to the damage's 2-hop ball.

    Per iteration (3 rounds, exactly the shape of one Part II iteration
    of :class:`~repro.core.udg.UDGNode`):

    1. every still-deficient node broadcasts :class:`HelpMsg` to its
       neighbors;
    2. each dominator that heard a help request picks up to ``k``
       deficient neighbors (the paper's adoption rule, same selection
       policies as Algorithm 3) and unicasts :class:`AdoptMsg`;
       a deficient node with *no* live dominator neighbor promotes
       itself (the distributed timeout rule — nobody can adopt it);
    3. every promoted node broadcasts :class:`LeaderAnnounceMsg`; its
       neighbors update coverage counts locally.

    Promoting a deficient node always clears its own deficit (open
    convention: members are exempt) and never creates new deficits, so
    the patch terminates in at most ``#deficient`` iterations and
    restores full k-coverage.

    Transports
    ----------
    ``transport="analytic"`` (default) runs the loop above as plain
    Python with accounting *charged as if* the messages were sent —
    fast, deterministic, shardable.  ``transport="message"`` actually
    executes the patch as :class:`PatchNode` processes on the
    simulator's broadcast-native columnar data plane
    (:func:`~repro.simulation.runner.run_protocol`), optionally behind a
    :class:`~repro.simulation.faults.MessageLossInjector` with rate
    ``loss_rate``.  Lost adoption offers and announcements then cost
    real extra rounds: a deficient node retries for ``patience``
    iterations before the distributed timeout self-promotes it, so the
    repair still terminates and restores full coverage at *any* loss
    rate (including 1.0), but its latency — ``EpochRecord.rounds`` —
    inflates with loss.  Message-transport repairs run the whole patch
    as one protocol instance, so they are not shardable.
    """

    name = "local"

    #: Valid ``transport`` arguments.
    TRANSPORTS = ("analytic", "message")

    def __init__(self, selection_policy: str = "random", *,
                 transport: str = "analytic", loss_rate: float = 0.0,
                 patience: int = 3, max_iterations: int | None = None,
                 reference: bool = False):
        if selection_policy not in SELECTION_POLICIES:
            raise GraphError(
                f"unknown selection policy {selection_policy!r}; "
                f"expected one of {SELECTION_POLICIES}"
            )
        if transport not in self.TRANSPORTS:
            raise GraphError(
                f"unknown repair transport {transport!r}; "
                f"expected one of {self.TRANSPORTS}"
            )
        if not 0.0 <= loss_rate <= 1.0:
            raise GraphError(
                f"loss_rate must be in [0, 1], got {loss_rate}")
        if patience < 1:
            raise GraphError(f"patience must be at least 1, got {patience}")
        self.selection_policy = selection_policy
        self.transport = transport
        self.loss_rate = float(loss_rate)
        self.patience = int(patience)
        self.max_iterations = max_iterations
        #: Drive the patch protocol through the per-node generator loop
        #: instead of the columnar stepping plane (the bit-identity
        #: oracle; see ``run_protocol(..., reference=True)``).
        self.reference = bool(reference)
        # The sharded loop runs one repair call per damage unit; the
        # message transport spins up a simulator instance per call, so
        # only the analytic transport participates in sharding.
        self.shardable = transport == "analytic"

    def repair(self, state, graph, deficit, k, *, rng, instr):
        if self.transport == "message":
            return self._repair_message(state, graph, deficit, k,
                                        rng=rng, instr=instr)
        return self._repair_analytic(state, graph, deficit, k,
                                     rng=rng, instr=instr)

    # ------------------------------------------------------------------
    # Analytic transport: the loop below *is* the protocol, with the
    # message traffic charged rather than sent.
    # ------------------------------------------------------------------
    def _repair_analytic(self, state, graph, deficit, k, *, rng, instr):
        outcome = RepairOutcome()
        deficient: Dict[NodeId, int] = {v: d for v, d in deficit.items()
                                        if d > 0}
        if not deficient:
            return outcome
        outcome.repaired = True
        # The members as the call goes: the state's (read, not copied —
        # the sharded loop calls this once per damage unit) plus the
        # call's own promotions.
        members = state.members
        promoted: Set[NodeId] = set()
        touched: Set[NodeId] = set()
        # The graph does not change during the call: sort each row once.
        rows: Dict[NodeId, List[NodeId]] = {}
        # Copies sent per message class.  A message's bits depend only
        # on its class, so each class is charged once, after the loop.
        helps = adopts = announces = 0

        def nbrs(v) -> List[NodeId]:
            row = rows.get(v)
            if row is None:
                row = rows[v] = sorted(graph.neighbors(v))
            return row

        while deficient:
            outcome.iterations += 1
            picks: Set[NodeId] = set()
            # (1) help broadcasts: deficient nodes and their 1-hop ball
            # participate from here on.
            for u in sorted(deficient):
                neighborhood = nbrs(u)
                touched.add(u)
                touched.update(neighborhood)
                helps += len(neighborhood)
            # (2) adoption: each dominator adjacent to a deficient node
            # picks up to k of its deficient neighbors.
            helpers = sorted({w for u in deficient for w in nbrs(u)
                              if w in members or w in promoted})
            for leader in helpers:
                candidates = [u for u in nbrs(leader) if u in deficient]
                if not candidates:
                    continue  # pragma: no cover — helper implies one
                chosen = _pick(rng, candidates, k, self.selection_policy)
                picks.update(chosen)
                adopts += len(chosen)
            # Orphaned deficient nodes (no live dominator neighbor) heard
            # no adoption offer: they time out and self-promote.
            for u in sorted(deficient):
                if not any(w in members or w in promoted for w in nbrs(u)):
                    picks.add(u)
            # (3) promotion announcements + local coverage updates.
            for p in sorted(picks):
                promoted.add(p)
                deficient.pop(p, None)  # members are exempt (open conv.)
                neighborhood = nbrs(p)
                touched.add(p)
                touched.update(neighborhood)
                announces += len(neighborhood)
                for w in neighborhood:
                    if w in deficient:
                        deficient[w] -= 1
                        if deficient[w] <= 0:
                            del deficient[w]
            instr.charge_rounds(3)
            outcome.rounds += 3

        instr.charge_messages(helps, HelpMsg())
        instr.charge_messages(adopts, AdoptMsg())
        instr.charge_messages(announces, LeaderAnnounceMsg())
        outcome.messages = helps + adopts + announces
        outcome.promoted = promoted
        outcome.touched = touched
        return outcome

    # ------------------------------------------------------------------
    # Message transport: the same protocol executed on the simulator's
    # data plane, under optional message loss.
    # ------------------------------------------------------------------
    def _repair_message(self, state, graph, deficit, k, *, rng, instr):
        import networkx as nx

        from repro.simulation.faults import MessageLossInjector
        from repro.simulation.network import SynchronousNetwork
        from repro.simulation.runner import run_protocol

        outcome = RepairOutcome()
        deficient: Dict[NodeId, int] = {v: d for v, d in deficit.items()
                                        if d > 0}
        if not deficient:
            return outcome
        outcome.repaired = True
        members = state.members

        # Participants: the deficient nodes and their 1-hop balls.  Every
        # message of the patch protocol travels an edge incident to a
        # deficient node (help out, adoption in, announcements out of a
        # node that was deficient when promoted), so those edges form the
        # whole communication graph and each deficient node keeps its
        # true degree — broadcast fan-outs match the analytic charges.
        patch = nx.Graph()
        for u in deficient:
            patch.add_node(u)
            for w in graph.neighbors(u):
                patch.add_edge(u, w)

        patience = self.patience
        # A deficient node promotes (by adoption or timeout) within
        # ``patience + 1`` iterations at the latest; the rest is idle
        # headroom for members winding down.
        max_iterations = (self.max_iterations
                          if self.max_iterations is not None
                          else 2 * patience + 4)
        processes = [
            PatchNode(v, k=k, policy=self.selection_policy,
                      deficit=deficient.get(v, 0), is_member=v in members,
                      member_neighbors=[w for w in patch.neighbors(v)
                                        if w in members],
                      patience=patience, max_iterations=max_iterations)
            for v in sorted(patch.nodes)
        ]
        net = SynchronousNetwork(patch, processes,
                                 seed=int(rng.integers(0, 2 ** 31)))
        injectors = []
        if self.loss_rate > 0.0:
            injectors.append(MessageLossInjector(
                self.loss_rate, seed=int(rng.integers(0, 2 ** 31))))

        # Private accountant over the *loop's* size model, folded back
        # afterwards: bits stay in the full deployment's currency, so
        # analytic and message repairs report comparable costs.
        run_instr = Instrumentation(instr.size_model)
        stats = run_protocol(net, max_rounds=3 * max_iterations + 6,
                             injectors=injectors,
                             instrumentation=run_instr,
                             reference=self.reference)
        instr.absorb(stats)

        outcome.promoted = {p.node_id for p in processes if p.promoted}
        outcome.touched = set(patch.nodes)
        outcome.rounds = stats.rounds
        outcome.messages = stats.messages_sent
        outcome.iterations = max((p.iterations for p in processes),
                                 default=0)
        return outcome


class PatchNode(NodeProcess):
    """One participant of the message-transport patch protocol.

    The generator mirrors one analytic iteration per three rounds
    (exactly :class:`LocalPatchRepair`'s shape):

    1. still-deficient nodes broadcast :class:`HelpMsg`;
    2. members that heard a request adopt up to ``k`` of the requesters
       (:class:`AdoptMsg` unicasts, same selection policies as
       Algorithm 3);
    3. freshly promoted nodes broadcast :class:`LeaderAnnounceMsg`;
       neighbors decrement their deficits.

    Faithfulness under loss rests on two timeout rules: a deficient node
    with no member neighbor *at all* self-promotes immediately (nobody
    can adopt it — the analytic orphan rule), and one whose adoption
    offers keep getting lost self-promotes after ``patience`` unadopted
    iterations.  Members retire after ``patience + 1`` help-free
    iterations.  Both bounds hold at any loss rate, so the protocol
    always terminates; loss shows up purely as extra rounds.
    """

    def __init__(self, node_id: NodeId, *, k: int, policy: str,
                 deficit: int, is_member: bool,
                 member_neighbors, patience: int, max_iterations: int):
        super().__init__(node_id)
        self.k = k
        self.policy = policy
        self.deficit = deficit
        self.member = is_member
        self.member_neighbors = set(member_neighbors)
        self.patience = patience
        self.max_iterations = max_iterations
        #: Whether this node promoted itself during the run.
        self.promoted = False
        #: Iterations executed (the per-node repair latency in units of
        #: analytic iterations).
        self.iterations = 0

    def run(self, ctx):
        deficit = self.deficit if not self.member else 0
        member = self.member
        waited = 0  # deficient iterations without an adoption offer
        idle = 0    # member iterations without a help request
        for _ in range(self.max_iterations):
            self.iterations += 1
            # (1) help broadcasts.
            if deficit > 0:
                ctx.broadcast(HelpMsg(deficit=deficit))
            inbox = yield
            # (2) adoption — and the deficient side's timeout decision.
            heard_help = False
            if member:
                candidates = [src for src, msg in inbox
                              if type(msg) is HelpMsg]
                if candidates:
                    heard_help = True
                    chosen = _pick(ctx.rng, candidates, self.k, self.policy)
                    for u in chosen:
                        ctx.send(u, AdoptMsg())
            promote = False
            if not member and deficit > 0:
                if not self.member_neighbors:
                    promote = True  # orphan: nobody can adopt it
                elif waited >= self.patience:
                    promote = True  # offers keep getting lost: time out
            inbox = yield
            # (3) promotion + announcements.
            if not member and deficit > 0:
                adopted = any(type(msg) is AdoptMsg for _, msg in inbox)
                if adopted or promote:
                    member = True
                    deficit = 0  # members are exempt (open convention)
                    self.promoted = True
                    ctx.broadcast(LeaderAnnounceMsg())
                else:
                    waited += 1
            inbox = yield
            for src, msg in inbox:
                if type(msg) is LeaderAnnounceMsg:
                    self.member_neighbors.add(src)
                    if deficit > 0:
                        deficit -= 1
            # Retirement: healed clients leave at once; members hang on
            # through patience help-free iterations for late retries.
            if member:
                idle = 0 if heard_help else idle + 1
                if idle > self.patience:
                    break
            elif deficit <= 0:
                break
        self.member = member
        self.deficit = deficit

    def __repr__(self) -> str:  # pragma: no cover — debugging aid
        role = "member" if self.member else f"deficit={self.deficit}"
        return f"<PatchNode {self.node_id!r} {role}>"


class RecomputeRepair(RepairPolicy):
    """From-scratch baseline: re-run Algorithm 3 on the live graph.

    Every live node participates (``touched`` is the whole network),
    rounds are the re-run's full schedule, and messages charge the Part
    II status exchange plus one message per active node per Part I round
    (an intentional undercount — see the module docstring).
    """

    name = "recompute"

    def __init__(self, selection_policy: str = "random"):
        if selection_policy not in SELECTION_POLICIES:
            raise GraphError(
                f"unknown selection policy {selection_policy!r}; "
                f"expected one of {SELECTION_POLICIES}"
            )
        self.selection_policy = selection_policy

    def repair(self, state, graph, deficit, k, *, rng, instr):
        outcome = RepairOutcome()
        if not any(d > 0 for d in deficit.values()):
            return outcome
        outcome.repaired = True
        udg, to_global = state.live_udg()
        seed = int(rng.integers(0, 2 ** 31))
        ds = solve_kmds_udg(udg, k=k, mode="direct",
                            selection_policy=self.selection_policy,
                            seed=seed)
        new_members = {to_global[i] for i in ds.members}
        outcome.promoted = new_members - state.members
        outcome.demoted = state.members - new_members
        outcome.touched = set(state.alive)
        outcome.iterations = int(ds.details.get("part2_iterations", 0))
        outcome.rounds = ds.stats.rounds
        instr.charge_rounds(ds.stats.rounds)

        degree_sum = sum(d for _, d in graph.degree())
        # Part I elections: >= 1 message per active node per round.
        part1 = sum(ds.details.get("active_per_round", []))
        instr.charge_messages(part1, HelpMsg())
        # Part II prologue (leader-status + deficit broadcasts by every
        # node) and per-iteration refreshes.
        status = degree_sum * 2 * (1 + outcome.iterations)
        instr.charge_messages(status, LeaderAnnounceMsg())
        adoptions = int(ds.details.get("part2_adopted", 0))
        instr.charge_messages(adoptions, AdoptMsg())
        outcome.messages = part1 + status + adoptions
        return outcome


class LazyRepair(RepairPolicy):
    """Defer repair until the damage is severe enough to matter.

    Availability-for-traffic trade-off: small deficits ride on the
    k-fold redundancy headroom (a node that lost one of its three
    dominators is still doubly covered), and the inner policy only runs
    when either trigger fires:

    - some node's *remaining* coverage fell below ``min_coverage``, or
    - more than ``max_deficient_fraction`` of the live nodes are
      deficient.

    Parameters
    ----------
    inner:
        The policy that performs the actual repair when triggered
        (default: a :class:`LocalPatchRepair`).
    min_coverage:
        Hard floor on per-node live coverage; ``deficit >= k -
        min_coverage + 1`` fires the trigger.  The default of 1 never
        lets any node become fully uncovered.
    max_deficient_fraction:
        Maximum tolerated fraction of deficient live nodes.
    """

    name = "lazy"

    def __init__(self, inner: RepairPolicy | None = None, *,
                 min_coverage: int = 1,
                 max_deficient_fraction: float = 0.1):
        if min_coverage < 0:
            raise GraphError(
                f"min_coverage must be non-negative, got {min_coverage}")
        if not 0.0 <= max_deficient_fraction <= 1.0:
            raise GraphError(
                "max_deficient_fraction must be in [0, 1], got "
                f"{max_deficient_fraction}"
            )
        self.inner = inner if inner is not None else LocalPatchRepair()
        self.min_coverage = int(min_coverage)
        self.max_deficient_fraction = float(max_deficient_fraction)

    def repair(self, state, graph, deficit, k, *, rng, instr):
        shortfalls = [d for d in deficit.values() if d > 0]
        if not shortfalls:
            return RepairOutcome()
        worst = max(shortfalls)
        uncovered_soon = worst >= k - self.min_coverage + 1
        widespread = (len(shortfalls)
                      > self.max_deficient_fraction * max(1, state.n_live))
        if not (uncovered_soon or widespread):
            return RepairOutcome(deferred_deficit=sum(shortfalls))
        return self.inner.repair(state, graph, deficit, k, rng=rng,
                                 instr=instr)


def make_policy(name: str, *, selection_policy: str = "random",
                **kwargs) -> RepairPolicy:
    """Factory used by the CLI and experiments (``local`` / ``recompute``
    / ``lazy``).  Extra keyword arguments flow to the policy constructor
    (``local`` accepts ``transport`` / ``loss_rate`` / ``patience``)."""
    if name == "local":
        return LocalPatchRepair(selection_policy, **kwargs)
    if name == "recompute":
        return RecomputeRepair(selection_policy)
    if name == "lazy":
        return LazyRepair(LocalPatchRepair(selection_policy), **kwargs)
    raise GraphError(
        f"unknown repair policy {name!r}; expected one of {REPAIR_POLICIES}"
    )
