"""The maintenance loop: churn in, deficits detected, repairs out.

:class:`MaintenanceLoop` executes a :class:`~repro.dynamics.scenario.Scenario`
under a :class:`~repro.dynamics.repair.RepairPolicy`.  Each epoch:

1. the scenario's event streams fire and the
   :class:`~repro.dynamics.state.NetworkState` absorbs them (crashes
   shrink the dominator set — the damage);
2. the coverage deficit of the live graph is measured (open convention
   — live non-members need ``k`` live dominator neighbors).  On an
   incremental state the loop carries its last verify's coverage
   vectors through the churn batch's
   :class:`~repro.engine.artifacts.SlotMap`
   (:func:`repro.core.verify.advance_coverage`): only the rows of
   removed, added and rewired nodes are touched;
3. the repair policy turns the deficit into a membership delta, charging
   its rounds and messages on the shared engine
   :class:`~repro.engine.instrumentation.Instrumentation`;
4. the loop applies the delta, re-verifies by carrying the vectors
   through its own promotions and demotions (one scatter over their
   closed rows), and appends an
   :class:`~repro.dynamics.metrics.EpochRecord` to the timeline.

Verify paths
------------
A crash or a promotion changes coverage only inside its own closed
neighborhood, so a carry is exact; the full verify
(:func:`repro.core.verify.coverage_vectors`, one mask and one CSR
matvec) is its oracle and runs instead whenever nothing exact can be
carried: for the state's first verify (in :meth:`MaintenanceLoop.start`),
after an artifact rebuild (a bulk move), on a bundle with self-loops,
when the member set changed in a way the loop's own changes do not
explain (``members_version`` moves once per crash and once per
``promote`` / ``demote`` call), and on a non-incremental state, whose
verify is the per-node oracle.  :attr:`MaintenanceLoop.verify_paths`
counts each path, and the run's :class:`DynamicsResult` reports it.

Sharded repair
--------------
With ``shards=S`` the deficit is decomposed into independent **damage
units** (:func:`~repro.dynamics.sharding.damage_units` — overlapping
2-hop balls merge into one unit, so units never interact), bucketed
onto an ``S x S`` grid, and repaired unit-by-unit, optionally on a
``workers``-thread pool.  Every unit draws from a private RNG derived
from ``(seed, epoch, unit rank)`` and charges a private accountant, so
the membership outcome — and the whole timeline — is **bit-identical
for every (shards, workers) configuration**.  Rounds merge as ``max``
over units (independent balls repair concurrently, exactly the paper's
locality argument); messages and touched sets merge by sum/union.

The loop is the single writer of the state, so every transition is
verified and any policy bug that leaves coverage broken is visible in
``fully_covered_after`` rather than silently compounding.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.core.verify import (advance_coverage, coverage_deficit,
                               coverage_vectors)
from repro.dynamics.demotion import DemotionOutcome, SurplusDemotion
from repro.dynamics.metrics import DynamicsTimeline, EpochRecord
from repro.dynamics.repair import RepairOutcome, RepairPolicy
from repro.dynamics.scenario import Scenario
from repro.dynamics.sharding import assign_shards, damage_units
from repro.dynamics.state import NetworkState
from repro.engine.artifacts import SlotMap
from repro.engine.instrumentation import Instrumentation
from repro.errors import ServiceError, ShardingError
from repro.simulation.rng import spawn_named_rngs
from repro.types import NodeId, RunStats, stable_sorted

#: Valid shard-dispatch executors for :class:`MaintenanceLoop`.
EXECUTORS = ("thread", "process")

#: Why a verify ran in full instead of carrying the last one's vectors
#: (see the module notes).
FULL_VERIFY_REASONS = ("first", "rebuild", "self-loops", "members",
                       "not-incremental")


class _ArtifactGraphView:
    """Minimal read-only graph interface over live artifacts.

    Repair policies only query ``neighbors`` / ``degree``; serving them
    from the edited :class:`GraphArtifacts` avoids the networkx
    subgraph view's per-edge filter overhead (a large constant factor
    in the repair hot path at n >= 10^4).  ``neighbors`` reads the
    node's closed CSR row (never the per-node views) and yields it in
    the live view's sorted order, so policy decisions are identical.
    A view serves one epoch, during which the artifacts do not change,
    so it keeps each row it has read.
    """

    __slots__ = ("_art", "_rows")

    def __init__(self, art):
        self._art = art
        self._rows = {}

    def neighbors(self, v):
        row = self._rows.get(v)
        if row is None:
            art = self._art
            i = art.index[v]
            lo, hi = art.indptr[i:i + 2].tolist()
            nodes = art.nodes
            row = self._rows[v] = stable_sorted(
                [nodes[j] for j in art.indices[lo:hi].tolist() if j != i])
        return iter(row)

    def degree(self):
        return zip(self._art.nodes, self._art.degrees.tolist())


@dataclass(frozen=True)
class VerifiedCoverage:
    """One verify's index-aligned coverage vectors, and what they
    describe: the artifacts version, the state's ``members_version`` and
    ``k`` they were computed at.

    The loop carries its last verify's vectors into the next one, and
    the service's snapshot capture adopts them instead of recomputing
    the same mask, matvec and deficit
    (:meth:`MaintenanceLoop.take_verified`).
    """

    version: int
    members_version: int
    k: int
    mask: np.ndarray
    counts: np.ndarray
    deficit: np.ndarray

    def describes(self, art, state: NetworkState, k: int) -> bool:
        """Whether the vectors still hold for ``art`` / ``state`` at
        ``k``: no edit and no membership change since they were
        computed."""
        return (self.version == art.version
                and self.members_version == state.members_version
                and self.k == k)


@dataclass
class DynamicsResult:
    """Outcome of one full maintenance run."""

    scenario: str
    policy: str
    k: int
    timeline: DynamicsTimeline
    final_members: Set[NodeId]
    final_live: Set[NodeId]
    stats: RunStats
    #: Summary aggregates (see :meth:`DynamicsTimeline.summary`).
    summary: Dict[str, float] = field(default_factory=dict)
    #: Verifies by path (:attr:`MaintenanceLoop.verify_paths`).
    verify_paths: Dict[str, object] = field(default_factory=dict)

    @property
    def always_covered(self) -> bool:
        """Whether every epoch ended fully k-covered."""
        return all(r.fully_covered_after for r in self.timeline)


class MaintenanceLoop:
    """Drives a scenario's epochs through a repair policy.

    Parameters
    ----------
    scenario:
        The workload (deployment + churn script + maintenance contract).
    policy:
        Any :class:`~repro.dynamics.repair.RepairPolicy`.
    instrumentation:
        Optional externally-owned accountant; by default a fresh one is
        built for the deployment's size, so ``result.stats`` is in the
        same currency as any engine execution.
    shards:
        Decompose each epoch's damage into independent units and bucket
        them onto a ``shards x shards`` grid (``None`` = the classic
        global repair call).  Requires a ``shardable`` policy.
    workers:
        Pool size for shard dispatch (only with ``shards``).
        Outcomes are bit-identical for every worker count.
    executor:
        Shard-dispatch engine: ``"thread"`` (default — the in-process
        pool) or ``"process"`` — a resident
        :class:`~repro.dynamics.procpool.ProcessShardPool` reading the
        epoch's artifacts from ``multiprocessing.shared_memory``, which
        sidesteps the GIL for the pure-Python analytic repair.
        Requires ``shards`` and ``incremental=True`` (the shm export
        reads the live artifact CSR) and integer node ids.  The
        timeline stays bit-identical across all executors.
    incremental:
        Maintain live :class:`~repro.engine.artifacts.GraphArtifacts`
        edited once per epoch's churn batch, enabling the vectorized
        deficit path.  ``False`` restores the rebuild-per-epoch baseline
        (benchmark reference; results are identical either way).
    demote:
        Optional :class:`~repro.dynamics.demotion.SurplusDemotion` decay
        pass, run after each epoch's repair: dominators whose removal
        keeps every client's coverage >= ``k`` retire (the Lemma-5.5
        density pressure that keeps a long-maintained set from growing
        without bound under equal-intensity churn).
    """

    def __init__(self, scenario: Scenario, policy: RepairPolicy, *,
                 instrumentation: Optional[Instrumentation] = None,
                 shards: Optional[int] = None, workers: int = 1,
                 executor: str = "thread",
                 incremental: bool = True,
                 demote: Optional[SurplusDemotion] = None):
        self.scenario = scenario
        self.policy = policy
        if shards is not None:
            if shards < 1:
                raise ShardingError(
                    f"shards must be at least 1, got {shards}")
            if not getattr(policy, "shardable", False):
                raise ShardingError(
                    f"repair policy {policy.name!r} cannot be sharded; "
                    "sharding requires a damage-local policy "
                    "(e.g. 'local')"
                )
        if workers < 1:
            raise ShardingError(f"workers must be at least 1, got {workers}")
        if workers > 1 and shards is None:
            raise ShardingError(
                f"workers={workers} requires shards; pass shards>=1 to "
                "enable the sharded repair plan"
            )
        if executor not in EXECUTORS:
            raise ShardingError(
                f"unknown executor {executor!r}; "
                f"expected one of {EXECUTORS}"
            )
        if executor == "process":
            if shards is None:
                raise ShardingError(
                    "executor='process' requires shards; pass shards>=1 "
                    "to enable the sharded repair plan"
                )
            if not incremental:
                raise ShardingError(
                    "executor='process' requires incremental=True (the "
                    "shared-memory export reads the live artifact CSR)"
                )
        self.shards = shards
        self.workers = int(workers)
        self.executor = executor
        self.incremental = bool(incremental)
        self.demoter = demote
        self.instr = (instrumentation if instrumentation is not None
                      else Instrumentation.for_n(max(1, scenario.initial.n)))
        # The repair policy's selection randomness lives on its own
        # named stream: adding/removing churn streams (which hold their
        # own RNGs) can never perturb repair decisions.
        self._rng = spawn_named_rngs(["repair"], scenario.seed)["repair"]
        self._seed_root = scenario.seed if scenario.seed is not None else 0
        pts = scenario.initial.points
        self._side = float(pts.max()) if len(pts) else 1.0
        self._procpool = None
        # Resident-stepping state (armed by :meth:`start`).
        self._state: Optional[NetworkState] = None
        self._timeline: Optional[DynamicsTimeline] = None
        self._epoch = 0
        self._reset_verify()

    def _reset_verify(self) -> None:
        # The last verify's vectors: carried into the next verify, and
        # handed over once (take_verified).
        self._coverage: Optional[VerifiedCoverage] = None
        self._verified: Optional[VerifiedCoverage] = None
        # What changed since that verify, as far as the loop knows: the
        # churn batch's slot map (dropped once carried, since it holds
        # the old CSR), the nodes it promoted or demoted, and the
        # ``members_version`` bumps those explain.
        self._slots: Optional[SlotMap] = None
        self._changed: Set[NodeId] = set()
        self._bumps = 0
        self._carried = 0
        self._full = dict.fromkeys(FULL_VERIFY_REASONS, 0)

    # ------------------------------------------------------------------
    # Resident stepping API (the service layer drives epochs one by one)
    # ------------------------------------------------------------------
    @property
    def state(self) -> Optional[NetworkState]:
        """The resident :class:`NetworkState` (``None`` before
        :meth:`start`)."""
        return self._state

    @property
    def timeline(self) -> Optional[DynamicsTimeline]:
        """The timeline accumulated so far (``None`` before
        :meth:`start`)."""
        return self._timeline

    @property
    def epochs_completed(self) -> int:
        """Epochs executed since the last :meth:`start`."""
        return self._epoch

    @property
    def verify_paths(self) -> Dict[str, object]:
        """Verifies since the last :meth:`start`, by path:
        ``{"carried": c, "full": {reason: count}}`` over
        :data:`FULL_VERIFY_REASONS`."""
        return {"carried": self._carried, "full": dict(self._full)}

    def start(self) -> NetworkState:
        """Arm (or re-arm) the loop for resident stepping.

        Builds the deployment's :class:`NetworkState` and an empty
        timeline; any previous resident run is discarded.  On an
        incremental state it runs the state's first (full) verify, which
        epoch 0 carries and :meth:`take_verified` hands over.
        :meth:`run` calls this internally — use it directly only when
        stepping epochs one at a time (e.g. from :mod:`repro.service`).
        """
        scenario = self.scenario
        state = NetworkState.from_udg(scenario.initial,
                                      members=scenario.build_members(),
                                      incremental=self.incremental)
        if self.incremental:
            # Arm the live artifacts while the topology still equals the
            # deployment: the bundle builds from the concrete base graph
            # (no subgraph-view overhead) and churn edits it from the
            # first epoch on.
            state.artifacts()
        self._state = state
        self._timeline = DynamicsTimeline()
        self._epoch = 0
        self._reset_verify()
        if self.incremental:
            self._shortfalls(state, scenario.k)
        return state

    def step(self) -> EpochRecord:
        """Execute one epoch against the resident state.

        Starts the loop on first call.  Epoch indices keep advancing
        past ``scenario.epochs`` — a resident service runs until told to
        stop, not for a fixed horizon.
        """
        if self._state is None:
            self.start()
        record = self._run_epoch(self._epoch, self._state)
        self._timeline.append(record)
        self._epoch += 1
        return record

    def finish(self) -> DynamicsResult:
        """Package the resident run into a :class:`DynamicsResult`."""
        if self._state is None or self._timeline is None:
            raise ServiceError("finish() before start(): no resident run")
        result = DynamicsResult(
            scenario=self.scenario.name,
            policy=self.policy.name,
            k=self.scenario.k,
            timeline=self._timeline,
            final_members=set(self._state.members),
            final_live=set(self._state.alive),
            stats=self.instr.stats,
            verify_paths=self.verify_paths,
        )
        result.summary = self._timeline.summary()
        return result

    def take_verified(self) -> Optional[VerifiedCoverage]:
        """Hand over the last verify's coverage vectors, once (``None``
        if none were kept since the last hand-over; only an incremental
        state's verify keeps them).  The loop keeps its own reference
        to carry into its next verify, which never writes the arrays."""
        verified, self._verified = self._verified, None
        return verified

    def close(self) -> None:
        """Release pooled resources (the process pool and its shared
        memory).  Idempotent; the loop remains usable — the pool is
        re-created lazily on the next sharded epoch."""
        if self._procpool is not None:
            self._procpool.close()
            self._procpool = None

    # ------------------------------------------------------------------
    def run(self) -> DynamicsResult:
        try:
            self.start()
            for _ in range(self.scenario.epochs):
                self.step()
            return self.finish()
        finally:
            self.close()

    # ------------------------------------------------------------------
    # Deficit measurement (carried on incremental states)
    # ------------------------------------------------------------------
    def _shortfalls(self, state: NetworkState, k) -> Dict[NodeId, int]:
        """Deficient node -> shortfall over the live topology: the one
        verify entry point.  On an incremental state it carries the last
        verify's coverage vectors where it can (see the module notes)
        and keeps the result for the next verify and for
        :meth:`take_verified`."""
        if not state.incremental:
            self._full["not-incremental"] += 1
            deficit = coverage_deficit(state.graph(), state.members, k,
                                       convention="open")
            return {v: d for v, d in deficit.items() if d > 0}
        art = state.artifacts()
        reason = self._carry_blocker(art, state)
        if reason is None:
            kept = self._coverage
            mask, counts, vec = advance_coverage(
                art, kept.mask, kept.counts, k, state.members,
                slots=self._slots, changed=self._changed)
            self._carried += 1
        else:
            mask, counts, vec = coverage_vectors(art, state.members, k,
                                                 convention="open")
            self._full[reason] += 1
        self._slots = None
        self._changed = set()
        self._bumps = 0
        self._coverage = self._verified = VerifiedCoverage(
            art.version, state.members_version, k, mask, counts, vec)
        short = np.flatnonzero(vec)
        return dict(zip(map(art.nodes.__getitem__, short.tolist()),
                        vec.take(short).tolist()))

    def _carry_blocker(self, art, state: NetworkState) -> Optional[str]:
        """Why the last verify's vectors cannot be carried to ``art``
        and the state's members (a full verify's reason), or ``None``."""
        kept, slots = self._coverage, self._slots
        if kept is None:
            return "first"
        start, end = ((kept.version, kept.version) if slots is None
                      else (slots.version, slots.after))
        if kept.version != start or end != art.version:
            return "rebuild"
        if art.self_loops:
            return "self-loops"
        if state.members_version != kept.members_version + self._bumps:
            return "members"
        return None

    def _change_members(self, state: NetworkState, nodes: Set[NodeId], *,
                        promote: bool) -> None:
        """Promote or demote ``nodes`` and note it for the next carry."""
        (state.promote if promote else state.demote)(nodes)
        self._changed |= nodes
        self._bumps += 1

    # ------------------------------------------------------------------
    # Sharded repair plan
    # ------------------------------------------------------------------
    def _repair_sharded(self, epoch: int, state: NetworkState, graph,
                        shortfalls: Dict[NodeId, int], k: int
                        ) -> Tuple[RepairOutcome, int, int]:
        """Repair unit-by-unit; returns (merged outcome, units, shards)."""
        if not shortfalls:
            return RepairOutcome(), 0, 0
        if state.incremental:
            art = state.artifacts()

            def neighbors_of(u):
                i = art.index[u]
                row = art.indices[art.indptr[i]:art.indptr[i + 1]]
                return [art.nodes[j] for j in row.tolist()]
        else:
            def neighbors_of(u):
                return graph.neighbors(u)

        units = damage_units(shortfalls, neighbors_of)
        plan = assign_shards(units, self.shards,
                             position_of=lambda v: state.positions[v],
                             side=self._side)
        shard_keys = sorted(plan)

        def run_shard(key) -> List[Tuple[RepairOutcome, RunStats]]:
            results = []
            for unit in plan[key]:
                rng = np.random.default_rng(
                    [self._seed_root, epoch, unit.rank])
                unit_instr = Instrumentation(self.instr.size_model)
                out = self.policy.repair(state, graph, unit.deficits, k,
                                         rng=rng, instr=unit_instr)
                results.append((out, unit_instr.stats))
            return results

        if self.executor == "process":
            shard_results = self._run_shards_in_processes(
                epoch, state, plan, shard_keys, k)
        elif self.workers == 1 or len(shard_keys) <= 1:
            shard_results = [run_shard(key) for key in shard_keys]
        else:
            with ThreadPoolExecutor(max_workers=self.workers) as pool:
                shard_results = list(pool.map(run_shard, shard_keys))

        merged = RepairOutcome()
        for results in shard_results:
            for out, stats in results:
                merged.promoted |= out.promoted
                merged.demoted |= out.demoted
                merged.touched |= out.touched
                merged.messages += out.messages
                merged.rounds = max(merged.rounds, out.rounds)
                merged.iterations = max(merged.iterations, out.iterations)
                merged.repaired = merged.repaired or out.repaired
                merged.deferred_deficit += out.deferred_deficit
                self.instr.absorb(stats, include_rounds=False)
        # Independent damage balls repair concurrently: the epoch's
        # round cost is the slowest unit, not the sum.
        self.instr.charge_rounds(merged.rounds)
        return merged, len(units), len(plan)

    def _run_shards_in_processes(self, epoch: int, state: NetworkState,
                                 plan, shard_keys, k: int):
        """Dispatch the epoch's shard batches to the resident process
        pool over shared-memory artifacts (lazily created)."""
        if self._procpool is None:
            from repro.dynamics.procpool import ProcessShardPool

            self._procpool = ProcessShardPool(self.workers)
        manifest = self._procpool.publish_epoch(state.artifacts(),
                                                state.members)
        shard_units = [[(u.rank, u.deficits) for u in plan[key]]
                       for key in shard_keys]
        return self._procpool.run_shards(
            manifest, shard_units, policy=self.policy, k=k, epoch=epoch,
            seed_root=self._seed_root, size_model=self.instr.size_model)

    # ------------------------------------------------------------------
    def _run_epoch(self, epoch: int, state: NetworkState) -> EpochRecord:
        patches_before = state.artifact_patches
        rebuilds_before = state.artifact_rebuilds

        # (1) churn.
        events = self.scenario.events_at(epoch, state)
        crashes_before = state.total_crashes
        joins_before = state.total_joins
        moves_before = state.total_moves
        self._slots = state.apply_all(events)
        crashes = state.total_crashes - crashes_before
        self._bumps += crashes  # one members_version bump per crash
        joins = state.total_joins - joins_before
        moved = state.total_moves > moves_before

        # (2) measure the damage.
        graph = (_ArtifactGraphView(state.artifacts())
                 if state.incremental else state.graph())
        k = self.scenario.k
        shortfalls = self._shortfalls(state, k)
        clients = state.n_live - len(state.members)
        availability = (1.0 if clients <= 0
                        else 1.0 - len(shortfalls) / clients)

        # (3) repair.
        if self.shards is not None:
            outcome, units, shards_active = self._repair_sharded(
                epoch, state, graph, shortfalls, k)
        else:
            outcome = self.policy.repair(state, graph, shortfalls, k,
                                         rng=self._rng, instr=self.instr)
            units, shards_active = (1 if shortfalls else 0), 0
        if outcome.demoted:
            self._change_members(state, outcome.demoted, promote=False)
        if outcome.promoted:
            self._change_members(state, outcome.promoted, promote=True)

        # (3b) decay: retire dominators the restored coverage no longer
        # needs (safe by construction — see repro.dynamics.demotion).
        decay = DemotionOutcome()
        if self.demoter is not None:
            decay = self.demoter.demote(state, k, instr=self.instr)
            if decay.demoted:
                self._change_members(state, decay.demoted, promote=False)

        # (4) verify the transition.
        deficient_after = len(self._shortfalls(state, k))

        return EpochRecord(
            epoch=epoch,
            n_live=state.n_live,
            n_members=len(state.members),
            crashes=crashes,
            joins=joins,
            moved=moved,
            deficient_before=len(shortfalls),
            worst_deficit_before=max(shortfalls.values(), default=0),
            uncovered_before=sum(1 for d in shortfalls.values() if d >= k),
            availability_before=availability,
            repaired=outcome.repaired,
            iterations=outcome.iterations,
            rounds=outcome.rounds + decay.rounds,
            messages=outcome.messages + decay.messages,
            touched=len(outcome.touched | decay.touched),
            locality=(len(outcome.touched | decay.touched) / state.n_live
                      if state.n_live else 0.0),
            promoted=len(outcome.promoted),
            demoted=len(outcome.demoted) + len(decay.demoted),
            deferred_deficit=outcome.deferred_deficit,
            deficient_after=deficient_after,
            fully_covered_after=deficient_after == 0,
            units=units,
            shards_active=shards_active,
            delta_patches=state.artifact_patches - patches_before,
            full_rebuilds=state.artifact_rebuilds - rebuilds_before,
            repair_transport=getattr(self.policy, "transport", "analytic"),
        )


def run_scenario(scenario: Scenario, policy: RepairPolicy, *,
                 instrumentation: Optional[Instrumentation] = None,
                 shards: Optional[int] = None, workers: int = 1,
                 executor: str = "thread",
                 incremental: bool = True,
                 demote: Optional[SurplusDemotion] = None) -> DynamicsResult:
    """Convenience wrapper: build a loop and run it to completion."""
    return MaintenanceLoop(scenario, policy, instrumentation=instrumentation,
                           shards=shards, workers=workers, executor=executor,
                           incremental=incremental, demote=demote).run()
