"""Columnar protocol stepping plane: whole-round batched execution.

:func:`repro.simulation.runner.run_protocol` steps every node's
generator in Python each round; for the stock protocols that loop is
pure data-parallel work wearing a coroutine costume.  This module runs
the *same* rounds as array programs: one stepper per protocol class
(registered in :data:`_STEPPER_FACTORIES` by
:mod:`repro.simulation.steppers`) advances all lanes at once, inbox
loops become CSR segment-reductions dispatched through
:mod:`repro.engine.dispatch` (``inbox_reduce`` / ``state_scatter``),
and the fault injectors are emulated on flat edge arrays.

A run starts from one of two sources:

- **lanes** — ``execute(program, "message")`` hands over the program's
  node parameters as lane arrays (:meth:`RoundProgram.lanes
  <repro.engine.program.RoundProgram.lanes>`, on a process-free
  :meth:`SynchronousNetwork.for_lanes
  <repro.simulation.network.SynchronousNetwork.for_lanes>`), and the
  program reads its result off the stepper's final arrays: no
  :class:`~repro.simulation.node.NodeProcess` is ever built;
- **processes** — callers that hand-build processes and call
  ``run_protocol`` (E17's lossy runs, message-mode repair): the factory
  derives the same parameters from the processes, and
  :meth:`ColumnarStepper.finalize` writes the final state back onto
  them.

The contract is **bit-identity** with the per-node path (pinned by
``tests/test_transport_equivalence.py``): same protocol state, same
:class:`~repro.types.RunStats`, same loss-injector RNG consumption.
The invariants that make that possible:

- **lane order** — lanes are the id-sorted node order
  (:func:`lane_order`), the runner's advance order, so enqueue
  order and per-inbox sender order match the per-node path exactly;
- **edge-array traffic** — a round's sends are ``(esrc, edst)`` lane
  arrays in enqueue order.  Record boundaries never matter to the
  built-in injectors: the crash filter is edge-wise, and the loss
  injector's single ``rng.random(total)`` draw covers exactly the
  edges surviving earlier filters, in enqueue order — the same
  sequence the per-node path's ``filter_batch`` sees.  The loop keeps
  "every emitted edge survives" implicit (no mask at all) until a
  crash mask or a stepper's ``alive0`` applies, so a loss draw is its
  only per-round array work: one draw, one compare, one count;
- **per-round single class** — every stock protocol sends one message
  class per round, so bit accounting is one
  ``Instrumentation.payload_class(sample, delivered)`` call, exactly
  what :meth:`RoundBatch.deliver`'s per-class tally produces;
- **lane-space streams** — node randomness comes from one
  :func:`~repro.simulation.vecrng.node_stream_pool` per run, whose
  lane ``i`` *is* the stream ``network.rngs`` gives lane ``i``'s node:
  coin flips and identifiers are vector draws over lane arrays, and a
  ``choice``-based pick takes the lane's own ``Generator``.  The pool
  starts every stream at its beginning, so a run is eligible only
  while ``network.rngs`` is :attr:`~repro.simulation.rng.LazyNodeRngs.fresh`.
  A run that draws hands its pool to ``network.rngs``, and any later
  run on the network continues the streams on the per-node loop.

Eligibility is decided *before* any injector state is touched
(:func:`resolve_stepper`): a registered exact process type (homogeneous
processes, or the program's lanes), only built-in injector types, no
trace, no strict bit budget, fresh node streams, and neighbor rows
whose stable order is the lane order (:attr:`MessagePlan.exact`; only
mixed labels can break it).
Anything else — exotic protocol subclasses, third-party
``filter_messages`` injectors — returns ``None`` and the runner falls
back to the per-node loop automatically.  The per-node path also
remains directly reachable via ``run_protocol(..., reference=True)`` /
``execute(..., reference=True)`` as the reference oracle.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple, Type

import numpy as np

from repro.engine import dispatch
from repro.engine.instrumentation import Instrumentation
from repro.errors import GraphError, SimulationError
from repro.simulation import vecrng
from repro.simulation.faults import (CrashFaultInjector, FaultInjector,
                                     MessageLossInjector)

__all__ = [
    "ColumnarStepper",
    "MessagePlan",
    "RoundTraffic",
    "inbox_reduce",
    "lane_order",
    "plan_for",
    "register_stepper",
    "resolve_stepper",
    "run_columnar",
    "take",
    "try_columnar",
]


# ----------------------------------------------------------------------
# Dispatched reductions (numpy references live here, at the call site)
# ----------------------------------------------------------------------

def inbox_reduce(indptr: np.ndarray, values: np.ndarray, mask: np.ndarray,
                 init: np.ndarray) -> np.ndarray:
    """Per-row masked inbox sum: ``out[i] = init[i] + sum of
    (mask[e] ? values[e] : 0.0) over row i``, strictly left to right.

    ``indptr`` is a receiver-major CSR row pointer; each row is one
    lane's inbox in sender order.  The masked-out term is *added as
    +0.0* rather than skipped, so the native kernel and this numpy
    reference perform the identical float-add sequence — bit-equal on
    every input.  (The protocols' own skip-the-absent-sender semantics
    coincide with the +0.0 add because no accumulated value is ever
    ``-0.0``; each stepper documents that argument where it applies.)
    """
    out = np.empty(indptr.size - 1, dtype=np.float64)
    impl = dispatch.kernel("inbox_reduce")
    if impl is not None:
        impl(indptr, values, np.ascontiguousarray(mask, dtype=np.uint8),
             np.ascontiguousarray(init, dtype=np.float64), out)
        return out
    # numpy reference: column-wise jagged accumulation — inbox position
    # j of every row is added at step j, i.e. the same left-to-right
    # per-row order as the C kernel's inner loop.
    out[:] = init
    if values.size:
        vals = np.where(mask != 0, values, 0.0)
        deg = np.diff(indptr)
        starts = indptr[:-1]
        rows = np.arange(indptr.size - 1)
        for j in range(int(deg.max())):
            sel = deg > j
            out[rows[sel]] += vals[starts[sel] + j]
    return out


def take(values: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Permutation gather ``values[idx]`` through the ``state_scatter``
    dispatch entry (float64 payload columns and uint8 masks go native;
    anything else uses ``np.take``, which is the same pure gather, and
    never consults the registry)."""
    out = np.empty(idx.size, dtype=values.dtype)
    if values.dtype.itemsize in (1, 8) and values.dtype.kind in "fu" \
            and values.flags.c_contiguous:
        impl = dispatch.kernel("state_scatter")
        if impl is not None:
            impl(idx, values, out)
            return out
    np.take(values, idx, out=out)
    return out


# ----------------------------------------------------------------------
# Lane-space topology
# ----------------------------------------------------------------------

def lane_order(artifacts) -> Tuple[List, np.ndarray]:
    """A graph's lanes: its nodes in stable order
    (:func:`~repro.types.stable_sorted`), and the artifact index of each
    lane's node.  Cached on the artifacts until their next edit.

    Integer labels sort as one stable argsort; any other labels take
    ``stable_sorted`` itself.  Programs gather their lane-ordered
    parameter arrays with the index (see
    :class:`~repro.engine.program.Lanes`)."""
    nodes, order, _ = _lane_order(artifacts)
    return nodes, order


def _lane_order(artifacts) -> Tuple[List, np.ndarray, bool]:
    """:func:`lane_order`, plus whether the labels sorted naturally
    (``stable_sorted`` did not fall back to ``repr``)."""
    cached = getattr(artifacts, "_lane_order", None)
    if cached is not None and cached[0] == artifacts.version:
        return cached[1:]
    try:
        ids = artifacts.nodes_array()
    except GraphError:
        ids = None
    natural = True
    if ids is not None:
        order = np.argsort(ids, kind="stable")
        if np.array_equal(order, np.arange(order.size)):
            nodes = list(artifacts.nodes)
        else:
            nodes = list(map(artifacts.nodes.__getitem__, order.tolist()))
    else:
        # ``stable_sorted``, noting whether it falls back to ``repr``.
        try:
            nodes = sorted(artifacts.nodes)
        except TypeError:
            nodes = sorted(artifacts.nodes, key=repr)
            natural = False
        index = artifacts.index
        order = np.fromiter(map(index.__getitem__, nodes), dtype=np.int64,
                            count=len(nodes))
    artifacts._lane_order = (artifacts.version, nodes, order, natural)
    return nodes, order, natural


class MessagePlan:
    """Static lane-space topology for one columnar run.

    Lanes are the id-sorted node order (:func:`lane_order`).  The open
    adjacency is held twice: sender-major (``esrc`` / ``edst`` /
    ``indptr``, row = one lane's broadcast fan-out in stable neighbor
    order — the enqueue order of a full-broadcast round) and
    receiver-major (``rperm`` gathers a sender-major per-edge column
    into inbox order, and its inverse ``rpos`` maps a sender-major edge
    to its inbox position; ``rindptr`` rows are per-lane inboxes with
    senders ascending, because the stable argsort preserves the
    sender-major order among equal destinations).

    Built from the artifacts' CSR: the open rows (the closed CSR minus
    its diagonal), relabelled to lanes and put in (sender, receiver)
    lane order by one sort — no per-node view is read.

    The steppers take a row's lane order for the node's stable neighbor
    order (``ctx.neighbors``, and a broadcast's fan-out).  The two agree
    whenever the labels sort naturally; when mixed labels made
    ``stable_sorted`` fall back to ``repr``, a row of mutually
    comparable labels still sorts naturally, so the rows are compared
    with the per-node view and ``exact`` records whether every one
    agrees (:func:`resolve_stepper` declines the run otherwise).
    """

    def __init__(self, artifacts):
        self.nodes, order, natural = _lane_order(artifacts)
        #: Artifact index of each lane's node.
        self.order = order
        n = self.n = len(self.nodes)
        self._lane_of: Optional[Dict] = None
        indptr_a, indices_a = artifacts.open_csr()
        deg_a = artifacts.degrees
        if np.array_equal(order, np.arange(n)):
            # Lanes are artifact indices and the rows are index-sorted.
            deg = deg_a
            self.esrc = np.repeat(np.arange(n, dtype=np.int64), deg)
            self.edst = np.asarray(indices_a, dtype=np.int64)
        else:
            lane = np.empty(n, dtype=np.int64)
            lane[order] = np.arange(n, dtype=np.int64)
            deg = deg_a[order]
            keys = ((lane[np.repeat(np.arange(n, dtype=np.int64), deg_a)]
                     << 32) | lane[indices_a])
            keys.sort(kind="stable")
            self.esrc = keys >> 32
            self.edst = keys & 0xFFFFFFFF
        self.deg = deg
        self.indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(self.deg, out=self.indptr[1:])
        self.E = int(self.indptr[-1])
        # Receiver-major view of the same edge set.
        self.rperm = np.argsort(self.edst, kind="stable")
        self.rpos = np.empty_like(self.rperm)
        self.rpos[self.rperm] = np.arange(self.E, dtype=np.int64)
        self.rsrc = self.esrc[self.rperm]
        self.rindptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.edst, minlength=n), out=self.rindptr[1:])
        self.rdst = np.repeat(np.arange(n, dtype=np.int64),
                              np.diff(self.rindptr))
        self.exact = natural or self._rows_match(artifacts.sorted_neighbors)

    def _rows_match(self, sorted_neighbors) -> bool:
        lane_of, bounds = self.lane_of, self.indptr.tolist()
        edst = self.edst.tolist()
        return all([lane_of[w] for w in sorted_neighbors[v]]
                   == edst[bounds[i]:bounds[i + 1]]
                   for i, v in enumerate(self.nodes))

    @property
    def lane_of(self) -> Dict:
        """Node id -> lane (built on first use: only crash schedules and
        per-lane picks that name nodes look lanes up)."""
        if self._lane_of is None:
            self._lane_of = {v: i for i, v in enumerate(self.nodes)}
        return self._lane_of

    def to_receiver(self, column: np.ndarray) -> np.ndarray:
        """Reorder a sender-major per-edge column into inbox order."""
        return take(column, self.rperm)

    def to_artifact_order(self, column: np.ndarray) -> np.ndarray:
        """Reorder a per-lane column into artifact-index order (the
        order of ``artifacts.nodes``, which results list nodes in)."""
        out = np.empty_like(column)
        out[self.order] = column
        return out


def plan_for(network) -> MessagePlan:
    """The network's :class:`MessagePlan`, cached on its graph artifacts.

    The plan is pure topology (a network carries exactly one process
    per graph node, or the graph's lanes, so the lane set and order are
    determined by the graph alone) and every stepper treats it as
    read-only, so repeated runs on the same graph — sweeps, benchmarks,
    the repair loop — share one build.  The artifact version token
    invalidates the cache whenever the graph is patched or mutated in
    place.
    """
    artifacts = network._artifacts
    cached = getattr(artifacts, "_message_plan", None)
    if cached is not None and cached[0] == artifacts.version:
        return cached[1]
    plan = MessagePlan(artifacts)
    artifacts._message_plan = (artifacts.version, plan)
    return plan


class RoundTraffic:
    """One round's emitted traffic in edge-array form.

    ``esrc`` / ``edst`` are lane indices in enqueue order; ``alive0``
    optionally masks edges whose record was never emitted (non-sending
    lanes on a shared full-broadcast edge set) — those edges are
    invisible to the injectors, as opposed to *dropped* by them.
    ``sample`` is one message instance of the round's (single) class,
    used for per-class bit accounting.
    """

    __slots__ = ("sample", "esrc", "edst", "alive0")

    def __init__(self, sample, esrc: np.ndarray, edst: np.ndarray,
                 alive0: Optional[np.ndarray] = None):
        self.sample = sample
        self.esrc = esrc
        self.edst = edst
        self.alive0 = alive0


class ColumnarStepper:
    """Base class for per-protocol batched steppers.

    A stepper owns all protocol state as lane-indexed arrays and
    replays one runner *advance* per :meth:`advance` call: consume the
    previous round's delivery mask, mutate state, emit this round's
    traffic, and report the lanes whose generators would have raised
    ``StopIteration``.  Crashed lanes are frozen via :meth:`crash` and
    must never advance again.

    Its parameters come from a :class:`~repro.engine.program.Lanes`
    record (the program's, or one its factory derived from the
    processes); ``procs`` lists the processes in lane order on a
    process run and is empty on a lane run.
    """

    #: Inclusive widths of every bounded ``integers`` draw the stepper
    #: makes (see :func:`~repro.simulation.vecrng.grid_streams`).
    bounded_ranges: Tuple[int, ...] = ()

    def __init__(self, network, plan: MessagePlan):
        self.network = network
        self.plan = plan
        procs = network.processes
        self.procs = [procs[v] for v in plan.nodes] if procs else []
        self._streams = None

    @property
    def streams(self):
        """The run's node streams over the plan's lanes, seeded on first
        draw (so deterministic protocols never pay for them).

        The pool is handed to ``network.rngs`` as soon as it exists:
        nothing reads those during a columnar run, and any lookup after
        it, even after a raise, continues each node's stream from where
        this run left it."""
        if self._streams is None:
            self._streams = vecrng.node_stream_pool(
                self.plan.nodes, self.network.seed,
                bounded_ranges=self.bounded_ranges)
            self.network.rngs.adopt(self._streams)
        return self._streams

    def crash(self, lane: int) -> None:
        raise NotImplementedError

    def advance(self, round_index: int, alive_prev: Optional[np.ndarray]
                ) -> Tuple[Optional[RoundTraffic], Sequence[int]]:
        """Advance every live lane one round.

        ``alive_prev`` is the surviving-edge mask over the traffic this
        stepper emitted *last* round (None on round 0 / empty rounds).
        Returns ``(traffic, finished_lanes)``.
        """
        raise NotImplementedError

    def finalize(self) -> None:
        """Write final lane state back onto the process objects (called
        on process runs only; a lane run's program reads the arrays)."""
        raise NotImplementedError


# ----------------------------------------------------------------------
# Stepper registry and eligibility
# ----------------------------------------------------------------------

#: Exact process type -> factory(network, injectors) -> stepper | None.
_STEPPER_FACTORIES: Dict[Type, Callable] = {}

#: Injector types whose effect the columnar loop emulates exactly.
#: Anything else (third-party ``filter_messages`` subclasses included)
#: makes the run ineligible — checked by *exact* type, so subclasses
#: of the built-ins also fall back.
_BUILTIN_INJECTORS = (CrashFaultInjector, MessageLossInjector)


def register_stepper(proc_type: Type):
    """Class/function decorator registering a stepper factory for one
    exact protocol-node type."""
    def deco(factory):
        _STEPPER_FACTORIES[proc_type] = factory
        return factory
    return deco


def resolve_stepper(network, injectors: Sequence[FaultInjector]
                    ) -> Optional[ColumnarStepper]:
    """Build a stepper for this run, or None to use the per-node loop.

    Every check here reads types and static configuration only — no
    injector RNG or crash state is touched, so a None (fallback) is
    side-effect free.  A lane run's stepper is also recorded on its
    :class:`~repro.engine.program.Lanes` (``lanes.stepper``), where the
    program reads the final arrays.
    """
    from repro.simulation import steppers  # noqa: F401  (registers)

    lanes = network.lanes
    if lanes is not None:
        ptype = lanes.kind
    else:
        procs = network.processes
        if not procs:
            return None
        ptype = type(next(iter(procs.values())))
    factory = _STEPPER_FACTORIES.get(ptype)
    if factory is None:
        return None
    if lanes is None and any(type(p) is not ptype
                             for p in network.processes.values()):
        return None
    if any(type(inj) not in _BUILTIN_INJECTORS for inj in injectors):
        return None
    if network.strict_message_bits is not None:
        return None
    if not network.rngs.fresh:
        # An earlier run on this network may have advanced the node
        # streams; a stepper's pool would restart them.
        return None
    if not plan_for(network).exact:
        return None
    stepper = factory(network, injectors)
    if lanes is not None:
        lanes.stepper = stepper
    return stepper


# ----------------------------------------------------------------------
# The batched round loop
# ----------------------------------------------------------------------

def run_columnar(network, stepper: ColumnarStepper, *,
                 max_rounds: int,
                 injectors: Sequence[FaultInjector],
                 keep_round_stats: bool = False,
                 instrumentation: Optional[Instrumentation] = None):
    """Run one protocol to completion on the columnar plane.

    Mirrors :func:`repro.simulation.runner.run_protocol` step for step
    — crash boundaries, advance, injector filtering, per-class
    accounting, termination conditions, the round counter — with the
    per-node generator pass replaced by ``stepper.advance``.  Process
    flags (``finished`` / ``crashed`` / ``ctx``) and
    :meth:`ColumnarStepper.finalize` apply to process runs only.
    """
    plan = stepper.plan
    instr = instrumentation if instrumentation is not None else \
        Instrumentation(network.size_model, keep_round_stats=keep_round_stats)
    procs = network.processes

    for proc in procs.values():
        proc.finished = False
        proc.crashed = False
        # No contexts: lanes never run generator code, and nothing
        # reads ``proc.ctx`` after a synchronous run.
        proc.ctx = None

    live = np.ones(plan.n, dtype=bool)
    live_count = plan.n
    # Per crash injector: the lane mask mirroring its ``crashed`` set
    # (seeded from any pre-existing state, since ``filter_batch``
    # consults the full set, not just this run's victims), and whether
    # it has marked any lane yet.  Only crash injectors have crash
    # boundaries: a loss injector's ``crashes_at`` is the base class's
    # empty set.
    crash_masks: List[Optional[np.ndarray]] = []
    crash_any: List[bool] = []
    for inj in injectors:
        if type(inj) is CrashFaultInjector:
            mask = np.zeros(plan.n, dtype=bool)
            for v in inj.crashed:
                lane = plan.lane_of.get(v)
                if lane is not None:
                    mask[lane] = True
            crash_masks.append(mask)
            crash_any.append(bool(mask.any()))
        else:
            crash_masks.append(None)
            crash_any.append(False)
    crashing = [(j, inj, cmask) for j, (inj, cmask)
                in enumerate(zip(injectors, crash_masks))
                if cmask is not None]
    # The all-survive mask a stepper receives after a round nothing
    # filtered; read-only, shared across rounds of one edge count.
    everyone = np.ones(0, dtype=bool)

    alive: Optional[np.ndarray] = None

    for round_index in range(max_rounds + 1):
        # --- crash boundaries (mirrors the runner exactly) --------------
        for j, inj, cmask in crashing:
            for victim in inj.crashes_at(round_index):
                lane = plan.lane_of.get(victim)
                if lane is None:
                    continue
                cmask[lane] = True
                crash_any[j] = True
                if live[lane]:
                    live[lane] = False
                    live_count -= 1
                    if procs:
                        procs[victim].crashed = True
                    stepper.crash(lane)

        if not live_count:
            break

        # --- advance all live lanes one round ---------------------------
        traffic, finished = stepper.advance(round_index, alive)
        if len(finished):
            if procs:
                for lane in finished:
                    procs[plan.nodes[lane]].finished = True
            live[finished] = False
            live_count = int(np.count_nonzero(live))

        # --- injector filtering on the flat edge set --------------------
        # ``alive`` stays None while every emitted edge survives;
        # ``delivered`` counts the survivors either way.
        if traffic is None or traffic.esrc.size == 0:
            # No records emitted: crash filtering is vacuous and the
            # loss injector skips empty batches without drawing.
            traffic, alive, delivered = None, None, 0
        else:
            alive = traffic.alive0
            delivered = (traffic.esrc.size if alive is None
                         else int(np.count_nonzero(alive)))
            for j, (inj, cmask) in enumerate(zip(injectors, crash_masks)):
                if cmask is not None:
                    # CrashFaultInjector.filter_batch: drop records from
                    # crashed senders, block crashed destinations.
                    if crash_any[j]:
                        dead = cmask[traffic.esrc] | cmask[traffic.edst]
                        if alive is None:
                            alive = ~dead
                        else:
                            alive &= ~dead
                        delivered = int(np.count_nonzero(alive))
                elif inj.loss_rate != 0.0 and delivered:
                    # MessageLossInjector.filter_batch: one Bernoulli
                    # vector over the edges surviving earlier filters,
                    # in enqueue order; zero surviving edges draw
                    # nothing (the reference's total == 0 early-out).
                    keep = inj.rng.random(delivered) >= inj.loss_rate
                    kept = int(np.count_nonzero(keep))
                    inj.dropped += delivered - kept
                    if kept != delivered:
                        if alive is None:
                            alive = keep
                        else:
                            alive[alive] = keep
                        delivered = kept
            if alive is None:
                if everyone.size != traffic.esrc.size:
                    everyone = np.ones(traffic.esrc.size, dtype=bool)
                    everyone.flags.writeable = False
                alive = everyone

        if not live_count and delivered == 0:
            break

        instr.begin_round()
        if delivered:
            instr.payload_class(traffic.sample, delivered)
        instr.end_round(round_index, live_count)
    else:
        raise SimulationError(
            f"protocol did not terminate within {max_rounds} rounds "
            f"({live_count} node(s) still live)"
        )

    if procs:
        stepper.finalize()
    return instr.stats


def try_columnar(network, *, max_rounds: int,
                 injectors: Sequence[FaultInjector],
                 keep_round_stats: bool = False,
                 instrumentation: Optional[Instrumentation] = None):
    """Batched execution if this run is eligible, else None (fall back
    to the per-node loop; no injector state has been consumed)."""
    stepper = resolve_stepper(network, injectors)
    if stepper is None:
        return None
    return run_columnar(network, stepper, max_rounds=max_rounds,
                        injectors=injectors,
                        keep_round_stats=keep_round_stats,
                        instrumentation=instrumentation)
