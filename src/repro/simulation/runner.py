"""The synchronous round loop.

:func:`run_protocol` drives every node's generator in lockstep:

1. at each round boundary, crash faults are applied;
2. every live node's generator is advanced with its inbox (messages
   delivered from the previous round);
3. queued outgoing messages are passed through the fault injectors,
   accounted (count, bits, max size), and become the next round's inboxes;
4. the loop ends when every generator has finished (or crashed), returning
   a :class:`~repro.types.RunStats`.

One generator ``yield`` == one communication round, matching the paper's
synchronous model where "in each round, every node can send a message to
each of its neighbors".
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.engine.instrumentation import Instrumentation
from repro.errors import SimulationError
from repro.simulation.faults import FaultInjector
from repro.simulation.network import SynchronousNetwork
from repro.simulation.trace import TraceRecorder
from repro.types import NodeId, RunStats, stable_sorted


def run_protocol(network: SynchronousNetwork, *,
                 max_rounds: int = 100_000,
                 injectors: Iterable[FaultInjector] = (),
                 trace: Optional[TraceRecorder] = None,
                 keep_round_stats: bool = False,
                 instrumentation: Optional[Instrumentation] = None,
                 reference: bool = False) -> RunStats:
    """Execute all node processes on ``network`` to completion.

    Parameters
    ----------
    network:
        A fully-populated :class:`SynchronousNetwork`.
    max_rounds:
        Safety valve: raise :class:`SimulationError` if the protocol has not
        terminated after this many rounds (catches livelock bugs).
    injectors:
        Fault injectors applied to every round's traffic and boundaries.
    trace:
        Optional event recorder; the runner emits ``"round"`` and
        ``"crash"`` events, and hands the recorder to node processes that
        declare a ``trace`` attribute.
    keep_round_stats:
        When true, ``RunStats.per_round`` is populated.
    instrumentation:
        Optional externally-owned accountant; by default a fresh
        :class:`~repro.engine.instrumentation.Instrumentation` is built
        from the network's size model.
    reference:
        When true, skip the columnar protocol stepping plane and drive
        the per-node generators even for stock protocols.  The per-node
        path is the reference oracle; the batched plane
        (:mod:`repro.simulation.columnar`) is pinned bit-identical to
        it.  Ineligible runs (exotic process subclasses, third-party
        injectors, tracing, strict bit budgets) fall back to the
        per-node loop automatically regardless of this flag.

    Returns
    -------
    RunStats
        Aggregate round/message/bit accounting for the execution.
    """
    injectors = list(injectors)

    if not reference and trace is None:
        from repro.simulation.columnar import try_columnar
        stats = try_columnar(network, max_rounds=max_rounds,
                             injectors=injectors,
                             keep_round_stats=keep_round_stats,
                             instrumentation=instrumentation)
        if stats is not None:
            return stats

    instr = instrumentation if instrumentation is not None else Instrumentation(
        network.size_model, keep_round_stats=keep_round_stats)

    # Hand the trace recorder to any process that wants one.
    if trace is not None:
        for proc in network.processes.values():
            if hasattr(proc, "trace"):
                proc.trace = trace

    generators: Dict[NodeId, object] = {}
    for node_id, proc in network.processes.items():
        proc.finished = False
        proc.crashed = False
        ctx = network.make_context(node_id)
        proc.ctx = ctx
        gen = proc.run(ctx)
        if not hasattr(gen, "send"):
            raise SimulationError(
                f"{type(proc).__name__}.run must be a generator (use 'yield')"
            )
        generators[node_id] = gen

    inboxes: Dict[NodeId, List[Tuple[NodeId, object]]] = {}
    live = set(generators)
    # Deterministic advance order, id-sorted: enqueue order — and hence
    # every per-destination inbox — is sorted by sender id.  This is the
    # delivery-order contract shared by all backends (the synchronizers
    # sort at consume time), which the columnar gather path and
    # order-sensitive float accumulations in protocols rely on.
    node_order = stable_sorted(generators)
    # Advance rows resolved once: (node_id, proc, ctx, gen, gen.send).
    advance_rows = [
        (node_id, network.processes[node_id],
         network.processes[node_id].ctx, generators[node_id],
         generators[node_id].send)
        for node_id in node_order
    ]

    for round_index in range(max_rounds + 1):
        # --- apply crash faults scheduled for this boundary -------------
        for injector in injectors:
            for victim in injector.crashes_at(round_index):
                if victim in live:
                    live.discard(victim)
                    proc = network.processes[victim]
                    proc.crashed = True
                    generators[victim].close()
                    if trace is not None:
                        trace.record(round_index, "crash", node=victim)

        if not live:
            break

        # --- advance every live generator one round ---------------------
        finished_now = []
        all_live = len(live) == len(advance_rows)
        for node_id, proc, ctx, gen, send in advance_rows:
            if not all_live and node_id not in live:
                continue
            ctx.round_index = round_index
            try:
                if round_index == 0:
                    next(gen)
                else:
                    send(inboxes.get(node_id, ()))
            except StopIteration:
                proc.finished = True
                finished_now.append(node_id)
        for node_id in finished_now:
            live.discard(node_id)

        # --- collect, filter, account, and deliver messages --------------
        batch = network.drain_batch()
        # Crash injectors silence records in batch form; loss draws one
        # Bernoulli vector over the expanded edge list.
        for injector in injectors:
            batch = injector.filter_batch(round_index, batch)

        inboxes, per_class = batch.deliver()

        if not live and not per_class:
            # Everyone finished this round and nothing is in flight
            # (records whose fan-out was entirely filtered count as
            # nothing in flight).
            break

        instr.begin_round()
        for count, sample in per_class.values():
            instr.payload_class(sample, count)
        if trace is not None:
            trace.record(round_index, "round",
                         messages=instr.round_messages,
                         bits=instr.round_bits, live=len(live))
        instr.end_round(round_index, len(live))
    else:
        raise SimulationError(
            f"protocol did not terminate within {max_rounds} rounds "
            f"({len(live)} node(s) still live)"
        )

    return instr.stats
