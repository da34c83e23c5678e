"""Execution backends and the shared ``mode=`` / ``seed=`` validation.

:func:`execute` runs a :class:`~repro.engine.program.RoundProgram` on one
of four backends:

========== =========================================================
backend    execution
========== =========================================================
direct     vectorized central simulation (numpy; large-n sweeps)
message    the faithful synchronous simulator, per-message accounting
async      alpha synchronizer over random link delays (Awerbuch [2])
async-beta beta synchronizer (spanning-tree safety detection)
========== =========================================================

All four consume the per-node RNG streams identically, so they produce
the same solution for the same seed; they differ in speed and in the
fidelity of the returned :class:`~repro.types.RunStats`.

Every solver entry point funnels its ``mode=`` argument through
:func:`resolve_backend` and its ``seed=`` through :func:`validate_seed`,
so unknown modes and malformed seeds raise the same error class with the
same message shape everywhere.
"""

from __future__ import annotations

import time
from typing import Callable, Iterable, List, Optional, Sequence

import numpy as np

from repro.engine.program import RoundProgram
from repro.errors import GraphError, UnknownModeError
from repro.types import RunStats

#: All engine backends, in documentation order.
BACKENDS = ("direct", "message", "async", "async-beta")

#: Backends that execute node processes on a transport (non-vectorized).
MESSAGE_BACKENDS = ("message", "async", "async-beta")


def resolve_backend(mode: str, *,
                    allowed: Sequence[str] = BACKENDS) -> str:
    """Validate a ``mode=`` argument; returns it unchanged.

    Raises
    ------
    UnknownModeError
        With the canonical message shape
        ``unknown mode 'x'; expected one of (...)``.
    """
    if mode not in allowed:
        raise UnknownModeError(
            f"unknown mode {mode!r}; expected one of {tuple(allowed)}"
        )
    return mode


def validate_seed(seed) -> Optional[int]:
    """Validate a ``seed=`` argument; returns it as a plain int (or None)."""
    if seed is None:
        return None
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise GraphError(
            f"seed must be an int or None, got {type(seed).__name__} {seed!r}"
        )
    return int(seed)


def execute(program: RoundProgram, mode: str = "direct", *,
            seed: int | None = None,
            delay: Callable[[np.random.Generator], float] | None = None,
            delay_seed: int | None = None,
            injectors: Iterable = (),
            reference: bool = False):
    """Run ``program`` on the backend selected by ``mode``.

    Parameters
    ----------
    program:
        The algorithm, written once as a :class:`RoundProgram`.
    mode:
        One of :data:`BACKENDS`.
    seed:
        Root seed for all per-node randomness (every backend derives the
        same per-node streams from it).
    delay / delay_seed:
        Link-delay sampler and its seed for the asynchronous backends
        (defaults: exponential with mean 1; ``delay_seed`` falls back to
        ``seed``).  Delays live on a separate RNG stream, so they never
        perturb protocol coin flips — asynchronous results equal
        synchronous ones for the same ``seed``.
    injectors:
        :class:`~repro.simulation.faults.FaultInjector` instances.  The
        ``message`` backend supports all of them; the asynchronous
        backends support message-dropping injectors (applied per payload
        at delivery time) but reject crash injectors
        (``kills_nodes = True``) — see
        :mod:`repro.simulation.faults` for the support matrix.  The
        vectorized ``direct`` backend has no messages to inject into and
        rejects any injector.
    reference:
        Run the backend's one reference oracle instead of its fast path:
        on ``direct`` the program's per-node reference implementation
        (:meth:`RoundProgram.direct_reference`) instead of its
        vectorized kernels, on ``message`` the per-node generator loop
        instead of the columnar protocol stepping plane
        (:mod:`repro.simulation.columnar`).  The asynchronous backends
        have no second path and ignore it.  Each fast path is pinned
        bit-for-bit against its oracle by
        ``tests/test_mode_equivalence.py`` and
        ``tests/test_protocol_steppers.py``.

    On ``message``, a program with a columnar stepper runs as a *lane
    run*: its node parameters go to the stepper as lane arrays
    (:meth:`RoundProgram.lanes`) and the result comes from the
    stepper's final arrays (:meth:`RoundProgram.collect_lanes`), so no
    node process is built.  Processes are built only for the oracle,
    the asynchronous backends, and runs the columnar plane declines.
    """
    backend = resolve_backend(mode)
    seed = validate_seed(seed)
    injectors = list(injectors)

    if backend == "direct":
        if injectors:
            raise UnknownModeError(
                "mode 'direct' does not support fault injectors "
                "(vectorized evaluation has no message traffic); "
                f"expected one of {MESSAGE_BACKENDS}"
            )
        # The message backends seed their network from the ``seed``
        # argument; make direct honor it the same way when it differs
        # from the seed the program was built with.
        if seed is not None and getattr(program, "seed", seed) != seed:
            program = program.reseeded(seed)
        if reference:
            return program.direct_reference(program.instrumentation())
        return program.direct(program.instrumentation())

    # Imported lazily: the simulation layer itself imports the engine
    # (runner/network use Instrumentation/GraphArtifacts), so a module-level
    # import here would close an initialization cycle.
    from repro.simulation.network import SynchronousNetwork

    if backend == "message" and not reference:
        lanes = _lanes_of(program)
        if lanes is not None:
            from repro.simulation import columnar

            net = SynchronousNetwork.for_lanes(
                program.network_graph, lanes, seed=seed,
                **program.network_kwargs)
            try:
                stats = columnar.try_columnar(
                    net, max_rounds=program.max_rounds(), injectors=injectors)
                stepper = lanes.stepper
            finally:
                # The stepper refers back to the network, which holds
                # the lanes: break the cycle so the run's arrays are
                # freed on return rather than at the next collection.
                lanes.stepper = None
            if stats is not None:
                return program.collect_lanes(stepper, stats)
            # Declined (third-party injector, strict bit budget, ...): the
            # per-node loop, without asking the columnar plane twice.
            reference = True

    processes = program.processes()
    net = SynchronousNetwork(program.network_graph, processes, seed=seed,
                             **program.network_kwargs)
    if backend == "message":
        from repro.simulation.runner import run_protocol

        stats = run_protocol(net, max_rounds=program.max_rounds(),
                             injectors=injectors, reference=reference)
    else:
        if backend == "async":
            from repro.simulation.asynchrony import run_protocol_async as runner
        else:
            from repro.simulation.beta import run_protocol_beta as runner
        astats = runner(net, delay=delay,
                        delay_seed=seed if delay_seed is None else delay_seed,
                        max_rounds=program.max_rounds(),
                        injectors=injectors)
        stats = astats.as_run_stats()
    assert isinstance(stats, RunStats)
    return program.collect(processes, stats)


def _lanes_of(program: RoundProgram):
    """``program.lanes()``, unless a subclass overrides ``processes``
    below the class that defines ``lanes``: its processes are not the
    ones the lanes describe, so it runs them (the per-node loop, or a
    stepper if they are of a registered exact type)."""
    cls = type(program)
    owner = {name: next(c for c in cls.__mro__ if name in vars(c))
             for name in ("lanes", "processes")}
    if owner["lanes"] is not owner["processes"]:
        return None
    return program.lanes()


def execute_batch(program: RoundProgram, seeds: Sequence[int],
                  mode: str = "direct", *,
                  delay: Callable[[np.random.Generator], float] | None = None,
                  delay_seed: int | None = None,
                  injectors: Iterable = ()) -> list:
    """Run ``program`` once per seed; returns one result per seed.

    On the ``direct`` backend, a program that implements
    :meth:`RoundProgram.direct_batch` executes the *entire* Monte Carlo
    sweep in one replica-batched kernel pass — every vecrng/kernel lane
    is a ``(replica, node)`` pair, the graph artifacts are shared, and
    per-replica results (solution + :class:`~repro.types.RunStats`) come
    back bit-identical to the sequential loop ``[execute(program,
    seed=s) for s in seeds]`` (pinned by the batch-equivalence suite in
    ``tests/test_mode_equivalence.py``).  Everything else — message
    backends, programs without a batched kernel, or ``seed=None``
    replicas — runs exactly that sequential loop.
    """
    backend = resolve_backend(mode)
    seed_list = [validate_seed(s) for s in seeds]
    injectors = list(injectors)
    if (backend == "direct" and not injectors and seed_list
            and all(s is not None for s in seed_list)
            and program.supports_direct_batch()):
        instrs = [program.instrumentation() for _ in seed_list]
        return program.direct_batch(instrs, seed_list)
    return [execute(program, backend, seed=s, delay=delay,
                    delay_seed=delay_seed, injectors=injectors)
            for s in seed_list]


def execute_grid(program: RoundProgram, graphs: Sequence,
                 seeds: Sequence[int], ks: Sequence[int],
                 mode: str = "direct", *,
                 timing: dict | None = None) -> List[List[list]]:
    """Run the full ``graphs x ks x seeds`` grid; returns
    ``results[graph][k][seed]``.

    On the ``direct`` backend, a program implementing
    :meth:`RoundProgram.direct_grid` executes every eligible graph's
    whole ``ks x seeds`` plane in stacked kernel dispatches — the
    topology CSRs are concatenated (:class:`StackedGraphs`), the vecrng
    lane pool widens to ``sum_g(R x n_g)``, and the k axis is fused over
    one shared Part I — with per-(graph, k, replica) results
    bit-identical to per-point ``execute_batch(program.grid_point(g, k),
    seeds)`` calls (pinned by ``tests/test_grid_equivalence.py``).
    Graphs the program declares ineligible (:meth:`grid_supported` —
    e.g. exotic sensing subclasses), message backends and ``None``
    seeds take exactly those per-point calls instead; a mixed list
    partitions cleanly.

    ``timing`` (optional dict, mutated): filled with ``path`` ("grid",
    "per-point", or "mixed"), ``grid_graphs`` / ``per_point_graphs``
    counts, and ``grid_seconds`` / ``per_point_seconds`` wall-clock —
    the numbers :class:`~repro.experiments.base.ExperimentReport`
    surfaces so BENCH artifacts record which path ran.
    """
    backend = resolve_backend(mode)
    seed_list = [validate_seed(s) for s in seeds]
    graph_list = list(graphs)
    k_list = [int(k) for k in ks]
    results: List[List[list]] = [[None] * len(k_list) for _ in graph_list]
    stats = {"path": "per-point", "grid_graphs": 0, "per_point_graphs": 0,
             "grid_seconds": 0.0, "per_point_seconds": 0.0}
    eligible = (backend == "direct"
                and bool(seed_list) and bool(k_list)
                and all(s is not None for s in seed_list)
                and program.supports_direct_grid())
    grid_idx = [i for i, g in enumerate(graph_list)
                if program.grid_supported(g)] if eligible else []
    if grid_idx:
        t0 = time.perf_counter()
        sub = program.direct_grid([graph_list[i] for i in grid_idx],
                                  k_list, seed_list)
        stats["grid_seconds"] = time.perf_counter() - t0
        for j, i in enumerate(grid_idx):
            results[i] = sub[j]
        stats["grid_graphs"] = len(grid_idx)
        stats["path"] = "grid" if len(grid_idx) == len(graph_list) \
            else "mixed"
    rest = [i for i in range(len(graph_list)) if i not in set(grid_idx)]
    if rest:
        t0 = time.perf_counter()
        for i in rest:
            results[i] = [execute_batch(program.grid_point(graph_list[i], k),
                                        seed_list, backend)
                          for k in k_list]
        stats["per_point_seconds"] = time.perf_counter() - t0
        stats["per_point_graphs"] = len(rest)
    if timing is not None:
        timing.update(stats)
    return results
