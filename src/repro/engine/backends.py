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

:func:`execute` runs one seed on one graph.  Seed sweeps and graph x k
x seed grids are shapes of Algorithm 3's kernel grid, the one program
that batches (:func:`repro.core.udg.solve_kmds_udg_grid`).

Every solver entry point funnels its ``mode=`` argument through
:func:`resolve_backend` and its ``seed=`` through :func:`validate_seed`,
so unknown modes and malformed seeds raise the same error class with the
same message shape everywhere.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence

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
        Run the one reference oracle, the per-node generator loop on
        the synchronous simulator, instead of the fast path (the
        vectorized kernels on ``direct``, the columnar protocol
        stepping plane of :mod:`repro.simulation.columnar` on
        ``message``).  On ``direct`` the loop runs from the program's
        own seed when ``seed=None`` and returns message-mode
        ``RunStats`` and details.  The asynchronous backends have no
        second path and ignore it.  The fast paths are pinned to the
        oracle by ``tests/test_stepper_differential.py`` and
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
        if not reference:
            return program.direct(program.instrumentation())
        # The oracle is the per-node loop, run from the program's seed.
        backend = "message"
        seed = getattr(program, "seed", seed)

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
