"""The round-program protocol: one algorithm definition, any backend.

A :class:`RoundProgram` captures everything the engine needs to execute a
distributed algorithm:

- ``direct(instr)`` — the vectorized/centralized kernel (numpy over the
  cached :class:`~repro.engine.artifacts.GraphArtifacts`), charging its
  analytic round/message schedule on the given
  :class:`~repro.engine.instrumentation.Instrumentation`;
- ``lanes()`` / ``collect_lanes(stepper, stats)`` — the lane hook of
  programs with a columnar stepper (:mod:`repro.simulation.steppers`):
  every node's parameters as scalars and lane-ordered arrays
  (:class:`Lanes`), and the result read back from the stepper's final
  lane arrays.  ``execute(program, "message")`` runs these without
  building a single node process;
- ``processes()`` — one :class:`~repro.simulation.node.NodeProcess`
  generator per node, executable on the synchronous simulator *or* on
  either asynchronous synchronizer (the generators are transport-
  oblivious); the per-node oracle (``reference=True``), the
  asynchronous backends and runs the columnar plane declines use them;
- ``collect(processes, stats)`` — assemble the algorithm's result object
  from the final node states plus the transport's accounting.

All paths must consume the per-node RNG streams identically, so every
backend produces the same output for the same seed (asserted by
``tests/test_mode_equivalence.py``; the lane and process paths are
pinned against each other by ``tests/test_protocol_steppers.py``).
"""

from __future__ import annotations

import copy
from typing import List, Optional, Sequence, Type

from repro.engine.artifacts import GraphArtifacts
from repro.engine.instrumentation import Instrumentation
from repro.types import RunStats


class Lanes:
    """A program's node parameters for a process-free columnar run.

    ``kind`` is the exact process type whose registered stepper runs the
    lanes; every other keyword becomes an attribute holding a scalar
    (shared by every lane) or a lane-ordered array.  Lane ``i`` is the
    ``i``-th node in stable order (:func:`~repro.types.stable_sorted`
    over the graph's nodes, the order of
    :func:`~repro.simulation.columnar.lane_order`).  The stepper
    factories build the same record from hand-built processes, so one
    stepper constructor serves both kinds of run.

    After a lane run, ``stepper`` is the stepper whose final lane arrays
    hold the result (see :meth:`RoundProgram.collect_lanes`).
    """

    def __init__(self, kind: Type, **params):
        self.kind = kind
        self.stepper = None
        self.__dict__.update(params)


class RoundProgram:
    """Base class for engine-executable algorithms.

    Attributes
    ----------
    artifacts:
        The cached :class:`GraphArtifacts` of the instance graph.
    network_graph:
        The object handed to :class:`SynchronousNetwork` for
        message-passing backends.  Defaults to ``artifacts.graph``;
        geometric programs override it with the wrapper that provides
        distance sensing (e.g. a :class:`UnitDiskGraph`).
    network_kwargs:
        Extra keyword arguments for the network constructor
        (``value_bits``, ``strict_message_bits``, ...).
    """

    network_kwargs: dict = {}

    def __init__(self, artifacts: GraphArtifacts):
        self.artifacts = artifacts
        self.network_graph = artifacts.graph

    # ------------------------------------------------------------------
    def instrumentation(self) -> Instrumentation:
        """The accountant handed to :meth:`direct` (size model matches the
        message-passing backends')."""
        value_bits = self.network_kwargs.get("value_bits")
        return Instrumentation.for_n(self.artifacts.n, value_bits=value_bits)

    def direct(self, instr: Instrumentation):
        """Vectorized execution; returns the algorithm's result object."""
        raise NotImplementedError

    def direct_reference(self, instr: Instrumentation):
        """Per-node reference implementation of :meth:`direct`.

        Kernelized programs override this with the pre-vectorization
        loop (the bit-exactness oracle behind
        ``execute(..., reference=True)``); the default simply
        runs :meth:`direct` for programs whose direct path has no
        separate kernel layer.
        """
        return self.direct(instr)

    def reseeded(self, seed) -> "RoundProgram":
        """A shallow copy of this program with its root ``seed``
        replaced (artifacts and instance data are shared).

        Lets ``execute(program, seed=s)`` honor ``s`` on the ``direct``
        backend the way the message-passing backends do, and lets
        ``execute_batch`` fall back to a sequential per-seed loop.
        """
        clone = copy.copy(self)
        clone.seed = seed
        return clone

    def supports_direct_batch(self) -> bool:
        """Whether :meth:`direct_batch` can execute this program (i.e.
        the subclass overrides it; programs may add instance checks)."""
        return type(self).direct_batch is not RoundProgram.direct_batch

    def direct_batch(self, instrs: Sequence[Instrumentation],
                     seeds: Sequence[int]) -> List:
        """Replica-batched vectorized execution: run the whole program
        once per seed in one kernel pass (lane = (replica, node)),
        returning one result object per seed.

        Must be bit-identical to ``[reseeded(s).direct(instr) for s,
        instr in zip(seeds, instrs)]`` — pinned by the batch-equivalence
        suite in ``tests/test_mode_equivalence.py``.
        """
        raise NotImplementedError

    def supports_direct_grid(self) -> bool:
        """Whether :meth:`direct_grid` can execute this program family
        (i.e. the subclass overrides it; per-*graph* eligibility is the
        finer :meth:`grid_supported` check)."""
        return type(self).direct_grid is not RoundProgram.direct_grid

    def grid_supported(self, graph) -> bool:
        """Whether :meth:`direct_grid` can take this particular graph
        (subclasses refine; ineligible graphs run per-point)."""
        return self.supports_direct_grid()

    def grid_point(self, graph, k) -> "RoundProgram":
        """A single-point program for ``(graph, k)`` with this program's
        policy/seed — the per-point fallback unit of
        :func:`~repro.engine.backends.execute_grid`."""
        raise NotImplementedError

    def direct_grid(self, graphs: Sequence, ks: Sequence[int],
                    seeds: Sequence[int]) -> List[List[List]]:
        """Grid-batched vectorized execution: the full
        ``graphs x ks x seeds`` grid in stacked kernel dispatches,
        returning ``results[graph][k][seed]``.

        Must be bit-identical to per-point
        ``execute_batch(grid_point(g, k), seeds)`` calls — pinned by
        ``tests/test_grid_equivalence.py``.
        """
        raise NotImplementedError

    def lanes(self) -> Optional[Lanes]:
        """Every node's parameters as lane arrays for a process-free
        columnar run, or None (the default) when no stepper runs this
        program.  Programs that return lanes implement
        :meth:`collect_lanes`."""
        return None

    def collect_lanes(self, stepper, stats: RunStats):
        """Assemble the result object from a lane run's final stepper
        arrays + accounting; equal to :meth:`collect` on the processes a
        per-node run leaves."""
        raise NotImplementedError

    def processes(self) -> List:
        """Fresh :class:`NodeProcess` instances, one per graph node."""
        raise NotImplementedError

    def collect(self, processes: Sequence, stats: RunStats):
        """Assemble the result object from final node states + accounting."""
        raise NotImplementedError

    def max_rounds(self) -> int:
        """Safety valve for the transport's livelock guard."""
        return 100_000
