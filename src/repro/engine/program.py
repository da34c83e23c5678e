"""The round-program protocol: one algorithm definition, any backend.

A :class:`RoundProgram` captures everything the engine needs to execute a
distributed algorithm:

- ``direct(instr)`` — the vectorized/centralized kernel (numpy over the
  cached :class:`~repro.engine.artifacts.GraphArtifacts`), charging its
  analytic round/message schedule on the given
  :class:`~repro.engine.instrumentation.Instrumentation`.  A program
  with no kernel of its own (Algorithm 1, the JRS baseline, Algorithm 3
  on sensing subclasses the kernels cannot model) runs its message-mode
  run here instead (the lane run, or the per-node loop where the
  columnar plane declines) and returns that run's own ``RunStats``;
- ``lanes()`` / ``collect_lanes(stepper, stats)`` — the lane hook of
  programs with a columnar stepper (:mod:`repro.simulation.steppers`):
  every node's parameters as scalars and lane-ordered arrays
  (:class:`Lanes`), and the result read back from the stepper's final
  lane arrays.  ``execute(program, "message")`` runs these without
  building a single node process;
- ``processes()`` — one :class:`~repro.simulation.node.NodeProcess`
  generator per node, executable on the synchronous simulator *or* on
  either asynchronous synchronizer (the generators are transport-
  oblivious); the per-node oracle (``reference=True`` on ``direct``
  and ``message`` alike), the asynchronous backends and runs the
  columnar plane declines use them;
- ``collect(processes, stats)`` — assemble the algorithm's result object
  from the final node states plus the transport's accounting.

All paths must consume the per-node RNG streams identically, so every
backend produces the same output for the same seed (asserted by
``tests/test_mode_equivalence.py``; the kernels and the lane runs are
pinned against the one per-node oracle by
``tests/test_stepper_differential.py`` and
``tests/test_protocol_steppers.py``).
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
        message-passing backends.  Defaults to the bundle's source: an
        array-primary wrapper (e.g. a fresh :class:`UnitDiskGraph`)
        while its networkx graph is not built, so no backend builds it
        to bind a network, else ``artifacts.graph``.  Geometric programs
        assign the wrapper that provides distance sensing.
    network_kwargs:
        Extra keyword arguments for the network constructor
        (``value_bits``, ``strict_message_bits``, ...).
    """

    network_kwargs: dict = {}
    _network_graph = None

    def __init__(self, artifacts: GraphArtifacts):
        self.artifacts = artifacts

    @property
    def network_graph(self):
        if self._network_graph is None:
            source = self.artifacts._source
            if getattr(source, "edge_arrays", None) is not None:
                return source
            return self.artifacts.graph
        return self._network_graph

    @network_graph.setter
    def network_graph(self, graph) -> None:
        self._network_graph = graph

    # ------------------------------------------------------------------
    def instrumentation(self) -> Instrumentation:
        """The accountant handed to :meth:`direct` (size model matches the
        message-passing backends')."""
        value_bits = self.network_kwargs.get("value_bits")
        return Instrumentation.for_n(self.artifacts.n, value_bits=value_bits)

    def direct(self, instr: Instrumentation):
        """Vectorized execution; returns the algorithm's result object,
        whose ``stats`` is ``instr.stats`` unless the program runs its
        message-mode run instead (see the module docstring)."""
        raise NotImplementedError

    def reseeded(self, seed) -> "RoundProgram":
        """A shallow copy of this program with its root ``seed``
        replaced (artifacts and instance data are shared).

        Lets ``execute(program, seed=s)`` honor ``s`` on the ``direct``
        backend the way the message-passing backends do.
        """
        clone = copy.copy(self)
        clone.seed = seed
        return clone

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
