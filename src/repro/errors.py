"""Exception hierarchy for the repro library.

All exceptions raised by this package derive from :class:`ReproError`, so
callers can catch one base class.  More specific subclasses communicate the
layer that failed: graph construction, simulation, algorithm input
validation, or solver failure.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class GraphError(ReproError):
    """A graph is malformed or unsuitable for the requested operation."""


class UnknownModeError(GraphError):
    """An unknown execution mode / engine backend was requested.

    Every solver entry point validates its ``mode=`` argument through
    :func:`repro.engine.resolve_backend`, so the error message has the
    same shape everywhere:
    ``unknown mode 'x'; expected one of ('direct', 'message', ...)``.
    """


class KernelBackendError(ReproError):
    """An invalid kernel-provider selection was requested.

    Raised by :mod:`repro.engine.dispatch` when ``REPRO_KERNEL_BACKEND``
    names an unknown backend, or forces the ``native`` backend on a host
    where it is unavailable — forcing never falls back silently, so a
    pinned-backend CI leg that loses its compiler fails loudly instead
    of quietly serving numpy.
    Mirrors the :class:`UnknownModeError` message shape: the offending
    value and the accepted alternatives.
    """


class ShardingError(GraphError):
    """An invalid sharded-maintenance configuration was requested.

    Raised by :class:`repro.dynamics.MaintenanceLoop` (and the CLI) for
    combinations the sharded repair plan cannot honor — e.g. ``workers``
    without ``shards``, non-positive counts, or a repair policy that is
    not shardable.  Mirrors the :class:`UnknownModeError` shape: the
    message names the offending value and the accepted alternatives.
    """


class GeometryError(GraphError):
    """A geometric graph operation was requested on a non-geometric graph.

    Raised, for example, when a unit-disk-graph algorithm that needs node
    coordinates or distance sensing is run on a graph without positions.
    """


class InfeasibleInstanceError(ReproError):
    """The requested covering problem has no feasible solution.

    A node ``v`` with coverage requirement ``k_v`` larger than
    ``deg(v) + 1`` can never be covered ``k_v`` times under the closed
    neighborhood convention, so no k-fold dominating set exists.
    """

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        #: A node id demonstrating infeasibility, if known.
        self.witness = witness


class ServiceError(ReproError):
    """The coverage service (``repro.service``) was misused.

    Raised by the resident daemon layer for lifecycle violations —
    querying before the first snapshot was published, submitting work to
    a daemon that is already draining, or configuring a server with an
    invalid load specification.
    """


class QueryError(ServiceError):
    """A malformed query reached the batch query plane.

    Unknown query kinds, ids that are not integer-convertible, or
    non-1-D id batches.  Note that querying a *dead or never-deployed*
    node id is **not** an error — the query plane answers it with the
    uncovered sentinel (see :mod:`repro.service.queries`), because at
    traffic scale clients race against churn by design.
    """


class SimulationError(ReproError):
    """The message-passing simulation entered an invalid state."""


class ProtocolViolationError(SimulationError):
    """A node process violated the synchronous messaging protocol.

    Examples: sending a message to a non-neighbor, sending after crashing,
    or emitting a message exceeding the declared bit budget when strict
    message-size checking is enabled.
    """


class SolverError(ReproError):
    """A baseline solver (LP / branch-and-bound) failed to produce a result."""


class BudgetExceededError(SolverError):
    """An exact solver exceeded its node/time budget before proving optimality."""

    def __init__(self, message: str, incumbent=None, lower_bound=None):
        super().__init__(message)
        #: Best feasible solution found before the budget ran out, if any.
        self.incumbent = incumbent
        #: Best proven lower bound on the optimum before the budget ran out.
        self.lower_bound = lower_bound
