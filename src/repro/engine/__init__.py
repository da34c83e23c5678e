"""repro.engine — one algorithm definition, three execution backends.

Every algorithm in the library is written **once** as a
:class:`~repro.engine.program.RoundProgram` — a vectorized direct kernel
plus a transport-oblivious set of node generators — and executed by
:func:`~repro.engine.backends.execute` on any backend:

- ``"direct"`` — vectorized numpy over cached
  :class:`~repro.engine.artifacts.GraphArtifacts` (n up to 10^5);
- ``"message"`` — the faithful synchronous simulator with per-message
  bit accounting;
- ``"async"`` / ``"async-beta"`` — the alpha / beta synchronizers over
  an event-driven network with random link delays.

All backends consume the per-node RNG streams identically, so the same
seed yields the same solution everywhere; a shared
:class:`~repro.engine.instrumentation.Instrumentation` object gives every
execution comparable :class:`~repro.types.RunStats`.
"""

from repro.engine.artifacts import (
    GraphArtifacts,
    StackedGraphs,
    cache_stats,
    graph_artifacts,
    invalidate,
    stacked_graphs,
)
from repro.engine.backends import (
    BACKENDS,
    MESSAGE_BACKENDS,
    execute,
    execute_batch,
    execute_grid,
    resolve_backend,
    validate_seed,
)
from repro.engine import kernels
from repro.engine.instrumentation import Instrumentation
from repro.engine.program import Lanes, RoundProgram

__all__ = [
    "BACKENDS",
    "MESSAGE_BACKENDS",
    "GraphArtifacts",
    "Instrumentation",
    "Lanes",
    "RoundProgram",
    "StackedGraphs",
    "cache_stats",
    "execute",
    "execute_batch",
    "execute_grid",
    "graph_artifacts",
    "invalidate",
    "kernels",
    "resolve_backend",
    "stacked_graphs",
    "validate_seed",
]
