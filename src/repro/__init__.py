"""repro — fault-tolerant clustering in ad hoc and sensor networks.

A production-quality reproduction of

    Fabian Kuhn, Thomas Moscibroda, Roger Wattenhofer,
    "Fault-Tolerant Clustering in Ad Hoc and Sensor Networks",
    ICDCS 2006.

The library computes **k-fold dominating sets** — node subsets S such that
every node outside S has at least k neighbors in S — with the paper's two
distributed algorithms:

- :func:`solve_kmds_general` — general graphs: a distributed LP
  approximation (Algorithm 1) followed by distributed randomized rounding
  (Algorithm 2); ``O(t^2)`` rounds for an
  ``O(t * Delta^{2/t} * log Delta)`` expected approximation;
- :func:`solve_kmds_udg` — unit disk graphs: doubling-radius leader
  election plus leader-driven adoption (Algorithm 3); ``O(log log n)``
  rounds, expected O(1) approximation, ``O(log n)``-bit messages.

Quickstart::

    import repro

    udg = repro.random_udg(500, seed=1)           # a sensor deployment
    ds = repro.solve_kmds_udg(udg, k=3, seed=7)   # 3-fold dominating set
    assert repro.is_k_dominating_set(udg, ds.members, 3)

Every algorithm is a single round program executed by
:mod:`repro.engine` on interchangeable backends: fast-and-central
(``mode="direct"``), a real synchronous message-passing simulator with
bit-level accounting and fault injection (``mode="message"``), or an
event-driven asynchronous network under the alpha / beta synchronizers
(``mode="async"`` / ``"async-beta"``) — same seed, same output, on every
backend.  See :mod:`repro.simulation` and ``docs/simulation.md``.
"""

from repro.core import (
    CoveringLP,
    coverage_counts,
    coverage_deficit,
    fractional_kmds,
    is_k_dominating_set,
    part_one_leaders,
    randomized_rounding,
    solve_kmds_general,
    solve_kmds_udg,
    solve_kmds_udg_batch,
    solve_kmds_udg_grid,
    theorem_45_ratio_bound,
    uncovered_nodes,
)
from repro.errors import (
    BudgetExceededError,
    GeometryError,
    GraphError,
    InfeasibleInstanceError,
    ProtocolViolationError,
    ReproError,
    SimulationError,
    SolverError,
    UnknownModeError,
)
from repro.graphs import (
    UnitDiskGraph,
    feasible_coverage,
    gnp_graph,
    grid_graph,
    max_degree,
    max_feasible_k,
    powerlaw_graph,
    random_regular_graph,
    random_udg,
    udg_from_points,
)
from repro.core.local_delta import two_hop_max_degree
from repro.engine import BACKENDS
from repro.weighted import solve_weighted_kmds
from repro.types import (DominatingSet, FractionalSolution, MemberSet,
                         RunStats, uniform_coverage)

__version__ = "1.0.0"

__all__ = [
    # core algorithms
    "solve_kmds_general",
    "solve_kmds_udg",
    "solve_kmds_udg_batch",
    "solve_kmds_udg_grid",
    "fractional_kmds",
    "randomized_rounding",
    "part_one_leaders",
    "theorem_45_ratio_bound",
    "CoveringLP",
    "solve_weighted_kmds",
    "two_hop_max_degree",
    # verification
    "is_k_dominating_set",
    "coverage_counts",
    "coverage_deficit",
    "uncovered_nodes",
    # graphs
    "UnitDiskGraph",
    "random_udg",
    "udg_from_points",
    "gnp_graph",
    "random_regular_graph",
    "powerlaw_graph",
    "grid_graph",
    "feasible_coverage",
    "uniform_coverage",
    "max_degree",
    "max_feasible_k",
    # engine
    "BACKENDS",
    # results
    "DominatingSet",
    "FractionalSolution",
    "MemberSet",
    "RunStats",
    # errors
    "ReproError",
    "GraphError",
    "UnknownModeError",
    "GeometryError",
    "InfeasibleInstanceError",
    "SimulationError",
    "ProtocolViolationError",
    "SolverError",
    "BudgetExceededError",
    "__version__",
]
