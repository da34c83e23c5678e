"""The covering LP pair (PP)/(DP) of Section 4.1.

The primal ``(PP)`` is the LP relaxation of k-MDS under the
closed-neighborhood convention::

    min   sum_i x_i
    s.t.  sum_{j in N_i} x_j >= k_i     for every node i
          0 <= x_i <= 1

and its dual ``(DP)``::

    max   sum_i (k_i * y_i - z_i)
    s.t.  sum_{j in N_i} y_j - z_i <= 1  for every node i
          y_i, z_i >= 0

:class:`CoveringLP` materializes the instance (closed neighborhoods and
requirements) and provides feasibility/objective oracles used by
Algorithm 1's tests, by the LP-optimum baseline, and by the experiment
harness.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

import networkx as nx
import numpy as np

from repro.engine.artifacts import GraphArtifacts, graph_artifacts
from repro.errors import GraphError
from repro.types import CoverageMap, NodeId


class CoveringLP:
    """A concrete (PP)/(DP) instance over a graph.

    Parameters
    ----------
    graph:
        ``networkx.Graph`` (or wrapper with ``.nx``).
    coverage:
        Per-node requirements ``k_i``.  Use
        :func:`repro.graphs.properties.feasible_coverage` or
        :func:`repro.types.uniform_coverage` to build one.
    """

    def __init__(self, graph, coverage: CoverageMap):
        #: Shared per-graph derived structures (cached across LP builds).
        self.artifacts: GraphArtifacts = graph_artifacts(graph)
        self.nodes: List[NodeId] = self.artifacts.nodes
        self.index: Dict[NodeId, int] = self.artifacts.index
        if not coverage.keys() >= self.index.keys():
            missing = [v for v in self.nodes if v not in coverage]
            raise GraphError(
                f"coverage map missing {len(missing)} node(s), e.g. {missing[0]!r}"
            )
        required = np.fromiter(map(int, map(coverage.__getitem__, self.nodes)),
                               dtype=np.int64, count=len(self.nodes))
        required.flags.writeable = False
        #: Requirements ``k_i`` as a read-only int64 array aligned with
        #: ``self.nodes``.
        self.requirements: np.ndarray = required
        if (self.requirements < 0).any():
            raise GraphError("coverage requirements must be non-negative")
        self.coverage: Dict[NodeId, int] = dict(
            zip(self.nodes, self.requirements.tolist()))
        self.n = self.artifacts.n
        self.delta = self.artifacts.delta

    @property
    def graph(self) -> nx.Graph:
        """The instance graph (resolved on read, see
        :attr:`GraphArtifacts.graph`)."""
        return self.artifacts.graph

    @property
    def closed_nbrs(self) -> List[np.ndarray]:
        """Closed neighborhoods as index arrays (the paper's N_i, with i)."""
        return self.artifacts.closed_nbrs

    # ------------------------------------------------------------------
    def k_vector(self) -> np.ndarray:
        """Requirements as an array aligned with ``self.nodes``."""
        return self.requirements.astype(float)

    def x_vector(self, x: Mapping[NodeId, float]) -> np.ndarray:
        """Convert a node-keyed solution to an index-aligned array."""
        return np.asarray([x[v] for v in self.nodes], dtype=float)

    def neighborhood_sums(self, values: np.ndarray) -> np.ndarray:
        """For each node i, ``sum_{j in N_i} values[j]``."""
        return np.asarray(
            [values[nbrs].sum() for nbrs in self.closed_nbrs], dtype=float
        )

    def _short(self) -> np.ndarray:
        """Index-aligned mask of requirements above ``|N_i|``."""
        return self.requirements > np.diff(self.artifacts.indptr)

    def is_feasible(self) -> bool:
        """Whether (PP) has any feasible point: ``k_i <= |N_i|`` for all i
        (then x = 1 is feasible)."""
        return not self._short().any()

    def infeasible_witness(self) -> Optional[NodeId]:
        """A node whose requirement exceeds its closed neighborhood, if
        any: the first such node in ``self.nodes`` order."""
        short = np.flatnonzero(self._short())
        return self.nodes[short[0]] if short.size else None

    # ------------------------------------------------------------------
    # Primal oracles
    # ------------------------------------------------------------------
    def primal_objective(self, x: Mapping[NodeId, float]) -> float:
        """``sum_i x_i``."""
        return float(sum(x[v] for v in self.nodes))

    def primal_violations(self, x: Mapping[NodeId, float],
                          tol: float = 1e-9) -> List[Tuple[NodeId, float]]:
        """Constraint violations of (PP): nodes whose neighborhood x-sum
        falls short of ``k_i`` (beyond ``tol``), with their shortfall.
        Also flags box violations ``x_i < 0`` or ``x_i > 1``."""
        xv = self.x_vector(x)
        out: List[Tuple[NodeId, float]] = []
        sums = self.neighborhood_sums(xv)
        for i, v in enumerate(self.nodes):
            short = self.coverage[v] - sums[i]
            if short > tol:
                out.append((v, float(short)))
            elif xv[i] < -tol or xv[i] > 1 + tol:
                out.append((v, float(max(-xv[i], xv[i] - 1))))
        return out

    def primal_feasible(self, x: Mapping[NodeId, float], tol: float = 1e-9) -> bool:
        """Whether ``x`` satisfies every (PP) constraint within ``tol``."""
        return not self.primal_violations(x, tol=tol)

    # ------------------------------------------------------------------
    # Dual oracles
    # ------------------------------------------------------------------
    def dual_objective(self, y: Mapping[NodeId, float],
                       z: Mapping[NodeId, float]) -> float:
        """``sum_i (k_i * y_i - z_i)``."""
        return float(
            sum(self.coverage[v] * y[v] - z[v] for v in self.nodes)
        )

    def dual_slacks(self, y: Mapping[NodeId, float],
                    z: Mapping[NodeId, float]) -> np.ndarray:
        """Left-hand sides ``sum_{j in N_i} y_j - z_i`` of every (DP)
        constraint (feasible iff all entries <= 1)."""
        yv = self.x_vector(y)
        zv = self.x_vector(z)
        return self.neighborhood_sums(yv) - zv

    def dual_infeasibility_factor(self, y: Mapping[NodeId, float],
                                  z: Mapping[NodeId, float]) -> float:
        """Largest (DP) left-hand side — the factor by which ``(y, z)``
        violates (DP).  Lemma 4.4 bounds this by ``t (Delta+1)^{1/t}`` for
        Algorithm 1's dual; dividing the duals by it restores feasibility."""
        slacks = self.dual_slacks(y, z)
        return float(slacks.max()) if len(slacks) else 0.0

    def dual_feasible(self, y: Mapping[NodeId, float],
                      z: Mapping[NodeId, float], tol: float = 1e-9) -> bool:
        """Whether ``(y, z)`` is (DP)-feasible within ``tol``."""
        yv = self.x_vector(y)
        zv = self.x_vector(z)
        if (yv < -tol).any() or (zv < -tol).any():
            return False
        return bool((self.dual_slacks(y, z) <= 1 + tol).all())
