"""Graph property utilities shared by algorithms and experiments.

The degree-only helpers (:func:`max_degree`, :func:`min_degree`,
:func:`degree_histogram`, :func:`max_feasible_k`,
:func:`feasible_coverage`, :func:`validate_coverage`) read an
array-primary wrapper whose networkx graph is not built yet (a fresh
:class:`~repro.graphs.udg.UnitDiskGraph`) through its cached
:class:`~repro.engine.artifacts.GraphArtifacts`, so they never build it;
results, key orders and error messages equal the networkx reads.
"""

from __future__ import annotations

from typing import Collection, Dict, List, Set, Tuple

import networkx as nx

from repro.errors import GraphError
from repro.types import CoverageMap, NodeId


def as_nx(graph) -> nx.Graph:
    """Accept a ``networkx.Graph`` or any wrapper exposing ``.nx`` (such as
    :class:`repro.graphs.udg.UnitDiskGraph`) and return the plain graph."""
    g = getattr(graph, "nx", graph)
    if not isinstance(g, nx.Graph):
        raise GraphError(f"expected a graph, got {type(graph).__name__}")
    return g


# Internal alias kept for intra-package use.
_as_nx = as_nx


def node_degrees(graph) -> Tuple[Collection[NodeId], List[int]]:
    """``graph``'s nodes in order and their degrees as networkx counts
    them.  An array-primary wrapper whose networkx graph is not built
    answers from its artifacts (its edges join distinct points, so no
    self-loop makes the two counts differ); any other graph from
    networkx."""
    if getattr(graph, "edge_arrays", None) is not None:
        from repro.engine.artifacts import graph_artifacts  # avoids a cycle
        art = graph_artifacts(graph)
        return art.nodes, art.degrees.tolist()
    g = _as_nx(graph)
    return g.nodes, [d for _, d in g.degree]


def max_degree(graph) -> int:
    """The paper's Delta: the maximum degree in the network (0 if empty)."""
    return max(node_degrees(graph)[1], default=0)


def min_degree(graph) -> int:
    """Minimum degree (0 if empty)."""
    return min(node_degrees(graph)[1], default=0)


def closed_neighborhood(graph, v: NodeId) -> Set[NodeId]:
    """The paper's :math:`N_v`: neighbors of ``v`` including ``v``."""
    g = _as_nx(graph)
    return set(g.neighbors(v)) | {v}


def degree_histogram(graph) -> Dict[int, int]:
    """Map degree -> number of nodes with that degree (keys in order of
    first appearance in node order)."""
    hist: Dict[int, int] = {}
    for d in node_degrees(graph)[1]:
        hist[d] = hist.get(d, 0) + 1
    return hist


def max_feasible_k(graph) -> int:
    """Largest uniform ``k`` for which a k-fold dominating set exists under
    the closed-neighborhood convention: ``min_v (deg(v) + 1)``."""
    degrees = node_degrees(graph)[1]
    return min(degrees) + 1 if degrees else 0


def feasible_coverage(graph, k: int) -> Dict[NodeId, int]:
    """Uniform requirement ``k`` clipped per node to what is achievable:
    ``k_i = min(k, deg(i) + 1)``.

    The paper's LP ``(PP)`` takes arbitrary per-node ``k_i``; clipping keeps
    every instance feasible while demanding full ``k``-redundancy wherever
    the topology permits.  This is the standard way to run k-MDS on graphs
    with low-degree fringe nodes.
    """
    if k < 0:
        raise GraphError(f"coverage requirement must be non-negative, got {k}")
    nodes, degrees = node_degrees(graph)
    return {v: min(k, d + 1) for v, d in zip(nodes, degrees)}


def validate_coverage(graph, coverage: CoverageMap) -> None:
    """Raise :class:`GraphError` unless ``coverage`` assigns a feasible,
    non-negative requirement to every node of ``graph``."""
    nodes, degrees = node_degrees(graph)
    missing = [v for v in nodes if v not in coverage]
    if missing:
        raise GraphError(
            f"coverage map is missing {len(missing)} node(s), e.g. {missing[0]!r}"
        )
    for v, d in zip(nodes, degrees):
        k_v = coverage[v]
        if k_v < 0:
            raise GraphError(f"negative coverage requirement {k_v} at node {v!r}")
        if k_v > d + 1:
            raise GraphError(
                f"infeasible requirement at node {v!r}: k_v={k_v} exceeds "
                f"closed-neighborhood size {d + 1}"
            )


def graph_summary(graph) -> Dict[str, float]:
    """One-line statistical summary used by the CLI and reports."""
    g = _as_nx(graph)
    n = g.number_of_nodes()
    m = g.number_of_edges()
    degs: List[int] = [d for _, d in g.degree] or [0]
    return {
        "n": n,
        "m": m,
        "max_degree": max(degs),
        "min_degree": min(degs),
        "avg_degree": (2.0 * m / n) if n else 0.0,
        "components": nx.number_connected_components(g) if n else 0,
    }
