"""Shared fixtures for the test suite."""

from __future__ import annotations

import os

import networkx as nx
import pytest
from hypothesis import settings

from repro.graphs.generators import gnp_graph, grid_graph, star_graph
from repro.graphs.udg import random_udg

# CI runs every property suite on a fixed example set
# (HYPOTHESIS_PROFILE=ci); local runs stay randomized.
settings.register_profile("ci", derandomize=True, deadline=None,
                          print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def small_gnp():
    """A modest connected-ish random graph (n=40)."""
    return gnp_graph(40, 0.15, seed=11)


@pytest.fixture
def tiny_gnp():
    """A tiny random graph for exact-solver comparisons (n=16)."""
    return gnp_graph(16, 0.3, seed=5)


@pytest.fixture
def grid5():
    """5x5 grid."""
    return grid_graph(5, 5)


@pytest.fixture
def star10():
    """Star with 10 leaves."""
    return star_graph(10)


@pytest.fixture
def udg200():
    """A random unit disk graph with 200 nodes at density 10."""
    return random_udg(200, density=10.0, seed=42)


@pytest.fixture
def udg_tiny():
    """A random unit disk graph with 30 nodes (exact-solver friendly)."""
    return random_udg(30, density=8.0, seed=7)


@pytest.fixture
def triangle():
    """K3 as a plain networkx graph."""
    g = nx.Graph()
    g.add_edges_from([(0, 1), (1, 2), (0, 2)])
    return g


@pytest.fixture
def path4():
    """Path 0-1-2-3."""
    g = nx.path_graph(4)
    return g
