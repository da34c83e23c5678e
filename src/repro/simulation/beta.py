"""The beta synchronizer — Awerbuch's tree-based alternative.

Where the alpha synchronizer (:mod:`repro.simulation.asynchrony`) has
every node announce safety to *all* neighbors each round (cheap latency,
``O(|E|)`` control messages per round), the beta synchronizer runs
safety detection over a spanning tree:

1. payload messages are acknowledged as in alpha;
2. a node that is safe (all its round-r payloads acked) and has received
   ``subtree-safe(r)`` from all its tree children reports
   ``subtree-safe(r)`` to its tree parent;
3. when the root's whole tree is safe, it broadcasts ``pulse(r+1)`` down
   the tree; receiving the pulse releases a node into round r+1.

Control cost drops to ``O(n)`` messages per round; latency grows with
the tree depth.  E16's companion measurements (tests) expose exactly
this trade-off against alpha, with identical protocol outputs.

The spanning trees (one per connected component, BFS from the
smallest-id node) are computed by the simulator — standard practice for
synchronizer studies; building them distributedly is an orthogonal
O(diameter) preprocessing step.

Event-queue machinery, payload shipping, and accounting are inherited
from :class:`~repro.simulation.asynchrony.EventDrivenTransport`; this
module supplies only the tree-based safety detection.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Set

import networkx as nx
import numpy as np

from repro.errors import SimulationError
from repro.simulation.asynchrony import (
    AsyncStats,
    EventDrivenTransport,
    _Event,
)
from repro.simulation.faults import FaultInjector
from repro.simulation.network import SynchronousNetwork
from repro.types import NodeId


class BetaSynchronizer(EventDrivenTransport):
    """Runs a synchronous protocol asynchronously over spanning trees.

    Same interface and guarantees as
    :class:`~repro.simulation.asynchrony.AlphaSynchronizer`; only the
    safety-detection topology differs.
    """

    NAME = "beta-synchronized"

    def __init__(self, network: SynchronousNetwork, *,
                 delay: Callable[[np.random.Generator], float] | None = None,
                 delay_seed: int | None = None,
                 max_rounds: int = 100_000,
                 injectors: Iterable[FaultInjector] = ()):
        super().__init__(network, delay=delay, delay_seed=delay_seed,
                         max_rounds=max_rounds, injectors=injectors)
        self._build_trees()
        #: per node: rounds for which each child's subtree reported safe
        self.child_safe: Dict[NodeId, Dict[NodeId, int]] = {}
        self.self_safe: Dict[NodeId, int] = {}
        self.reported: Dict[NodeId, int] = {}   # last round reported upward

    def _build_trees(self) -> None:
        """BFS spanning tree per component: parent/children/root maps."""
        g = self.network.graph
        self.parent: Dict[NodeId, Optional[NodeId]] = {}
        self.children: Dict[NodeId, List[NodeId]] = {v: [] for v in g.nodes}
        self.root_of: Dict[NodeId, NodeId] = {}
        self.component: Dict[NodeId, Set[NodeId]] = {}
        for comp in nx.connected_components(g):
            root = min(comp, key=repr)
            members = set(comp)
            tree = nx.bfs_tree(g, root)
            self.parent[root] = None
            for u, v in tree.edges:
                self.parent[v] = u
                self.children[u].append(v)
            for v in comp:
                self.root_of[v] = root
                self.component[v] = members
        for v in self.children:
            self.children[v].sort(key=repr)

    # ------------------------------------------------------------------
    # Safety-detection hooks
    # ------------------------------------------------------------------
    def _node_safe(self, v: NodeId) -> None:
        """v's own round-r payloads are all acknowledged."""
        self.self_safe[v] = self.round_of[v]
        self._try_report(v)

    def _acks_complete(self, v: NodeId) -> None:
        # Unlike alpha, finished nodes stay in the synchronizer (they
        # keep reporting subtree safety upward), so no finished-guard.
        self._node_safe(v)

    def _try_report(self, v: NodeId) -> None:
        """Report subtree safety upward (or pulse, at the root) once v
        and all child subtrees are safe for v's round."""
        r = self.round_of[v]
        if self.self_safe.get(v, -1) < r or self.reported.get(v, -1) >= r:
            return
        kids = self.children.get(v, [])
        if any(self.child_safe.get(v, {}).get(c, -1) < r for c in kids):
            return
        self.reported[v] = r
        parent = self.parent.get(v)
        if parent is not None:
            self._push_control(v, parent, "subtree_safe", r)
        else:
            self._fire_pulse(v, r)

    def _fire_pulse(self, root: NodeId, r: int) -> None:
        """Whole tree safe for round r: release round r+1."""
        if all(w in self.finished for w in self.component[root]):
            return  # protocol over in this component; stop pulsing
        if r + 1 > self.max_rounds:
            raise SimulationError(
                f"{self.NAME} run exceeded {self.max_rounds} rounds"
            )
        self._enter_round(root, r + 1)

    def _enter_round(self, v: NodeId, r: int) -> None:
        self.round_of[v] = r
        self.instr.note_round(r)
        # Forward the pulse before executing, so the release wave
        # reaches the whole tree regardless of v's own fate.
        for c in self.children.get(v, []):
            self._push_control(v, c, "pulse", r)
        self._advance(v)

    def _handle_control(self, ev: _Event) -> None:
        if ev.kind == "subtree_safe":
            self.child_safe.setdefault(ev.dest, {})[ev.src] = max(
                self.child_safe.get(ev.dest, {}).get(ev.src, -1),
                ev.round_index)
            self._try_report(ev.dest)
        elif ev.kind == "pulse":
            self._enter_round(ev.dest, ev.round_index)
        else:  # pragma: no cover — exhaustive kinds
            raise SimulationError(f"unknown event kind {ev.kind!r}")


def run_protocol_beta(network: SynchronousNetwork, *,
                      delay: Callable[[np.random.Generator], float] | None = None,
                      delay_seed: int | None = None,
                      max_rounds: int = 100_000,
                      injectors: Iterable[FaultInjector] = ()) -> AsyncStats:
    """Convenience wrapper around :class:`BetaSynchronizer`."""
    sync = BetaSynchronizer(network, delay=delay, delay_seed=delay_seed,
                            max_rounds=max_rounds, injectors=injectors)
    return sync.run()
