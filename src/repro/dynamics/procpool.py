"""True multi-process sharded repair over shared-memory artifacts.

:class:`~repro.dynamics.loop.MaintenanceLoop` decomposes each epoch's
damage into independent units (:mod:`repro.dynamics.sharding`) whose
repairs share **no** mutable state: every unit draws from a private RNG
derived from ``(seed, epoch, unit.rank)``, charges a private
accountant, and reads only the pre-repair membership (the loop applies
promotions after the whole sharded call returns).  That makes shard
dispatch embarrassingly parallel — but the thread pool the loop used
through PR 6 is GIL-bound: the analytic patch protocol is pure Python,
so threads serialize.

This module is the process upgrade.  A :class:`ProcessShardPool`

1. publishes the epoch's artifacts — closed-adjacency CSR, node-id
   table, membership mask — into a
   :class:`~repro.service.shm.SharedArtifactStore` (one copy per epoch,
   **not** per task);
2. dispatches each shard's unit batch to a resident
   ``ProcessPoolExecutor`` worker, shipping only the small per-task
   payload (policy, deficits, seeds) over the pickle channel;
3. workers attach the generation once, rebuild a read-only graph /
   members view over the shared arrays, and run the *unmodified*
   :meth:`~repro.dynamics.repair.RepairPolicy.repair` per unit.

Bit-identity
------------
The worker-side views present exactly what the in-process repair sees:
``graph.neighbors(v)`` yields the same neighbor *set* (the policy
re-sorts by id), ``state.members`` the same membership, and the
per-unit RNG/accountant derivation is unchanged — so the merged epoch
outcome, and therefore the whole timeline, is bit-identical to the
sequential and thread-pool loops for every ``(shards, workers)``
configuration (pinned by ``tests/test_service.py``).
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.engine.instrumentation import Instrumentation
from repro.engine.kernels import member_mask
from repro.service.shm import AttachedGeneration, SharedArtifactStore, attach
from repro.types import NodeId, RunStats

__all__ = ["ProcessShardPool"]


# ======================================================================
# Worker side
# ======================================================================

class _ShmGraphView:
    """Read-only ``neighbors()`` interface over the shared closed CSR.

    The repair policies call ``sorted(graph.neighbors(v))``, so only the
    neighbor *set* must match the parent's live view; rows come from the
    closed-adjacency CSR with the node's own index masked out.
    """

    __slots__ = ("_indptr", "_indices", "_nodes", "_order", "_sorted_ids")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray,
                 nodes: np.ndarray):
        self._indptr = indptr
        self._indices = indices
        self._nodes = nodes
        self._order = np.argsort(nodes, kind="stable")
        self._sorted_ids = nodes[self._order]

    def _index_of(self, v) -> int:
        pos = int(np.searchsorted(self._sorted_ids, v))
        if pos >= len(self._sorted_ids) or self._sorted_ids[pos] != v:
            raise KeyError(v)
        return int(self._order[pos])

    def neighbors(self, v) -> List[NodeId]:
        i = self._index_of(v)
        row = self._indices[self._indptr[i]:self._indptr[i + 1]]
        return self._nodes[row[row != i]].tolist()

    def degree(self):
        counts = np.diff(self._indptr) - 1
        return zip(self._nodes.tolist(), counts.tolist())


class _ShmStateView:
    """The slice of :class:`NetworkState` a shardable policy reads."""

    __slots__ = ("members",)

    def __init__(self, members: set):
        self.members = members


#: Per-worker-process cache: attach each published generation once and
#: reuse the rebuilt views for every shard task of that epoch.
_WORKER_CACHE: Dict[str, object] = {
    "generation": None, "attached": None, "graph": None, "state": None,
}


def _attach_generation(manifest: Dict) -> None:
    cache = _WORKER_CACHE
    if cache["generation"] == manifest["generation"]:
        return
    old = cache["attached"]
    if isinstance(old, AttachedGeneration):
        old.close()
    att = attach(manifest)
    arrays = att.arrays
    nodes = arrays["nodes"]
    graph = _ShmGraphView(arrays["indptr"], arrays["indices"], nodes)
    members = set(nodes[arrays["member_mask"]].tolist())
    cache["generation"] = manifest["generation"]
    cache["attached"] = att
    cache["graph"] = graph
    cache["state"] = _ShmStateView(members)


def _run_shard_batch(manifest: Dict, payload: Dict
                     ) -> List[Tuple[object, RunStats]]:
    """Worker entry point: repair one shard's unit batch.

    Returns ``[(RepairOutcome, RunStats), ...]`` in unit order — the
    same shape the in-process ``run_shard`` closure produces, so the
    loop's merge code is shared verbatim.
    """
    _attach_generation(manifest)
    graph = _WORKER_CACHE["graph"]
    state = _WORKER_CACHE["state"]
    policy = payload["policy"]
    size_model = payload["size_model"]
    k = payload["k"]
    epoch = payload["epoch"]
    seed_root = payload["seed_root"]
    results: List[Tuple[object, RunStats]] = []
    for rank, deficits in payload["units"]:
        rng = np.random.default_rng([seed_root, epoch, rank])
        instr = Instrumentation(size_model)
        out = policy.repair(state, graph, deficits, k, rng=rng, instr=instr)
        results.append((out, instr.stats))
    return results


# ======================================================================
# Parent side
# ======================================================================

class ProcessShardPool:
    """Resident process pool + shared-memory store for sharded repair.

    Owned by a :class:`~repro.dynamics.loop.MaintenanceLoop` with
    ``executor="process"``; created lazily on the first sharded epoch
    and reused until :meth:`close`.  ``fork`` start method where
    available (workers inherit the loaded modules), ``spawn`` otherwise.
    """

    def __init__(self, workers: int):
        self.workers = max(1, int(workers))
        self._store = SharedArtifactStore()
        self._pool: Optional[ProcessPoolExecutor] = None

    # ------------------------------------------------------------------
    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            methods = multiprocessing.get_all_start_methods()
            ctx = multiprocessing.get_context(
                "fork" if "fork" in methods else methods[0])
            self._pool = ProcessPoolExecutor(max_workers=self.workers,
                                             mp_context=ctx)
        return self._pool

    def publish_epoch(self, art, members) -> Dict:
        """Export the epoch's artifacts into a fresh shm generation.

        One copy per epoch: the CSR pair and node table come straight
        from the live :class:`~repro.engine.artifacts.GraphArtifacts`
        arrays; the membership mask is rebuilt in O(|members|).
        """
        indptr, indices = art.closed_csr_arrays()
        nodes = art.nodes_array()
        mask = member_mask(art, members)
        return self._store.publish({
            "indptr": indptr,
            "indices": indices,
            "nodes": nodes,
            "member_mask": mask,
        })

    def run_shards(self, manifest: Dict,
                   shard_units: Sequence[List[Tuple[int, Dict]]], *,
                   policy, k: int, epoch: int, seed_root: int,
                   size_model) -> List[List[Tuple[object, RunStats]]]:
        """Dispatch one epoch's shard batches; returns results in
        submission (sorted-shard-key) order."""
        pool = self._ensure_pool()
        futures = [
            pool.submit(_run_shard_batch, manifest, {
                "policy": policy,
                "size_model": size_model,
                "k": k,
                "epoch": epoch,
                "seed_root": seed_root,
                "units": units,
            })
            for units in shard_units
        ]
        return [f.result() for f in futures]

    def close(self) -> None:
        """Shut the worker pool down and free the shm generations."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        self._store.close()

    def __enter__(self) -> "ProcessShardPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
