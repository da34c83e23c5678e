"""Tests for repro.service: the coverage-as-a-service subsystem.

Pinned guarantees:

- :class:`SharedArtifactStore` round-trips arrays across generations
  and frees old ones; attached views are read-only;
- :class:`EpochSnapshot` agrees with the :mod:`repro.core.verify`
  oracle, is immutable, and is isolated from later churn epochs;
- the vectorized query plane (``covered`` / ``k_deficit`` /
  ``who_covers`` / ``dominator_of`` / ``route``) matches per-node
  oracles, answers unknown ids with sentinels, and rejects malformed
  batches with :class:`QueryError`;
- ``executor="process"`` produces a **bit-identical timeline** to the
  sequential and thread-pool loops for every ``(shards, workers)``
  configuration (the acceptance criterion of the service PR); a
  worker killed between epochs fails the next sharded epoch with
  ``BrokenProcessPool``, and ``close()`` still frees the pool's shared
  memory;
- the resident stepping API (``start``/``step``/``finish``) replays
  ``run()`` exactly, and the daemon lifecycle (submit/drain/signals)
  behaves.
"""

from __future__ import annotations

import glob
import json
import os
import signal
import sys
import threading
import time
from concurrent.futures.process import BrokenProcessPool
from multiprocessing.connection import wait

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.core.verify import coverage_counts, coverage_deficit
from repro.dynamics import (
    LocalPatchRepair,
    MaintenanceLoop,
    crash_scenario,
    run_scenario,
)
from repro.errors import GraphError, QueryError, ServiceError, ShardingError
from repro.service import (
    CoverageDaemon,
    CoverageService,
    LoadGenerator,
    SharedArtifactStore,
    attach,
)
from repro.service import queries as qp


def _scenario(n=150, k=3, epochs=10, seed=7, kill=0.3):
    return crash_scenario(n=n, k=k, epochs=epochs, kill_fraction=kill,
                          seed=seed)


def _fresh_service(**kwargs) -> CoverageService:
    loop = MaintenanceLoop(_scenario(), LocalPatchRepair(), **kwargs)
    return CoverageService(loop)


# ======================================================================
# Shared memory
# ======================================================================

class TestSharedArtifactStore:
    def test_publish_attach_roundtrip(self):
        store = SharedArtifactStore()
        arrays = {
            "a": np.arange(10, dtype=np.int64),
            "mask": np.array([True, False, True]),
            "empty": np.zeros(0, dtype=np.int64),
        }
        manifest = store.publish(arrays)
        assert manifest["generation"] == 1
        with attach(manifest) as gen:
            assert gen.generation == 1
            for key, arr in arrays.items():
                np.testing.assert_array_equal(gen.arrays[key], arr)
                assert not gen.arrays[key].flags.writeable
        store.close()

    def test_new_generation_frees_old_segments(self):
        store = SharedArtifactStore()
        first = store.publish({"x": np.ones(4)})
        second = store.publish({"x": np.zeros(4)})
        assert second["generation"] == 2
        with pytest.raises(FileNotFoundError):
            attach(first)
        with attach(second) as gen:
            np.testing.assert_array_equal(gen.arrays["x"], np.zeros(4))
        store.close()

    def test_close_is_idempotent_and_final(self):
        store = SharedArtifactStore()
        manifest = store.publish({"x": np.ones(2)})
        store.close()
        store.close()
        with pytest.raises(FileNotFoundError):
            attach(manifest)
        with pytest.raises(ServiceError, match="closed store"):
            store.publish({"x": np.ones(2)})

    def test_context_manager_releases(self):
        with SharedArtifactStore() as store:
            manifest = store.publish({"x": np.arange(3)})
        with pytest.raises(FileNotFoundError):
            attach(manifest)


# ======================================================================
# Snapshots
# ======================================================================

class TestEpochSnapshot:
    def test_capture_matches_verify_oracle(self):
        service = _fresh_service()
        snap = service.start()
        state = service.loop.state
        counts = coverage_counts(state.graph(), state.members,
                                 convention="open")
        deficit = coverage_deficit(state.graph(), state.members,
                                   service.loop.scenario.k,
                                   convention="open")
        for i, v in enumerate(snap.nodes.tolist()):
            assert int(snap.coverage[i]) == counts[v]
            assert int(snap.deficit[i]) == deficit[v]
            assert bool(snap.member_mask[i]) == (v in state.members)
        assert snap.members == len(state.members)
        assert snap.fully_covered

    def test_arrays_are_read_only(self):
        snap = _fresh_service().start()
        for arr in (snap.nodes, snap.indptr, snap.indices,
                    snap.member_mask, snap.coverage, snap.deficit):
            with pytest.raises(ValueError):
                arr[0] = 0

    def test_snapshot_isolated_from_later_epochs(self):
        service = _fresh_service()
        snap = service.start()
        frozen = {name: getattr(snap, name).copy()
                  for name in ("nodes", "indptr", "indices",
                               "member_mask", "coverage", "deficit")}
        for _ in range(4):
            service.step_epoch()
        newer = service.current()
        assert newer is not snap
        for name, before in frozen.items():
            np.testing.assert_array_equal(getattr(snap, name), before)

    def test_index_of_sentinel_for_unknown(self):
        snap = _fresh_service().start()
        known = snap.nodes[:3]
        probe = np.concatenate([known, [-5, 10 ** 9]])
        idx = snap.index_of(probe)
        np.testing.assert_array_equal(snap.nodes[idx[:3]], known)
        assert idx[3] == -1 and idx[4] == -1

    def test_graph_matches_live_topology(self):
        service = _fresh_service()
        snap = service.start()
        service.step_epoch()
        live = service.loop.state.graph()
        g = service.current().graph()
        assert set(g.nodes) == set(live.nodes)
        assert {frozenset(e) for e in g.edges} \
            == {frozenset(e) for e in live.edges}
        # The older snapshot still describes the *deployment* topology.
        assert snap.graph().number_of_nodes() == snap.n

    def test_nodes_array_requires_int_ids(self):
        import networkx as nx

        from repro.engine.artifacts import GraphArtifacts

        art = GraphArtifacts(nx.path_graph(["a", "b", "c"]))
        with pytest.raises(GraphError, match="integer node ids"):
            art.nodes_array()

    def test_artifact_csr_caches_drop_on_patch(self):
        import networkx as nx

        from repro.engine.artifacts import GraphArtifacts

        art = GraphArtifacts(nx.path_graph(4))
        indptr, indices = art.closed_csr_arrays()
        nodes = art.nodes_array()
        assert art.closed_csr_arrays()[0] is indptr  # cached
        assert art.nodes_array() is nodes
        art.delta_patcher().remove_node(3)
        indptr2, _ = art.closed_csr_arrays()
        assert indptr2 is not indptr
        assert len(art.nodes_array()) == 3


# ======================================================================
# The query plane
# ======================================================================

class TestQueryPlane:
    @pytest.fixture(scope="class")
    def served(self):
        service = _fresh_service()
        service.start()
        service.step_epoch()
        return service.current(), service.loop.state

    def test_covered_and_deficit_match_oracle(self, served):
        snap, state = served
        k = snap.k
        oracle = coverage_deficit(state.graph(), state.members, k,
                                  convention="open")
        ids = np.concatenate([snap.nodes, [-1, 10 ** 9]])
        dv = qp.k_deficit(snap, ids)
        cv = qp.covered(snap, ids)
        for i, v in enumerate(snap.nodes.tolist()):
            assert int(dv[i]) == oracle[v]
            assert bool(cv[i]) == (oracle[v] == 0)
        assert dv[-1] == k and dv[-2] == k
        assert not cv[-1] and not cv[-2]

    def test_who_covers_matches_neighborhood_oracle(self, served):
        snap, state = served
        g = state.graph()
        ids = np.concatenate([snap.nodes, [10 ** 9]])
        indptr, doms = qp.who_covers(snap, ids)
        assert indptr[-1] == len(doms)
        for i, v in enumerate(snap.nodes.tolist()):
            expected = sorted(w for w in g.neighbors(v)
                              if w in state.members)
            got = sorted(doms[indptr[i]:indptr[i + 1]].tolist())
            assert got == expected
        assert indptr[-2] == indptr[-1]  # unknown id: empty row

    def test_dominator_of_semantics(self, served):
        snap, state = served
        g = state.graph()
        ids = np.concatenate([snap.nodes, [10 ** 9]])
        dom = qp.dominator_of(snap, ids)
        for i, v in enumerate(snap.nodes.tolist()):
            covering = sorted(w for w in g.neighbors(v)
                              if w in state.members)
            if v in state.members:
                assert dom[i] == v
            elif covering:
                assert dom[i] == covering[0]
            else:
                assert dom[i] == -1
        assert dom[-1] == -1

    def test_routes_stay_on_backbone(self, served):
        snap, state = served
        src = snap.nodes[:8]
        dst = snap.nodes[-8:]
        paths = qp.routes(snap, src, dst)
        members = snap.member_ids()
        for s, t, path in zip(src.tolist(), dst.tolist(), paths):
            if path is None:
                continue
            assert path[0] == s and path[-1] == t
            assert all(hop in members for hop in path[1:-1])

    def test_routes_unknown_endpoints_answer_none(self, served):
        snap, _ = served
        paths = qp.routes(snap, np.array([10 ** 9]),
                          np.array([int(snap.nodes[0])]))
        assert paths == [None]

    def test_malformed_batches_rejected(self, served):
        snap, _ = served
        with pytest.raises(QueryError, match="1-D"):
            qp.covered(snap, np.zeros((2, 2), dtype=np.int64))
        with pytest.raises(QueryError, match="integers"):
            qp.covered(snap, np.array(["a", "b"]))
        with pytest.raises(QueryError, match="integers"):
            qp.covered(snap, np.array([1.5]))
        with pytest.raises(QueryError, match="equal-length"):
            qp.routes(snap, np.array([1, 2]), np.array([3]))

    def test_answer_dispatch(self, served):
        snap, _ = served
        ids = snap.nodes[:4]
        np.testing.assert_array_equal(qp.answer(snap, "covered", ids),
                                      qp.covered(snap, ids))
        with pytest.raises(QueryError, match="unknown query kind"):
            qp.answer(snap, "who_is_there", ids)
        with pytest.raises(QueryError, match="need targets"):
            qp.answer(snap, "route", ids)

    def test_integral_float_ids_accepted(self, served):
        snap, _ = served
        ids = snap.nodes[:4].astype(float)
        np.testing.assert_array_equal(qp.covered(snap, ids),
                                      qp.covered(snap, snap.nodes[:4]))


# ======================================================================
# Process-pool sharded repair (the tentpole acceptance criterion)
# ======================================================================

class TestProcessExecutor:
    def _timeline_key(self, result):
        rows = result.timeline.to_dicts()
        for row in rows:
            row.pop("shards_active")
        return (tuple(sorted(result.final_members)),
                tuple(tuple(sorted(r.items())) for r in rows))

    def test_bit_identical_to_sequential_and_threaded(self):
        """Every (shards, workers) config, all three executors, one
        timeline."""
        baseline = None
        for shards, workers in [(1, 1), (2, 2), (4, 3)]:
            for executor in ("thread", "process"):
                result = run_scenario(_scenario(), LocalPatchRepair(),
                                      shards=shards, workers=workers,
                                      executor=executor)
                key = self._timeline_key(result)
                if baseline is None:
                    baseline = key
                    assert result.always_covered
                else:
                    assert key == baseline, (shards, workers, executor)
        sequential = run_scenario(_scenario(), LocalPatchRepair(),
                                  shards=1, workers=1)
        assert self._timeline_key(sequential) == baseline

    def test_invalid_process_configs_rejected(self):
        sc = _scenario()
        with pytest.raises(ShardingError, match="unknown executor"):
            MaintenanceLoop(sc, LocalPatchRepair(), shards=2,
                            executor="quantum")
        with pytest.raises(ShardingError, match="requires shards"):
            MaintenanceLoop(sc, LocalPatchRepair(), executor="process")
        with pytest.raises(ShardingError, match="incremental"):
            MaintenanceLoop(sc, LocalPatchRepair(), shards=2,
                            executor="process", incremental=False)

    def test_close_is_idempotent_and_loop_reusable(self):
        loop = MaintenanceLoop(_scenario(epochs=4), LocalPatchRepair(),
                               shards=2, workers=2, executor="process")
        first = loop.run()
        loop.close()
        loop.close()
        second = loop.run()  # pool is re-created lazily
        assert len(list(first.timeline)) == 4
        assert len(list(second.timeline)) == 4

    @pytest.mark.skipif(not os.path.isdir("/dev/shm"),
                        reason="no /dev/shm to inspect")
    def test_killed_worker_fails_loudly_and_cleans_up(self):
        """A worker killed between epochs breaks the next sharded epoch
        with ``BrokenProcessPool``, and ``close()`` still frees every
        shared-memory segment of the pool's store."""
        loop = MaintenanceLoop(_scenario(epochs=6, kill=0.6),
                               LocalPatchRepair(), shards=2, workers=2,
                               executor="process")
        try:
            loop.start()
            while loop._procpool is None:  # the first sharded repair
                loop.step()
            pool = loop._procpool
            prefix = pool._store._prefix
            assert glob.glob(f"/dev/shm/{prefix}*")
            victim = next(iter(pool._pool._processes.values()))
            os.kill(victim.pid, signal.SIGKILL)
            assert wait([victim.sentinel], timeout=30)
            with pytest.raises(BrokenProcessPool):
                loop.step()
        finally:
            loop.close()
        assert glob.glob(f"/dev/shm/{prefix}*") == []


# ======================================================================
# Resident stepping
# ======================================================================

class TestResidentStepping:
    def test_step_by_step_replays_run(self):
        batch = run_scenario(_scenario(), LocalPatchRepair())
        loop = MaintenanceLoop(_scenario(), LocalPatchRepair())
        loop.start()
        stepped = []
        for _ in range(loop.scenario.epochs):
            stepped.append(loop.step())
        result = loop.finish()
        assert stepped == list(batch.timeline)
        assert result.final_members == batch.final_members
        assert result.summary == batch.summary

    def test_step_past_scenario_horizon(self):
        loop = MaintenanceLoop(_scenario(epochs=2), LocalPatchRepair())
        for _ in range(4):
            record = loop.step()  # auto-starts, then keeps going
        assert record.epoch == 3
        assert loop.epochs_completed == 4

    def test_finish_before_start_raises(self):
        loop = MaintenanceLoop(_scenario(), LocalPatchRepair())
        with pytest.raises(ServiceError, match="before start"):
            loop.finish()

    def test_start_resets_resident_run(self):
        loop = MaintenanceLoop(_scenario(), LocalPatchRepair())
        loop.step()
        loop.start()
        assert loop.epochs_completed == 0
        assert len(list(loop.timeline)) == 0


# ======================================================================
# The daemon
# ======================================================================

class TestDaemon:
    def test_serves_and_drains(self):
        service = _fresh_service()
        daemon = CoverageDaemon(service, max_epochs=3)
        daemon.start()
        snap = service.current()
        ids = snap.nodes[:64]
        covered = daemon.query("covered", ids)
        assert covered.dtype == bool and len(covered) == 64
        daemon.wait_for_writer(timeout=60)
        report = daemon.drain()
        assert report["epochs_published"] == 4  # epoch 0 + 3 churn epochs
        assert report["queries"] >= 64
        assert report["qps"] > 0
        assert sum(report["per_kind"].values()) == report["queries"]

    def test_submit_after_drain_rejected(self):
        service = _fresh_service()
        daemon = CoverageDaemon(service, max_epochs=1)
        daemon.start()
        daemon.drain()
        with pytest.raises(ServiceError, match="draining"):
            daemon.submit("covered", np.array([0]))

    def test_drain_between_check_and_enqueue_strands_nothing(self):
        """A drain requested after ``submit`` checked the flag but before
        it enqueued must still see the batch answered: the interleaving
        is forced by draining from inside the queue's ``put``, and the
        dispatch thread is given time to exit before the batch lands."""
        service = _fresh_service()
        daemon = CoverageDaemon(service, max_epochs=0)
        daemon.start()
        real_put = daemon._queue.put

        def racing_put(task, *args, **kwargs):
            daemon.request_drain()
            daemon._dispatch_thread.join(0.5)
            real_put(task, *args, **kwargs)

        daemon._queue.put = racing_put
        ids = service.current().nodes[:8]
        future = daemon.submit("covered", ids)
        assert future.result(timeout=10).tolist() == \
            qp.covered(service.current(), ids).tolist()
        report = daemon.drain(timeout=30)
        assert not daemon._dispatch_thread.is_alive()
        assert report["batches"] == 1
        with pytest.raises(ServiceError, match="draining"):
            daemon.submit("covered", ids)

    def test_drain_under_concurrent_submits_answers_every_batch(self):
        """Clients racing a drain (more threads than cores, a short
        switch interval): every batch ``submit`` accepted is answered,
        and every client sees the refusal once the flag is set."""
        service = _fresh_service()
        daemon = CoverageDaemon(service, max_epochs=0)
        daemon.start()
        ids = service.current().nodes[:4]
        accepted, lock = [], threading.Lock()

        def client():
            while True:
                try:
                    future = daemon.submit("covered", ids)
                except ServiceError:
                    return
                with lock:
                    accepted.append(future)
                time.sleep(0)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            clients = [threading.Thread(target=client) for _ in range(6)]
            for t in clients:
                t.start()
            time.sleep(0.05)
            daemon.request_drain()
            for t in clients:
                t.join(10)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        want = qp.covered(service.current(), ids).tolist()
        assert accepted
        for future in accepted:
            assert future.result(timeout=10).tolist() == want
        report = daemon.drain(timeout=10)
        assert not daemon._dispatch_thread.is_alive()
        assert report["batches"] == len(accepted)

    def test_submit_before_start_rejected(self):
        daemon = CoverageDaemon(_fresh_service())
        with pytest.raises(ServiceError, match="not started"):
            daemon.submit("covered", np.array([0]))

    def test_query_errors_propagate_through_futures(self):
        service = _fresh_service()
        daemon = CoverageDaemon(service, max_epochs=1)
        daemon.start()
        future = daemon.submit("covered", np.zeros((2, 2), dtype=np.int64))
        with pytest.raises(QueryError, match="1-D"):
            future.result(timeout=30)
        daemon.drain()

    def test_double_start_rejected(self):
        daemon = CoverageDaemon(_fresh_service(), max_epochs=1)
        daemon.start()
        with pytest.raises(ServiceError, match="already started"):
            daemon.start()
        daemon.drain()

    def test_signal_requests_drain(self):
        service = _fresh_service()
        daemon = CoverageDaemon(service, max_epochs=2)
        previous = daemon.install_signal_handlers()
        try:
            daemon.start()
            signal.raise_signal(signal.SIGTERM)
            assert daemon.draining
            report = daemon.drain()
            assert report["duration_s"] > 0
        finally:
            for sig, handler in previous.items():
                signal.signal(sig, handler)

    def test_load_generator_validation(self):
        daemon = CoverageDaemon(_fresh_service(), max_epochs=1)
        daemon.start()
        with pytest.raises(ServiceError, match="batch must be"):
            LoadGenerator(daemon, batch=0)
        with pytest.raises(ServiceError, match="clients must be"):
            LoadGenerator(daemon, clients=0)
        with pytest.raises(ServiceError, match="unknown query kind"):
            LoadGenerator(daemon, kinds=("covered", "gossip"))
        daemon.drain()

    def test_load_generator_traffic_counts(self):
        service = _fresh_service()
        daemon = CoverageDaemon(service, max_epochs=3)
        daemon.start()
        generator = LoadGenerator(daemon, batch=128, clients=2, seed=5)
        generator.start()
        daemon.wait_for_writer(timeout=120)
        submitted = generator.stop()
        report = daemon.drain()
        assert submitted > 0
        assert report["queries"] >= submitted

    def test_process_executor_behind_daemon(self):
        loop = MaintenanceLoop(_scenario(epochs=3), LocalPatchRepair(),
                               shards=2, workers=2, executor="process")
        daemon = CoverageDaemon(CoverageService(loop), max_epochs=3)
        daemon.start()
        daemon.wait_for_writer(timeout=120)
        report = daemon.drain()
        assert report["epochs_published"] == 4


# ======================================================================
# CLI integration
# ======================================================================

class TestServeCLI:
    def test_serve_smoke_with_json(self, tmp_path, capsys):
        out = tmp_path / "serve.json"
        rc = cli_main(["serve", "--n", "200", "--k", "2", "--epochs", "3",
                       "--kill", "0.1", "--clients", "1", "--batch", "256",
                       "--seed", "1", "--json", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "throughput (queries/s)" in text
        data = json.loads(out.read_text())
        assert data["metrics"]["epochs_published"] == 4
        assert data["metrics"]["queries"] >= 0
        assert data["snapshot"]["n"] > 0
        # Epoch 0 is built in full; crash epochs carry it (or compact).
        index = data["metrics"]["dominator_index"]
        assert index["built"]["first"] == 1
        assert index["carried"] + index["built"]["compaction"] == 3
        assert data["snapshot"]["dominator_index"]["path"] in ("carried",
                                                               "built")
        assert "dominator index carried / built" in text
        assert data["config"]["executor"] == "thread"

    def test_serve_process_executor(self, capsys):
        rc = cli_main(["serve", "--n", "200", "--k", "2", "--epochs", "2",
                       "--kill", "0.1", "--clients", "1", "--batch", "128",
                       "--shards", "2", "--workers", "2",
                       "--executor", "process", "--seed", "1"])
        assert rc == 0
        assert "epochs published" in capsys.readouterr().out
