"""Coverage-as-a-service: the resident daemon over the maintenance loop.

Three cooperating pieces, all in one process:

- :class:`CoverageService` — the **single writer**: owns a
  :class:`~repro.dynamics.loop.MaintenanceLoop`, steps churn epochs, and
  publishes an immutable :class:`~repro.service.snapshot.EpochSnapshot`
  after each epoch verifies.  Publication is one reference swap (atomic
  under the GIL), so readers never see a partial epoch and never block
  the writer.
- :class:`CoverageDaemon` — the serving loop: a writer thread stepping
  epochs, a dispatch thread answering queued query batches against the
  *current* snapshot through :func:`repro.service.queries.answer`, a
  :class:`ServiceMetrics` aggregator (qps, per-kind counts, epoch lag,
  snapshot age, p50/p99 batch latency), and a graceful drain — on
  request (or SIGINT/SIGTERM via :meth:`install_signal_handlers`) it
  stops accepting queries, finishes the queue, stops the writer, and
  reports metrics.
- :class:`LoadGenerator` — synthetic client traffic for the
  ``repro serve`` CLI and ``benchmarks/bench_service.py``: ``clients``
  threads submitting random batches until stopped.

The queue + futures dispatch keeps the query plane single-threaded (one
batch at a time, vectorized inside), which is deliberate: a batch is one
numpy kernel pass, so parallel readers would only fight over memory
bandwidth, while the single dispatch thread gives every batch a
consistent snapshot and a clean latency sample.
"""

from __future__ import annotations

import queue
import signal
import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.dynamics.loop import MaintenanceLoop
from repro.errors import ServiceError
from repro.service.queries import QUERY_KINDS, answer
from repro.service.snapshot import EpochSnapshot

__all__ = [
    "ServiceMetrics",
    "CoverageService",
    "CoverageDaemon",
    "LoadGenerator",
]


class ServiceMetrics:
    """Thread-safe serving statistics, reported at drain time.

    Latency percentiles come from a bounded reservoir of the most
    recent ``MAX_SAMPLES`` batch latencies (enough for stable p99
    without unbounded growth on a long-lived daemon).
    """

    #: Latency reservoir size.
    MAX_SAMPLES = 8192

    def __init__(self):
        self._lock = threading.Lock()
        self.queries = 0
        self.batches = 0
        self.per_kind: Dict[str, int] = {k: 0 for k in QUERY_KINDS}
        self.epochs_published = 0
        #: How each published snapshot's dominator index was derived:
        #: carries (and the rows they rebuilt), full builds by reason.
        self.index_carried = 0
        self.index_rows_rebuilt = 0
        self.index_built: Dict[str, int] = {
            "first": 0, "topology": 0, "compaction": 0}
        self.max_epoch_lag = 0
        self.last_snapshot_age = 0.0
        self._latencies = deque(maxlen=self.MAX_SAMPLES)
        self._started_at: Optional[float] = None
        self._stopped_at: Optional[float] = None

    # ------------------------------------------------------------------
    def serving_started(self) -> None:
        with self._lock:
            if self._started_at is None:
                self._started_at = time.monotonic()

    def serving_stopped(self) -> None:
        with self._lock:
            if self._stopped_at is None:
                self._stopped_at = time.monotonic()

    def observe_publish(self, index: Optional[Dict[str, object]] = None
                        ) -> None:
        """Count one publication; ``index`` is the snapshot's
        :attr:`~repro.service.snapshot.EpochSnapshot.index_path`."""
        with self._lock:
            self.epochs_published += 1
            if index is None:
                return
            if index["path"] == "carried":
                self.index_carried += 1
                self.index_rows_rebuilt += int(index["rebuilt_rows"])
            else:
                self.index_built[index["reason"]] += 1

    def observe_batch(self, kind: str, size: int, latency_s: float,
                      epoch_lag: int, snapshot_age: float) -> None:
        with self._lock:
            self.queries += size
            self.batches += 1
            self.per_kind[kind] = self.per_kind.get(kind, 0) + size
            self._latencies.append(latency_s)
            if epoch_lag > self.max_epoch_lag:
                self.max_epoch_lag = epoch_lag
            self.last_snapshot_age = snapshot_age

    # ------------------------------------------------------------------
    def duration(self) -> float:
        with self._lock:
            if self._started_at is None:
                return 0.0
            end = self._stopped_at or time.monotonic()
            return max(end - self._started_at, 1e-9)

    def report(self) -> Dict[str, object]:
        """JSON-ready aggregate (the daemon's shutdown report)."""
        duration = self.duration()
        with self._lock:
            lat = np.asarray(self._latencies, dtype=float)
            p50, p99 = ((float(np.percentile(lat, 50)) * 1e3,
                         float(np.percentile(lat, 99)) * 1e3)
                        if lat.size else (0.0, 0.0))
            return {
                "queries": self.queries,
                "batches": self.batches,
                "qps": self.queries / duration if duration else 0.0,
                "per_kind": dict(self.per_kind),
                "p50_batch_ms": p50,
                "p99_batch_ms": p99,
                "epochs_published": self.epochs_published,
                "dominator_index": {
                    "carried": self.index_carried,
                    "rows_rebuilt": self.index_rows_rebuilt,
                    "built": dict(self.index_built),
                },
                "max_epoch_lag": self.max_epoch_lag,
                "last_snapshot_age_s": self.last_snapshot_age,
                "duration_s": duration,
            }


class CoverageService:
    """The single writer: resident loop + snapshot publication.

    Wraps a :class:`MaintenanceLoop`; :meth:`step_epoch` advances one
    churn epoch and publishes the verified state as a fresh snapshot.
    Usable standalone (synchronous stepping, e.g. in tests) or behind a
    :class:`CoverageDaemon`.
    """

    def __init__(self, loop: MaintenanceLoop, *,
                 metrics: Optional[ServiceMetrics] = None):
        self.loop = loop
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        self._snapshot: Optional[EpochSnapshot] = None

    # ------------------------------------------------------------------
    @property
    def snapshot(self) -> Optional[EpochSnapshot]:
        """The latest published snapshot (``None`` before
        :meth:`start`)."""
        return self._snapshot

    def current(self) -> EpochSnapshot:
        """The latest snapshot, or :class:`ServiceError` if none yet."""
        snap = self._snapshot
        if snap is None:
            raise ServiceError(
                "no snapshot published yet; start() the service first")
        return snap

    # ------------------------------------------------------------------
    def start(self) -> EpochSnapshot:
        """Arm the loop and publish the deployment's epoch-0 snapshot."""
        state = self.loop.start()
        return self._publish(state)

    def step_epoch(self):
        """Advance one churn epoch; returns ``(EpochRecord, snapshot)``."""
        if self.loop.state is None:
            self.start()
        record = self.loop.step()
        snap = self._publish(self.loop.state)
        return record, snap

    def _publish(self, state) -> EpochSnapshot:
        # Capture adopts the loop's final verify and carries the
        # dominator index over from the current snapshot, so readers
        # never build it; the handed-over vectors leave the loop.
        snap = EpochSnapshot.capture(state, self.loop.scenario.k,
                                     self.loop.epochs_completed,
                                     previous=self._snapshot,
                                     verified=self.loop.take_verified())
        # One reference swap — atomic under the GIL; readers keep
        # whatever snapshot they already hold.
        self._snapshot = snap
        self.metrics.observe_publish(snap.index_path)
        return snap

    # ------------------------------------------------------------------
    def result(self):
        """The run so far as a :class:`DynamicsResult`."""
        return self.loop.finish()

    def close(self) -> None:
        """Release the loop's pooled resources."""
        self.loop.close()


@dataclass
class _QueryTask:
    kind: str
    ids: object
    targets: object
    future: Future = field(default_factory=Future)


class CoverageDaemon:
    """The serving loop: writer + dispatch threads over one service.

    Parameters
    ----------
    service:
        The :class:`CoverageService` to serve (started lazily).
    max_epochs:
        Stop the writer after this many epochs (``None`` = run until
        drained).
    epoch_interval:
        Seconds the writer sleeps between epochs (0 = continuous churn;
        the load generator still gets plenty of snapshot turnover).
    """

    _POLL_S = 0.02

    def __init__(self, service: CoverageService, *,
                 max_epochs: Optional[int] = None,
                 epoch_interval: float = 0.0):
        self.service = service
        self.metrics = service.metrics
        self.max_epochs = max_epochs
        self.epoch_interval = float(epoch_interval)
        self._queue: "queue.Queue[_QueryTask]" = queue.Queue()
        self._draining = threading.Event()
        # Orders enqueueing against the drain flag: ``submit`` checks
        # and enqueues under it, the flag is set under it, and the
        # dispatch thread decides to exit under it.  Reentrant, so a
        # signal handler that runs inside ``submit`` can still drain.
        self._accepting = threading.RLock()
        self._dispatch_thread: Optional[threading.Thread] = None
        self._writer_thread: Optional[threading.Thread] = None
        self._writer_error: Optional[BaseException] = None

    # ------------------------------------------------------------------
    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    def start(self) -> None:
        """Publish the first snapshot and start both serving threads."""
        if self._dispatch_thread is not None:
            raise ServiceError("daemon already started")
        if self.service.snapshot is None:
            self.service.start()
        self.metrics.serving_started()
        self._dispatch_thread = threading.Thread(
            target=self._dispatch_loop, name="repro-serve-dispatch",
            daemon=True)
        self._writer_thread = threading.Thread(
            target=self._writer_loop, name="repro-serve-writer",
            daemon=True)
        self._dispatch_thread.start()
        self._writer_thread.start()

    # ------------------------------------------------------------------
    # Client side
    # ------------------------------------------------------------------
    def submit(self, kind: str, ids, targets=None) -> Future:
        """Enqueue one batch; the future resolves to its answer."""
        if self._dispatch_thread is None:
            raise ServiceError("daemon not started")
        task = _QueryTask(kind=kind, ids=ids, targets=targets)
        with self._accepting:
            if self._draining.is_set():
                raise ServiceError(
                    "daemon is draining; not accepting queries")
            self._queue.put(task)
        return task.future

    def query(self, kind: str, ids, targets=None):
        """Submit one batch and wait for its answer."""
        return self.submit(kind, ids, targets=targets).result()

    # ------------------------------------------------------------------
    # Serving threads
    # ------------------------------------------------------------------
    def _dispatch_loop(self) -> None:
        while True:
            try:
                task = self._queue.get(timeout=self._POLL_S)
            except queue.Empty:
                # Exit only once draining and nothing is queued: a batch
                # enqueued before the flag was set is still answered.
                with self._accepting:
                    if self._draining.is_set() and self._queue.empty():
                        return
                continue
            snap = self.service.current()
            t0 = time.perf_counter()
            try:
                result = answer(snap, task.kind, task.ids, task.targets)
            except BaseException as exc:
                task.future.set_exception(exc)
                continue
            latency = time.perf_counter() - t0
            try:
                size = len(task.ids)
            except TypeError:  # pragma: no cover — scalar batch
                size = 1
            lag = self.service.loop.epochs_completed - snap.epoch
            self.metrics.observe_batch(task.kind, size, latency, lag,
                                       snap.age())
            task.future.set_result(result)

    def _writer_loop(self) -> None:
        done = 0
        try:
            while not self._draining.is_set():
                if self.max_epochs is not None and done >= self.max_epochs:
                    return
                self.service.step_epoch()
                done += 1
                if self.epoch_interval > 0:
                    self._draining.wait(self.epoch_interval)
        except BaseException as exc:  # surfaced by drain()
            self._writer_error = exc

    def wait_for_writer(self, timeout: Optional[float] = None) -> bool:
        """Block until the writer finishes its epoch budget (or
        ``timeout``); returns whether it has finished."""
        if self._writer_thread is None:
            raise ServiceError("daemon not started")
        self._writer_thread.join(timeout)
        return not self._writer_thread.is_alive()

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    def request_drain(self) -> None:
        """Signal-safe shutdown request (idempotent): stop accepting
        queries; the serving threads wind down asynchronously, the
        dispatch thread after answering every batch already queued."""
        with self._accepting:
            self._draining.set()

    def drain(self, timeout: Optional[float] = None) -> Dict[str, object]:
        """Graceful shutdown: refuse new queries, answer everything
        already queued, stop the writer, release pooled resources, and
        return the final metrics report."""
        self.request_drain()
        if self._writer_thread is not None:
            self._writer_thread.join(timeout)
        if self._dispatch_thread is not None:
            self._dispatch_thread.join(timeout)
        self.metrics.serving_stopped()
        self.service.close()
        if self._writer_error is not None:
            raise self._writer_error
        return self.metrics.report()

    def install_signal_handlers(
            self, signals: Sequence[int] = (signal.SIGINT, signal.SIGTERM)
    ) -> Dict[int, object]:
        """Route SIGINT/SIGTERM to :meth:`request_drain` (main thread
        only); returns the previous handlers so callers can restore
        them."""
        previous: Dict[int, object] = {}

        def _handler(signum, frame):
            self.request_drain()

        for sig in signals:
            previous[sig] = signal.signal(sig, _handler)
        return previous


class LoadGenerator:
    """Synthetic query traffic against a :class:`CoverageDaemon`.

    ``clients`` threads each submit random ``batch``-sized id batches of
    the configured ``kinds`` (ids drawn from ``[0, id_space)`` — a hair
    above the deployment's id range, so a realistic fraction races churn
    and hits the unknown-id path) and wait for each answer before
    submitting the next, until :meth:`stop`.
    """

    def __init__(self, daemon: CoverageDaemon, *, batch: int = 1024,
                 clients: int = 1,
                 kinds: Sequence[str] = ("covered", "k_deficit",
                                         "dominator_of", "who_covers"),
                 seed: int = 0,
                 id_space: Optional[int] = None):
        if batch < 1:
            raise ServiceError(f"batch must be at least 1, got {batch}")
        if clients < 1:
            raise ServiceError(f"clients must be at least 1, got {clients}")
        unknown = [k for k in kinds if k not in QUERY_KINDS]
        if unknown:
            raise ServiceError(
                f"unknown query kind {unknown[0]!r}; "
                f"expected one of {QUERY_KINDS}")
        self.daemon = daemon
        self.batch = int(batch)
        self.clients = int(clients)
        self.kinds = tuple(kinds)
        self.seed = int(seed)
        if id_space is None:
            snap = daemon.service.current()
            top = int(snap.nodes.max()) if snap.n else 0
            id_space = top + 1 + max(1, top // 50)
        self.id_space = int(id_space)
        self._stop = threading.Event()
        self._threads: List[threading.Thread] = []
        self._submitted = [0] * self.clients

    # ------------------------------------------------------------------
    def _client_loop(self, rank: int) -> None:
        rng = np.random.default_rng([self.seed, rank])
        kinds = self.kinds
        while not self._stop.is_set():
            kind = kinds[int(rng.integers(len(kinds)))]
            ids = rng.integers(0, self.id_space, size=self.batch,
                               dtype=np.int64)
            targets = (rng.integers(0, self.id_space, size=self.batch,
                                    dtype=np.int64)
                       if kind == "route" else None)
            try:
                self.daemon.submit(kind, ids, targets=targets).result()
            except ServiceError:
                return  # daemon drained under us — clean exit
            self._submitted[rank] += self.batch

    def start(self) -> None:
        if self._threads:
            raise ServiceError("load generator already started")
        self._threads = [
            threading.Thread(target=self._client_loop, args=(i,),
                             name=f"repro-serve-client-{i}", daemon=True)
            for i in range(self.clients)
        ]
        for t in self._threads:
            t.start()

    def stop(self, timeout: Optional[float] = 10.0) -> int:
        """Stop the clients; returns total queries submitted."""
        self._stop.set()
        for t in self._threads:
            t.join(timeout)
        self._threads = []
        return sum(self._submitted)
