"""In-memory span tracer for the benchmark's traced run.

No file under ``src/`` knows about tracing.  Instead :meth:`Tracer.install`
replaces the module attributes each layer's callers look up (a function
in its defining module and in every ``repro`` module that imported it by
name, or a method on its class) with a wrapper that records a span:
``[name, start_ns, end_ns, parent, op]``.  Spans are kept in a list and
written out once, at the end of the run.

Only work inside an op (:meth:`Tracer.op`) is recorded, so the
benchmark's own correctness checks, which call the same kernels, never
show up as layer time.  Counters are frozen after the first pass so they
repeat exactly for a given seed.
"""

from __future__ import annotations

import json
import sys
import threading
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

class NullTracer:
    """The untraced run's tracer: every hook is a no-op."""

    enabled = False

    @contextmanager
    def op(self, name):
        yield

    @contextmanager
    def span(self, name):
        yield

    def freeze_counts(self):
        pass


class Tracer:
    """Span recorder plus the layer wrappers that feed it."""

    enabled = True

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._op = None
        self._ops = 0
        self._counting = True
        self._undo = []
        self._main = threading.get_ident()
        self._cache_base = None

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter_ns(), 0, parent, self._op])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def op(self, name):
        """One benchmark operation: the root span of everything below.
        An op opened inside another (set-up warm-up) adds no span."""
        if self._op is not None:
            yield
            return
        self._op = self._ops
        self._ops += 1
        idx = self._open("op." + name)
        try:
            yield
        finally:
            self._close(idx)
            self._op = None

    @contextmanager
    def span(self, name):
        if self._op is None:
            yield
            return
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def count(self, name, value=1):
        if self._counting and self._op is not None:
            self.counts[name] += value

    def freeze_counts(self):
        """Stop counting (called after the first pass)."""
        if self._counting:
            from repro.engine.artifacts import cache_stats

            self._counting = False
            self.counts["artifacts.cache_misses"] = (
                cache_stats()["misses"] - self._cache_base)

    def _active(self):
        return self._op is not None and threading.get_ident() == self._main

    def _parent_name(self):
        return self.spans[self._stack[-1]][0] if self._stack else None

    def wrap(self, fn, name, after=None, when=None):
        """``fn`` recording a ``name`` span per call.

        ``after(result, args, kwargs)`` runs once the call returns, for
        counters read off the layer's own outputs; ``when(args)`` can
        restrict recording to some calls (first builds of a lazy cache).
        A call nested in a span of the same name counts once.
        """
        tracer = self

        def traced(*args, **kwargs):
            if not tracer._active() or (when is not None and not when(args)):
                return fn(*args, **kwargs)
            outer = tracer._parent_name() != name
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if outer:
                tracer.count(name + ".calls")
                if after is not None:
                    after(result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def patch_function(self, module, attr, name, after=None):
        """Wrap ``module.attr`` and every ``repro`` module-level binding of
        the same function object (``from x import f`` callers)."""
        orig = getattr(module, attr)
        wrapped = self.wrap(orig, name, after=after)
        for mod in list(sys.modules.values()):
            if mod is None or not getattr(mod, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    self._set(mod, key, wrapped)

    def patch_method(self, cls, attr, name, after=None, when=None):
        self._set(cls, attr, self.wrap(cls.__dict__[attr], name,
                                       after=after, when=when))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def install(self):
        """Wrap every layer boundary the benchmark reports."""
        from repro.core import fractional, rounding, udg
        from repro.dynamics import loop, repair, state
        from repro.engine import artifacts, dispatch, kernels
        from repro.graphs import udg as graphs_udg
        from repro.service import queries, server, snapshot
        from repro.simulation import columnar, faults, network, steppers, vecrng

        self._cache_base = artifacts.cache_stats()["misses"]
        count = self.count

        # graphs / engine.artifacts
        self.patch_method(graphs_udg.UnitDiskGraph, "__init__",
                          "graphs.udg_build")
        self.patch_method(artifacts.GraphArtifacts, "__init__",
                          "artifacts.build")
        self.patch_method(artifacts.StackedGraphs, "__init__",
                          "artifacts.build")

        # simulation.vecrng: pool construction and lanes seeded
        self.patch_function(vecrng, "node_stream_pool", "vecrng.seed",
                            after=lambda r, a, k: count("vecrng.lanes",
                                                        len(r.nodes)))
        self.patch_function(
            vecrng, "replica_node_streams", "vecrng.seed",
            after=lambda r, a, k: count("vecrng.lanes",
                                        len(r.nodes) * len(r.seeds)))
        self.patch_method(
            vecrng.GridReplicaStreams, "__init__", "vecrng.seed",
            after=lambda r, a, k: count("vecrng.lanes",
                                        a[0].total * len(a[0].seeds)))

        # core.udg: Part I, Part II, per-cell packaging
        def part1_rounds(details):
            return lambda r, a, k: count("udg.part1_rounds",
                                         len(details(a)["theta_per_round"]))

        def part2_iters(rows):
            def after(result, args, kwargs):
                cells = [c for row in rows(args)
                         for c in (row if isinstance(row, list) else [row])]
                count("udg.part2_iterations",
                      sum(c.get("part2_iterations", 0) for c in cells))
            return after

        self.patch_function(udg, "_part_one_kernel", "udg.part1",
                            after=part1_rounds(lambda a: a[2]))
        self.patch_function(udg, "_part_one_kernel_batch", "udg.part1",
                            after=part1_rounds(lambda a: a[2][0]))
        self.patch_function(udg, "_part_one_kernel_grid", "udg.part1",
                            after=part1_rounds(lambda a: a[2][0][0]))
        self.patch_function(udg, "_part_two_kernel", "udg.part2",
                            after=part2_iters(lambda a: [a[5]]))
        self.patch_function(udg, "_part_two_kernel_batch", "udg.part2",
                            after=part2_iters(lambda a: a[5]))
        self.patch_function(udg, "_members_set", "udg.collect")
        self.patch_method(udg.UDGProgram, "collect", "udg.collect")

        # engine.kernels: the coverage plane
        for fn in ("member_counts", "member_counts_batch",
                   "member_counts_stacked", "deficit_vector",
                   "scatter_cover", "scatter_cover_batch"):
            self.patch_function(kernels, fn, "kernels.coverage")

        # engine.dispatch: provider per call, native time per entry
        self._set(dispatch, "kernel", self._dispatch_kernel(dispatch.provider))

        # simulation.network: network and process construction
        self.patch_method(network.SynchronousNetwork, "__init__",
                          "network.build")
        for program in (udg.UDGProgram, fractional.FractionalProgram,
                        rounding.RoundingProgram):
            self.patch_method(program, "processes", "network.build")

        # simulation.columnar: plans, eligibility, the batched loop
        self.patch_method(columnar.MessagePlan, "__init__", "columnar.plan")
        self.patch_function(columnar, "plan_for", "columnar.plan_lookup")
        self.patch_function(
            columnar, "try_columnar", "columnar.try",
            after=lambda r, a, k: count("columnar.engaged_runs",
                                        int(r is not None)))
        self.patch_function(
            columnar, "run_columnar", "columnar.run",
            after=lambda r, a, k: count("columnar.rounds", r.rounds))

        # simulation.steppers
        for cls in (steppers.UDGStepper, steppers.FractionalStepper,
                    steppers.RoundingStepper):
            self.patch_method(cls, "advance", "steppers.advance")
        self.patch_function(columnar, "inbox_reduce", "steppers.inbox_reduce")

        # simulation.faults: the per-node plane's batch filter (the
        # columnar plane draws through the injector rng, see watch_rng)
        self.patch_method(faults.MessageLossInjector, "filter_batch",
                          "faults.filter")

        # dynamics
        self.patch_method(state.NetworkState, "apply_all", "dynamics.churn",
                          after=lambda r, a, k: count("dynamics.events",
                                                      len(a[1])))
        self.patch_method(loop.MaintenanceLoop, "_shortfalls",
                          "dynamics.deficit")
        self.patch_method(repair.LocalPatchRepair, "repair",
                          "dynamics.repair")

        # service
        self.patch_method(server.CoverageService, "_publish",
                          "service.publish")
        self.patch_method(snapshot.EpochSnapshot, "dominator_csr",
                          "service.lazy_index",
                          when=lambda a: a[0]._dom_csr is None)
        self.patch_method(snapshot.EpochSnapshot, "min_dominator",
                          "service.lazy_index",
                          when=lambda a: a[0]._min_dom is None)
        answer = queries.answer
        tracer = self

        def traced_answer(snap, kind, ids, targets=None):
            with tracer.span("service.query." + kind):
                return answer(snap, kind, ids, targets)

        self._set(queries, "answer", traced_answer)

    def _dispatch_kernel(self, provider):
        tracer = self
        wrapped = {}

        def kernel(entry, size=None):
            name, impl = provider(entry, size)
            if not tracer._active():
                return impl
            side = "numpy" if impl is None else "native"
            tracer.count(f"dispatch.{entry}.{side}_calls")
            if impl is None:
                return None
            if impl not in wrapped:
                wrapped[impl] = tracer.wrap(impl, "dispatch." + entry)
            return wrapped[impl]

        return kernel

    def watch_rng(self, injector):
        """Time the loss injector's Bernoulli draws (the columnar plane
        filters inline through ``injector.rng.random``)."""
        injector.rng = _TimedRng(injector.rng, self)

    # ------------------------------------------------------------------
    # Reduction
    # ------------------------------------------------------------------
    def summary(self):
        """Per-layer self time and calls, plus op wall and unattributed.

        Self time is a span's duration minus the time its direct child
        spans cover.  The unattributed share is the part of op wall time
        that no layer span directly under the op covers.
        """
        child_ns = [0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
        self_ns = defaultdict(int)
        calls = Counter()
        op_wall = defaultdict(int)
        op_covered = defaultdict(int)
        for i, (name, t0, t1, parent, _) in enumerate(self.spans):
            dur = t1 - t0
            if name.startswith("op."):
                op_wall[name[3:]] += dur
                op_covered[name[3:]] += child_ns[i]
            else:
                self_ns[name] += dur - child_ns[i]
                calls[name] += 1
        return {
            "self_s": {k: v / 1e9 for k, v in sorted(self_ns.items())},
            "spans": dict(sorted(calls.items())),
            "op_wall_s": {k: v / 1e9 for k, v in op_wall.items()},
            "op_unattributed_s": {k: (op_wall[k] - op_covered[k]) / 1e9
                                  for k in op_wall},
            "counts": dict(sorted(self.counts.items())),
        }

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent",
                                  "op"],
                       "spans": self.spans}, fh)


class _TimedRng:
    """Proxy timing ``random`` draws as ``faults.filter`` spans."""

    def __init__(self, rng, tracer):
        self._rng = rng
        self._tracer = tracer

    def random(self, *args, **kwargs):
        with self._tracer.span("faults.filter"):
            return self._rng.random(*args, **kwargs)

    def __getattr__(self, attr):
        return getattr(self._rng, attr)
