"""The benchmark's three workloads.

Each workload builds fixed inputs from the seed (:meth:`setup`) and runs
one deterministic *pass* of timed operations (:meth:`run_pass`);
``run.py`` repeats passes until the measuring time is used up.  The first
pass checks every op against an oracle; later passes check every op by
its fingerprint, which must equal the first pass's.  A pass's digest
covers every op's members and ``RunStats`` (and the timeline for
``maintain``), so two runs of the same code and seed print the same
digest.

Every workload reports the same end-to-end timings, each naming a role
the workload fills with its own op (see ``ROLES``):

- ``bulk``: the large op (a 300-cell grid dispatch, one protocol pass,
  one maintenance epoch);
- ``point``: the small op (one n=500 solve, six lossy simulated rounds,
  one 8192-id query batch).

Each is a best time (see :func:`best`), which ``run.py`` scales to the
host's speed.  Medians, tails and rates are printed by name above the
result line.
"""

from __future__ import annotations

import dataclasses
import hashlib
import statistics
from time import perf_counter, perf_counter_ns

import numpy as np

from repro.core.general import solve_kmds_general
from repro.core.udg import UDGNode, solve_kmds_udg, solve_kmds_udg_grid, theta_schedule
from repro.core.verify import is_k_dominating_set
from repro.dynamics.events import RandomCrashes
from repro.dynamics.loop import MaintenanceLoop
from repro.dynamics.repair import LocalPatchRepair
from repro.dynamics.scenario import crash_scenario
from repro.engine.artifacts import graph_artifacts
from repro.engine.instrumentation import Instrumentation
from repro.graphs.properties import feasible_coverage
from repro.graphs.udg import random_udg
from repro.service import queries
from repro.service.server import CoverageService
from repro.simulation.faults import MessageLossInjector
from repro.simulation.network import SynchronousNetwork
from repro.simulation.runner import run_protocol

#: The role each workload's ops fill in the shared end-to-end metrics.
ROLES = {
    "sweep": {"bulk": "one 10-topology x 3-k x 10-seed grid dispatch "
                      "(work = cells)",
              "point": "one n=500 single-run solve"},
    "protocol": {"bulk": "one pass: Alg 3 + Alg 1-then-2 message runs "
                         "and one lossy Alg 3 run (work = messages)",
                 "point": "six consecutive simulated rounds of the lossy run"},
    "maintain": {"bulk": "one step_epoch incl. publish (work = crashes)",
                 "point": "one 8192-id query batch (work = ids)"},
}


def tail(samples, q=99.0):
    """``(value, percentile)``: the ``q``-th percentile, or the highest
    lower one from a fixed ladder that has >= 10 samples beyond it."""
    arr = np.asarray(samples, dtype=float)
    for pct in [q] + [p for p in (98.0, 95.0, 90.0, 75.0, 50.0) if p < q]:
        value = float(np.percentile(arr, pct))
        if int((arr > value).sum()) >= 10:
            return value, pct
    return float(arr.max()), 100.0


def _fp(*parts) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.digest()


def _members(members) -> bytes:
    return np.array(sorted(members), dtype=np.int64).tobytes()


def _stats(stats):
    return (stats.rounds, stats.messages_sent, stats.bits_sent,
            stats.max_message_bits)


@dataclasses.dataclass
class Op:
    kind: str
    seconds: float
    fingerprint: bytes
    ok: bool


@dataclasses.dataclass
class Pass:
    ops: list
    #: Extra per-pass samples (protocol: 6-round window latencies in s).
    samples: list = dataclasses.field(default_factory=list)
    #: Layer counts read off the workload's own outputs.
    counts: dict = dataclasses.field(default_factory=dict)

    def digest(self) -> str:
        return _fp(*(op.fingerprint for op in self.ops)).hex()

    def times(self, kind):
        return [op.seconds for op in self.ops if op.kind == kind]


def _p50(values):
    return statistics.median(values)


def best(series):
    """Mean over positions of each position's fastest time.

    ``series`` holds one list of samples per pass; every pass runs the
    same ops in the same order, so position ``i`` is the same input in
    each.  On a shared host the speed of the same code swings by up to
    1.5x within seconds, which moves medians by tens of percent between
    runs; the fastest repeat of a deterministic op moves far less.
    """
    mins = [min(ts) for ts in zip(*series)]
    return sum(mins) / len(mins)


# ======================================================================
# sweep: the research use (E6/E7 grids plus small single runs)
# ======================================================================

class Sweep:
    name = "sweep"
    N, GRAPHS, KS, SEEDS = 10_000, 10, (1, 2, 3), 10
    SINGLE_N, POOL, SINGLES = 500, 20, 200
    #: The single-run p99 is set by a handful of slow (graph, k, seed)
    #: inputs, so it jumps between seeds; p95 repeats.
    TAIL = 95.0

    def setup(self, seed, tr):
        base = seed * 1000
        inp = {
            "graphs": [random_udg(self.N, density=10.0, seed=base + g)
                       for g in range(self.GRAPHS)],
            "small": [random_udg(self.SINGLE_N, density=10.0,
                                 seed=base + 100 + i)
                      for i in range(self.POOL)],
            "grid_seeds": [base + r for r in range(self.SEEDS)],
            "single_seed": base + 500,
        }
        # First-call warm-up: artifacts, stacked CSR, cached Part I
        # compressions, one solve per small graph.
        solve_kmds_udg_grid(inp["graphs"], inp["grid_seeds"], ks=self.KS)
        for i, g in enumerate(inp["small"]):
            solve_kmds_udg(g, k=1 + i % 3, seed=inp["single_seed"] + i)
        return inp

    def run_pass(self, inp, tr, check):
        ops = []
        with tr.op("grid"):
            t0 = perf_counter()
            grid = solve_kmds_udg_grid(inp["graphs"], inp["grid_seeds"],
                                       ks=self.KS)
            dt = perf_counter() - t0
        ok, cells = True, []
        for g, per_k in enumerate(grid):
            art = graph_artifacts(inp["graphs"][g]) if check else None
            for k, per_seed in zip(self.KS, per_k):
                for ds in per_seed:
                    cells.append(_fp(_members(ds.members), _stats(ds.stats)))
                    if check:
                        ok &= is_k_dominating_set(art, ds.members, k)
        ops.append(Op("grid", dt, _fp(*cells), ok))
        for i in range(self.SINGLES):
            g = inp["small"][i % self.POOL]
            k = 1 + i % 3
            with tr.op("single"):
                t0 = perf_counter()
                ds = solve_kmds_udg(g, k=k, seed=inp["single_seed"] + i)
                dt = perf_counter() - t0
            ok = (not check
                  or is_k_dominating_set(graph_artifacts(g), ds.members, k))
            ops.append(Op("single", dt,
                          _fp(_members(ds.members), _stats(ds.stats)), ok))
        return Pass(ops)

    def metrics(self, passes):
        grid = [t for p in passes for t in p.times("grid")]
        single = [t for p in passes for t in p.times("single")]
        cells = self.GRAPHS * len(self.KS) * self.SEEDS
        tail_s, pct = tail(single, self.TAIL)
        generic = {
            "bulk_best_s": best([p.times("grid") for p in passes]),
            "point_best_s": best([p.times("single") for p in passes]),
        }
        named = [
            ("sweep.cells_per_s", cells / _p50(grid), "1/s"),
            ("sweep.grid_p50_ms", _p50(grid) * 1e3, "ms"),
            ("sweep.single_p50_ms", _p50(single) * 1e3, "ms"),
            (f"sweep.single_p{pct:g}_ms", tail_s * 1e3, "ms"),
            ("sweep.singles_per_s", len(single) / sum(single), "1/s"),
            ("sweep.single_samples", len(single), "count"),
        ]
        return generic, named


# ======================================================================
# protocol: the paper's message-passing model
# ======================================================================

class _RoundClock(Instrumentation):
    """The run's accountant, also timing every ``WINDOW`` rounds (one
    clock read per round; the accounting itself is unchanged).

    Single rounds are no steady sample: Part I alternates two round
    kinds and Part II cycles three of very different cost, so the
    per-round median sits between modes.  Six consecutive rounds hold
    every kind in equal measure.
    """

    WINDOW = 6

    def __init__(self, size_model, sink):
        super().__init__(size_model)
        self._sink = sink
        self._rounds = 0
        self._start = perf_counter_ns()

    def end_round(self, round_index, active_nodes):
        super().end_round(round_index, active_nodes)
        self._rounds += 1
        if self._rounds % self.WINDOW == 0:
            now = perf_counter_ns()
            self._sink.append((now - self._start) * 1e-9)
            self._start = now


class Protocol:
    name = "protocol"
    N, K = 10_000, 2
    #: n=1000 keeps the pass under a second, so a run holds enough
    #: passes for a steady best time; the run still reaches the cap.
    LOSSY_N, LOSS = 1000, 0.05
    #: The lossy run uses fixed inputs: its round count (it reaches the
    #: Part II iteration cap) does not vary with the workload seed.
    LOSSY_GRAPH_SEED, LOSSY_SEEDS = 17, (0,)

    def setup(self, seed, tr):
        g = random_udg(self.N, density=10.0, seed=seed)
        inp = {
            "graph": g,
            "coverage": feasible_coverage(g, self.K),
            "lossy": random_udg(self.LOSSY_N, density=10.0,
                                seed=self.LOSSY_GRAPH_SEED),
            "alg3_seed": seed + 1,
            "general_seed": seed + 2,
        }
        ref = solve_kmds_udg(g, k=self.K, mode="direct", seed=seed + 1)
        if not is_k_dominating_set(graph_artifacts(g), ref.members, self.K):
            raise RuntimeError("direct-mode reference is not k-dominating")
        inp["reference"] = ref.members
        self.run_pass(inp, tr, check=False)      # first-call warm-up
        return inp

    def _lossy(self, inp, seed, tr, sink):
        udg = inp["lossy"]
        n = udg.n
        with tr.span("network.build"):
            procs = [UDGNode(v, self.K, n, "random", n + 1) for v in range(n)]
            net = SynchronousNetwork(udg, procs, seed=seed)
        injector = MessageLossInjector(self.LOSS, seed=seed + 1)
        if tr.enabled:
            tr.watch_rng(injector)
        stats = run_protocol(
            net, injectors=[injector],
            max_rounds=2 * len(theta_schedule(n)) + 3 * (n + 1) + 8,
            instrumentation=_RoundClock(net.size_model, sink))
        return procs, stats, injector.dropped

    def run_pass(self, inp, tr, check):
        g = inp["graph"]
        ops, windows = [], []
        counts = {"runner.round_cap_hits": 0, "faults.dropped": 0}

        with tr.op("alg3_message"):
            t0 = perf_counter()
            ds = solve_kmds_udg(g, k=self.K, mode="message",
                                seed=inp["alg3_seed"])
            dt = perf_counter() - t0
        ops.append(Op("alg3_message", dt,
                      _fp(_members(ds.members), _stats(ds.stats)),
                      ds.members == inp["reference"]))
        messages = ds.stats.messages_sent
        sim_rounds = ds.stats.rounds

        with tr.op("general_message"):
            t0 = perf_counter()
            res = solve_kmds_general(g, self.K, coverage=inp["coverage"],
                                     mode="message",
                                     seed=inp["general_seed"])
            dt = perf_counter() - t0
        members = res.dominating_set.members
        ok = (not check or is_k_dominating_set(
            graph_artifacts(g), members, inp["coverage"],
            convention="closed"))
        ops.append(Op("general_message", dt,
                      _fp(_members(members), _stats(res.stats)), ok))
        messages += res.stats.messages_sent
        sim_rounds += res.stats.rounds

        n = inp["lossy"].n
        cap_rounds = 2 * len(theta_schedule(n)) + 2 + 3 * (n + 1)
        for seed in self.LOSSY_SEEDS:
            with tr.op("lossy"):
                t0 = perf_counter()
                procs, stats, dropped = self._lossy(inp, seed, tr, windows)
                dt = perf_counter() - t0
            leaders = {p.node_id for p in procs if p.leader}
            # Loss voids Algorithm 3's guarantee, so the oracle check is
            # the round bound plus a nonempty output; determinism is
            # checked by fingerprint on every later pass.
            ok = stats.rounds <= cap_rounds and bool(leaders)
            ops.append(Op("lossy", dt,
                          _fp(_members(leaders), _stats(stats), dropped), ok))
            counts["runner.round_cap_hits"] += int(stats.rounds == cap_rounds)
            counts["faults.dropped"] += dropped
            messages += stats.messages_sent
            sim_rounds += stats.rounds
        counts["protocol.messages"] = messages
        counts["protocol.rounds"] = sim_rounds
        return Pass(ops, samples=windows, counts=counts)

    def metrics(self, passes):
        per_pass = [sum(op.seconds for op in p.ops) for p in passes]
        windows = [s for p in passes for s in p.samples]
        messages = passes[0].counts["protocol.messages"]
        sim_rounds = passes[0].counts["protocol.rounds"]
        tail_s, pct = tail(windows)
        ops = [[op.seconds for op in p.ops] for p in passes]
        generic = {
            "bulk_best_s": best(ops) * len(ops[0]),
            "point_best_s": best([p.samples for p in passes]),
        }
        named = [
            ("protocol.pass_p50_s", _p50(per_pass), "s"),
            ("protocol.msgs_per_s", messages / _p50(per_pass), "1/s"),
            ("protocol.rounds_per_s", sim_rounds / _p50(per_pass), "1/s"),
            ("protocol.lossy_6round_p50_ms", _p50(windows) * 1e3, "ms"),
            (f"protocol.lossy_6round_p{pct:g}_ms", tail_s * 1e3, "ms"),
            ("protocol.passes", len(passes), "count"),
            ("protocol.round_cap_hits_per_pass",
             passes[0].counts["runner.round_cap_hits"], "count"),
        ]
        return generic, named


# ======================================================================
# maintain: live maintenance with a closed-loop reader
# ======================================================================

class Maintain:
    name = "maintain"
    #: n=5e4 over 10 epochs with 16 batches each keeps set-up near 4 s
    #: and a pass near 1.5 s, so three set-ups and enough passes for a
    #: steady best time fit in one run.
    N, K, EPOCHS, KILL = 50_000, 3, 10, 0.2
    BATCHES, BATCH = 16, 8192
    #: One pass gives 160 batches: too few for 10 samples beyond p99.
    TAIL = 98.0
    KINDS = ("covered", "k_deficit", "dominator_of", "who_covers")
    #: Ids per batch whose answers are recomputed from the snapshot.
    SAMPLED = 4

    def _service(self, inp):
        """A fresh writer over the scenario: a new loop and a new crash
        stream seeded as ``crash_scenario`` seeds it, so every pass
        replays the same churn."""
        scenario = inp["scenario"]
        stream = scenario.streams[0]
        scenario.streams = [RandomCrashes(stream.per_epoch,
                                          target=stream.target,
                                          seed=inp["seed"] + 1)]
        service = CoverageService(MaintenanceLoop(scenario,
                                                  LocalPatchRepair()))
        service.start()
        return service

    def setup(self, seed, tr):
        inp = {"seed": seed,
               "scenario": crash_scenario(n=self.N, k=self.K,
                                          epochs=self.EPOCHS,
                                          kill_fraction=self.KILL,
                                          seed=seed)}
        # First-call warm-up: arm a writer and answer each query kind.
        service = self._service(inp)
        snap = service.current()
        top = int(snap.nodes.max())
        # LoadGenerator's id space: a hair above the deployment's ids,
        # so some queries hit the unknown-id path.
        inp["id_space"] = top + 1 + max(1, top // 50)
        warm = np.arange(self.BATCH, dtype=np.int64)
        for kind in self.KINDS:
            queries.answer(snap, kind, warm)
        service.close()
        return inp

    def _check(self, snap, kind, ids, answer):
        """Recompute sampled answers from the snapshot's arrays."""
        for j in range(self.SAMPLED):
            q = int(ids[j])
            pos = np.flatnonzero(snap.nodes == q)
            if pos.size == 0:
                known, deficit, doms, member = False, snap.k, [], False
            else:
                i = int(pos[0])
                row = snap.indices[snap.indptr[i]:snap.indptr[i + 1]]
                doms = sorted(int(snap.nodes[c]) for c in row
                              if c != i and snap.member_mask[c])
                member = bool(snap.member_mask[i])
                deficit = 0 if member else max(0, snap.k - len(doms))
                known = True
                if int(snap.deficit[i]) != deficit:
                    return False
            if kind == "covered":
                good = bool(answer[j]) == (known and deficit == 0)
            elif kind == "k_deficit":
                good = int(answer[j]) == deficit
            elif kind == "dominator_of":
                want = q if member else (doms[0] if doms else -1)
                good = int(answer[j]) == (want if known else -1)
            else:
                indptr, dom_ids = answer
                got = sorted(dom_ids[indptr[j]:indptr[j + 1]].tolist())
                good = got == doms
            if not good:
                return False
        return True

    def run_pass(self, inp, tr, check):
        service = self._service(inp)
        rng = np.random.default_rng([inp["seed"], 0])
        ops = []
        counts = {"artifacts.delta_patches": 0, "artifacts.full_rebuilds": 0,
                  "dynamics.promoted": 0, "dynamics.touched": 0,
                  "maintain.crashes": 0, "maintain.ids": 0,
                  "maintain.unknown_ids": 0}
        try:
            for _ in range(self.EPOCHS):
                with tr.op("epoch"):
                    t0 = perf_counter()
                    record, snap = service.step_epoch()
                    dt = perf_counter() - t0
                ops.append(Op("epoch", dt,
                              _fp(dataclasses.astuple(record),
                                  _members(service.loop.state.members)),
                              record.fully_covered_after))
                counts["artifacts.delta_patches"] += record.delta_patches
                counts["artifacts.full_rebuilds"] += record.full_rebuilds
                counts["dynamics.promoted"] += record.promoted
                counts["dynamics.touched"] += record.touched
                counts["maintain.crashes"] += record.crashes
                for b in range(self.BATCHES):
                    kind = self.KINDS[b % len(self.KINDS)]
                    ids = rng.integers(0, inp["id_space"], size=self.BATCH,
                                       dtype=np.int64)
                    with tr.op("query"):
                        t0 = perf_counter()
                        answer = queries.answer(snap, kind, ids)
                        dt = perf_counter() - t0
                    body = (answer[0].tobytes() + answer[1].tobytes()
                            if kind == "who_covers" else answer.tobytes())
                    ops.append(Op("query", dt, _fp(kind, body),
                                  self._check(snap, kind, ids, answer)))
                    counts["maintain.ids"] += len(ids)
                    if check:
                        counts["maintain.unknown_ids"] += int(
                            (snap.index_of(ids) < 0).sum())
        finally:
            service.close()
        return Pass(ops, counts=counts)

    def metrics(self, passes):
        epochs = [t for p in passes for t in p.times("epoch")]
        batches = [t for p in passes for t in p.times("query")]
        crashes = passes[0].counts["maintain.crashes"]
        ids = sum(p.counts["maintain.ids"] for p in passes)
        tail_s, pct = tail(batches, self.TAIL)
        generic = {
            "bulk_best_s": best([p.times("epoch") for p in passes]),
            "point_best_s": best([p.times("query") for p in passes]),
        }
        named = [
            ("maintain.epoch_p50_ms", _p50(epochs) * 1e3, "ms"),
            ("maintain.query_p50_ms", _p50(batches) * 1e3, "ms"),
            (f"maintain.query_p{pct:g}_ms", tail_s * 1e3, "ms"),
            ("maintain.queries_per_s", ids / sum(batches), "1/s"),
            ("maintain.crashes_per_s",
             crashes / self.EPOCHS / _p50(epochs), "1/s"),
            ("maintain.query_samples", len(batches), "count"),
        ]
        return generic, named


WORKLOADS = {w.name: w for w in (Sweep(), Protocol(), Maintain())}
