"""The service query plane against the sorted-search plane it replaced.

:class:`~repro.service.snapshot.EpochSnapshot` looks ids up through a
dense id table when the id range is compact (a binary search over the
sorted ids otherwise) and builds its dominator CSR from the member
entries alone; the four point queries of :mod:`repro.service.queries`
read it all with gathers.  This module keeps the sorted-search
``index_of``, the boolean-mask ``dominator_csr`` and ``min_dominator``
and the mask-indexed queries as the oracle (:class:`ReferencePlane`)
and pins the fast paths to it bit for bit, dtypes included (the
``maintain`` benchmark digest hashes ``answer.tobytes()``), on:

- generated closed CSRs: empty and one-node graphs, isolated nodes,
  self-loops (a second diagonal entry), rows in any order, and no, some
  or all members;
- generated unique ids: compact, shifted negative, wide, and at the
  int64 limits, in any node order, with the 4n rule's edge on both sides;
- generated batches of known, unknown, negative, duplicate,
  integral-float and empty ids;
- snapshots captured from a live :class:`CoverageService` after crash
  epochs, whose node order is no longer sorted.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dynamics import LocalPatchRepair, MaintenanceLoop, crash_scenario
from repro.dynamics.procpool import _ShmGraphView
from repro.engine.artifacts import id_index_table
from repro.errors import QueryError
from repro.service import CoverageService
from repro.service import queries as qp
from repro.service.snapshot import EpochSnapshot

INT64_MIN = int(np.iinfo(np.int64).min)
INT64_MAX = int(np.iinfo(np.int64).max)
KINDS = ("covered", "k_deficit", "dominator_of", "who_covers")


# ======================================================================
# The oracle: sorted-search lookup, boolean-mask filters
# ======================================================================

def _reference_id_batch(ids) -> np.ndarray:
    """The batch validation the oracle's answers were pinned under."""
    arr = np.asarray(ids)
    if arr.dtype.kind not in "iu":
        if arr.dtype.kind == "f" and arr.size and \
                not np.equal(np.mod(arr, 1), 0).all():
            raise ValueError("non-integral float ids")
        return arr.astype(np.int64)
    return arr.astype(np.int64, copy=False)


class ReferencePlane:
    """The query plane the table lookup and gather queries replaced,
    over one snapshot's public arrays."""

    def __init__(self, snap: EpochSnapshot):
        self.snap = snap
        order = np.argsort(snap.nodes, kind="stable")
        self._order = order
        self._sorted_ids = snap.nodes[order]
        self._dom_csr = None
        self._min_dom = None

    def index_of(self, ids) -> np.ndarray:
        n = self.snap.n
        ids = np.asarray(ids, dtype=np.int64)
        pos = np.searchsorted(self._sorted_ids, ids)
        pos_c = np.minimum(pos, max(0, n - 1))
        if n:
            known = self._sorted_ids[pos_c] == ids
            out = np.where(known, self._order[pos_c], np.int64(-1))
        else:
            out = np.full(ids.shape, -1, dtype=np.int64)
        return out.astype(np.int64, copy=False)

    def dominator_csr(self):
        snap = self.snap
        if self._dom_csr is None:
            if snap.n:
                lens = np.diff(snap.indptr)
                rows = np.repeat(np.arange(snap.n, dtype=np.int64), lens)
                keep = ((snap.indices != rows)
                        & snap.member_mask[snap.indices])
                counts = np.bincount(rows[keep],
                                     minlength=snap.n).astype(np.int64)
                indptr = np.zeros(snap.n + 1, dtype=np.int64)
                np.cumsum(counts, out=indptr[1:])
                dom_ids = snap.nodes[snap.indices[keep]]
            else:
                indptr = np.zeros(1, dtype=np.int64)
                dom_ids = np.zeros(0, dtype=np.int64)
            self._dom_csr = (indptr, dom_ids)
        return self._dom_csr

    def min_dominator(self) -> np.ndarray:
        if self._min_dom is None:
            indptr, dom_ids = self.dominator_csr()
            out = np.full(self.snap.n, -1, dtype=np.int64)
            nonempty = np.diff(indptr) > 0
            if nonempty.any():
                out[nonempty] = np.minimum.reduceat(
                    dom_ids, indptr[:-1][nonempty])
            self._min_dom = out
        return self._min_dom

    def covered(self, ids) -> np.ndarray:
        ids = _reference_id_batch(ids)
        idx = self.index_of(ids)
        known = idx >= 0
        out = np.zeros(len(ids), dtype=bool)
        out[known] = self.snap.deficit[idx[known]] == 0
        return out

    def k_deficit(self, ids) -> np.ndarray:
        ids = _reference_id_batch(ids)
        idx = self.index_of(ids)
        known = idx >= 0
        out = np.full(len(ids), self.snap.k, dtype=np.int64)
        out[known] = self.snap.deficit[idx[known]]
        return out

    def who_covers(self, ids):
        ids = _reference_id_batch(ids)
        q = len(ids)
        idx = self.index_of(ids)
        known = idx >= 0
        indptr = np.zeros(q + 1, dtype=np.int64)
        if not known.any():
            return indptr, np.zeros(0, dtype=np.int64)
        dom_indptr, dom_ids = self.dominator_csr()
        kq = np.nonzero(known)[0]
        rows = idx[kq]
        starts = dom_indptr[rows]
        lens = dom_indptr[rows + 1] - starts
        total = int(lens.sum())
        offsets = np.zeros(len(rows), dtype=np.int64)
        np.cumsum(lens[:-1], out=offsets[1:])
        flat = np.repeat(starts - offsets, lens) + np.arange(
            total, dtype=np.int64)
        counts = np.zeros(q, dtype=np.int64)
        counts[kq] = lens
        np.cumsum(counts, out=indptr[1:])
        return indptr, dom_ids[flat]

    def dominator_of(self, ids) -> np.ndarray:
        ids = _reference_id_batch(ids)
        idx = self.index_of(ids)
        known = idx >= 0
        out = np.full(len(ids), -1, dtype=np.int64)
        rows = idx[known]
        out[known] = np.where(self.snap.member_mask[rows], ids[known],
                              self.min_dominator()[rows])
        return out


def assert_bitwise(got, want) -> None:
    """Equal values, dtypes and bytes (arrays or tuples of arrays)."""
    if isinstance(want, tuple):
        assert isinstance(got, tuple) and len(got) == len(want)
        for g, w in zip(got, want):
            assert_bitwise(g, w)
        return
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def index_rows(snap: EpochSnapshot):
    """The snapshot's dominator index in the oracle's ``(indptr,
    dom_ids)`` form: every row's pool segment, back to back in row
    order, whatever the pool's layout."""
    starts, counts, pool = snap.dominator_csr()
    indptr = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    flat = np.repeat(starts - indptr[:-1], counts) \
        + np.arange(indptr[-1], dtype=np.int64)
    return indptr, pool.take(flat)


def assert_plane_matches(snap: EpochSnapshot, batch) -> None:
    """Every point query, the lookup and the index against the oracle."""
    ref = ReferencePlane(snap)
    assert_bitwise(snap.index_of(batch), ref.index_of(batch))
    for kind in KINDS:
        assert_bitwise(qp.answer(snap, kind, batch),
                       getattr(ref, kind)(batch))
    assert_bitwise(index_rows(snap), ref.dominator_csr())
    assert_bitwise(snap.min_dominator(), ref.min_dominator())


# ======================================================================
# Generators
# ======================================================================

@st.composite
def unique_ids(draw, n: int) -> np.ndarray:
    """``n`` unique int64 ids in shuffled order."""
    kind = draw(st.sampled_from(
        ("compact", "negative", "low", "high", "edge", "wide", "limits")))
    if kind in ("compact", "negative", "low", "high", "edge"):
        width = max(4 * n, 1)
        if kind == "compact":
            lo = draw(st.integers(0, 64))
        elif kind == "negative":
            lo = draw(st.integers(-(2 ** 40), -width))
        elif kind == "low":
            lo = INT64_MIN + draw(st.integers(0, 3))
        elif kind == "high":
            lo = INT64_MAX - width - draw(st.integers(0, 3))
        else:
            lo = draw(st.integers(-64, 64))
        if kind == "edge" and n >= 2:
            # max - min at 4n - 1 (the table) or 4n (the sorted search).
            top = 4 * n - 1 + draw(st.integers(0, 1))
            inner = draw(st.lists(st.integers(1, top - 1), unique=True,
                                  min_size=n - 2, max_size=n - 2))
            offsets = [0, top] + inner
        else:
            offsets = draw(st.lists(st.integers(0, width - 1), unique=True,
                                    min_size=n, max_size=n))
        ids = [lo + off for off in offsets]
    else:
        ids = draw(st.lists(st.integers(INT64_MIN, INT64_MAX), unique=True,
                            min_size=n, max_size=n))
        if kind == "limits" and n >= 2:
            ids[:2] = [INT64_MIN, INT64_MAX]
            if len(set(ids)) < n:
                ids = [INT64_MIN, INT64_MAX] + list(range(n - 2))
    ids = draw(st.permutations(ids))
    return np.asarray(ids, dtype=np.int64)


@st.composite
def snapshots(draw) -> EpochSnapshot:
    """A snapshot over a generated closed CSR, ids and member set."""
    n = draw(st.integers(0, 10))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) \
        if pairs else []
    loops = draw(st.lists(st.integers(0, n - 1), unique=True)) if n else []
    rows = [[i] for i in range(n)]
    for i, j in edges:
        rows[i].append(j)
        rows[j].append(i)
    for i in loops:
        rows[i].append(i)  # a self-loop is a second diagonal entry
    shuffled = draw(st.booleans())
    rows = [draw(st.permutations(sorted(r))) if shuffled else sorted(r)
            for r in rows]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum([len(r) for r in rows], out=indptr[1:])
    indices = np.asarray([j for r in rows for j in r], dtype=np.int64)
    which = draw(st.sampled_from(("none", "some", "all")))
    if which == "some":
        mask = np.asarray(draw(st.lists(st.booleans(), min_size=n,
                                        max_size=n)), dtype=bool)
    else:
        mask = np.full(n, which == "all", dtype=bool)
    k = draw(st.integers(1, 3))
    # Open-convention coverage: member entries off the diagonal.
    coverage = np.asarray(
        [sum(1 for j in r if j != i and mask[j]) for i, r in
         enumerate(rows)], dtype=np.int64)
    deficit = np.where(mask, 0, np.maximum(k - coverage, 0))
    return EpochSnapshot(epoch=0, k=k, nodes=draw(unique_ids(n)),
                         indptr=indptr, indices=indices, member_mask=mask,
                         coverage=coverage, deficit=deficit)


@st.composite
def batches(draw, snap: EpochSnapshot) -> np.ndarray:
    """Known, unknown, negative and duplicate ids; possibly empty."""
    ids = snap.nodes.tolist()
    edges = [INT64_MIN, INT64_MAX, -1, 0, 1]
    if ids:
        lo, hi = min(ids), max(ids)
        edges += [v for v in (lo - 1, hi + 1, lo + 1, hi - 1)
                  if INT64_MIN <= v <= INT64_MAX]
    elems = [st.sampled_from(edges), st.integers(INT64_MIN, INT64_MAX)]
    if ids:
        elems.insert(0, st.sampled_from(ids))
    return np.asarray(draw(st.lists(st.one_of(*elems), max_size=24)),
                      dtype=np.int64)


def _id_rule(nodes: np.ndarray) -> str:
    """Which lookup the 4n rule picks for ``nodes``."""
    if not len(nodes):
        return "table"
    span = int(nodes.max()) - int(nodes.min())
    return "table" if span < 4 * len(nodes) else "sorted"


# ======================================================================
# Generated differential suite
# ======================================================================

class TestGeneratedSnapshots:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_plane_matches_oracle(self, data):
        snap = data.draw(snapshots())
        assert snap.describe()["id_index"] == _id_rule(snap.nodes)
        for _ in range(3):
            assert_plane_matches(snap, data.draw(batches(snap)))

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_batch_dtypes_answer_alike(self, data):
        """Integral floats, narrower and unsigned ints and object arrays
        answer exactly as the int64 batch does."""
        snap = data.draw(snapshots())
        batch = data.draw(batches(snap))
        ref = ReferencePlane(snap)
        forms = [batch.astype(object), batch.tolist()]
        if np.all(np.abs(batch.astype(float)) <= 2.0 ** 53):
            forms.append(batch.astype(np.float64))
        if batch.size == 0 or (batch.min() >= -(2 ** 31)
                               and batch.max() < 2 ** 31):
            forms.append(batch.astype(np.int32))
        if batch.size == 0 or batch.min() >= 0:
            forms.append(batch.astype(np.uint64))
        for form in forms:
            for kind in KINDS:
                assert_bitwise(qp.answer(snap, kind, form),
                               getattr(ref, kind)(batch))

    @pytest.mark.parametrize("n", [0, 1])
    def test_tiny_snapshots(self, n):
        indptr = np.arange(n + 1, dtype=np.int64)
        indices = np.arange(n, dtype=np.int64)
        for members in (False, True):
            snap = EpochSnapshot(
                epoch=0, k=2, nodes=np.full(n, -7, dtype=np.int64),
                indptr=indptr, indices=indices,
                member_mask=np.full(n, members),
                coverage=np.zeros(n, dtype=np.int64),
                deficit=np.full(n, 0 if members else 2, dtype=np.int64))
            assert snap.describe()["id_index"] == "table"
            for batch in ([], [-7], [-7, -7, 0, INT64_MIN, INT64_MAX]):
                assert_plane_matches(snap, np.asarray(batch, np.int64))


class TestLiveSnapshots:
    @settings(max_examples=6, deadline=None)
    @given(st.integers(0, 2 ** 16), st.integers(1, 3),
           st.sampled_from([0.2, 0.4]))
    def test_crash_epochs_match_oracle(self, seed, k, kill):
        scenario = crash_scenario(n=120, k=k, epochs=4, kill_fraction=kill,
                                  seed=seed)
        service = CoverageService(MaintenanceLoop(scenario,
                                                  LocalPatchRepair()))
        snaps = [service.start()]
        for _ in range(4):
            snaps.append(service.step_epoch()[1])
        service.close()
        # Crashes move the last-indexed node into the freed slot.
        assert any(np.any(np.diff(s.nodes) < 0) for s in snaps[1:])
        rng = np.random.default_rng(seed)
        for snap in snaps:
            assert snap.describe()["id_index"] == "table"
            top = int(snap.nodes.max())
            batch = np.concatenate([
                np.arange(-3, top + 4, dtype=np.int64),
                rng.integers(-5, top + 6, size=64),
                [INT64_MIN, INT64_MAX]])
            assert_plane_matches(snap, batch)


class TestIdLookup:
    def test_wide_range_allocates_no_table(self):
        nodes = np.array([INT64_MAX, 0, INT64_MIN, 2 ** 40],
                         dtype=np.int64)
        assert id_index_table(nodes) is None
        n = len(nodes)
        tracemalloc.start()
        try:
            snap = EpochSnapshot(
                epoch=0, k=1, nodes=nodes,
                indptr=np.arange(n + 1, dtype=np.int64),
                indices=np.arange(n, dtype=np.int64),
                member_mask=np.ones(n, dtype=bool),
                coverage=np.zeros(n, dtype=np.int64),
                deficit=np.zeros(n, dtype=np.int64))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 1024
        assert snap.describe()["id_index"] == "sorted"
        assert_plane_matches(snap, np.array([0, 1, INT64_MIN, INT64_MAX,
                                             2 ** 40, -1]))

    @given(st.integers(0, 12).flatmap(unique_ids))
    def test_table_maps_every_id(self, ids):
        lookup = id_index_table(ids)
        assert (lookup is None) == (_id_rule(ids) == "sorted")
        if lookup is None:
            return
        lo, table = lookup
        span = int(ids.max()) - lo + 1 if len(ids) else 0
        assert table.dtype == np.int64 and len(table) == span + 1
        assert table[-1] == -1
        np.testing.assert_array_equal(table[ids - lo], np.arange(len(ids)))
        assert np.count_nonzero(table >= 0) == len(ids)

    def test_shm_view_lookups(self):
        """The worker-side graph view answers for compact and wide id
        ranges alike and raises ``KeyError`` for unknown ids."""
        # Path 7 - 5 - 9 - 6 over indices 0..3, ids out of order.
        indptr = np.array([0, 2, 5, 8, 10], dtype=np.int64)
        indices = np.array([0, 1, 0, 1, 2, 1, 2, 3, 2, 3], dtype=np.int64)
        for nodes in ([7, 5, 9, 6], [7, 5, 2 ** 62, INT64_MIN]):
            nodes = np.array(nodes, dtype=np.int64)
            view = _ShmGraphView(indptr, indices, nodes)
            ids = nodes.tolist()
            assert view.neighbors(ids[1]) == [ids[0], ids[2]]
            assert view.neighbors(ids[3]) == [ids[2]]
            assert dict(view.degree()) == dict(zip(ids, [1, 2, 2, 1]))
            for unknown in (8, 4, 10, -1, INT64_MAX, INT64_MIN + 1):
                with pytest.raises(KeyError):
                    view.neighbors(unknown)


class TestBatchDtypes:
    @pytest.fixture(scope="class")
    def snap(self):
        service = CoverageService(MaintenanceLoop(
            crash_scenario(n=80, k=2, epochs=2, kill_fraction=0.2, seed=3),
            LocalPatchRepair()))
        snap = service.start()
        service.close()
        return snap

    @pytest.mark.parametrize("batch", [
        np.array(["5", "7"]),
        np.array([b"5", b"7"]),
        np.array([True, False]),
        [True, False],
        np.array([1 + 0j]),
        [2 ** 64],
        np.array([2 ** 63], dtype=np.uint64),
        np.array([2 ** 64 - 1], dtype=np.uint64),
        [2 ** 63],
        np.array([2.0 ** 63]),
        np.array([-1e19]),
        np.array(["5"], dtype=object),
        np.array([True, 5], dtype=object),
        [True, 5],
        [np.True_, 5.0],
    ], ids=["str", "bytes", "bool", "bool-list", "complex", "beyond-int64",
            "uint64-2^63", "uint64-max", "list-2^63", "float-2^63",
            "float-below-int64", "object-str", "object-bool", "bool-int-list",
            "npbool-float-list"])
    def test_non_integer_dtypes_rejected(self, snap, batch):
        for kind in KINDS:
            with pytest.raises(QueryError, match="query ids must be integers"):
                qp.answer(snap, kind, batch)

    def test_int64_limits_accepted(self, snap):
        """The range checks stop exactly at the int64 limits."""
        v = int(snap.nodes[0])
        cases = [
            (np.array([-2.0 ** 63, v]), [INT64_MIN, v]),
            (np.array([INT64_MAX, v], dtype=np.uint64), [INT64_MAX, v]),
        ]
        for form, want in cases:
            want = np.array(want, dtype=np.int64)
            for kind in KINDS:
                assert_bitwise(qp.answer(snap, kind, form),
                               qp.answer(snap, kind, want))
