"""The kernel provider registry (repro.engine.dispatch).

Three planes of coverage:

- the degradation matrix: every REPRO_KERNEL_BACKEND value resolves (or
  fails) exactly as documented — unknown names raise, forcing an
  unavailable provider raises instead of silently falling back, auto
  takes native when built and numpy otherwise, whatever the call size;
- provider equality: the coverage-plane kernels produce bit-identical
  results under every available provider and thread count, pinned at
  2^16 lanes (the acceptance shape's structure at test-sized n);
- the introspection surfaces: provider_status(), ``repro kernels``, and
  the ExperimentReport.timing stamp.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import _native
from repro.cli import main
from repro.engine import dispatch, kernels
from repro.engine.artifacts import graph_artifacts, stacked_graphs
from repro.engine.dispatch import (BACKENDS, ENTRY_POINTS, provider,
                                   provider_status)
from repro.errors import KernelBackendError
from repro.graphs.generators import gnp_graph

HAS_NATIVE = _native.available()

needs_native = pytest.mark.skipif(not HAS_NATIVE,
                                  reason="compiled kernels unavailable")


@pytest.fixture
def auto(monkeypatch):
    monkeypatch.delenv("REPRO_KERNEL_BACKEND", raising=False)


# ----------------------------------------------------------------------
# Backend selection: the degradation matrix
# ----------------------------------------------------------------------

class TestBackendSelection:
    def test_default_is_auto(self, auto):
        assert dispatch.backend() == "auto"

    @pytest.mark.parametrize("name", BACKENDS)
    def test_known_names_parse(self, monkeypatch, name):
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", name)
        assert dispatch.backend() == name

    def test_whitespace_and_case_normalize(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "  NumPy ")
        assert dispatch.backend() == "numpy"

    def test_unknown_name_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "cuda")
        with pytest.raises(KernelBackendError, match="cuda"):
            dispatch.backend()

    def test_unknown_entry_raises(self, auto):
        with pytest.raises(KernelBackendError, match="entry point"):
            provider("matmul")

    def test_numpy_forced_serves_reference_everywhere(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "numpy")
        for entry in ENTRY_POINTS:
            assert provider(entry) == ("numpy", None)

    def test_native_forced_unavailable_raises(self, monkeypatch):
        # Forcing never falls back silently: with the compiled runtime
        # disabled, REPRO_KERNEL_BACKEND=native is an explicit failure.
        monkeypatch.setattr(_native, "_lib", None)
        monkeypatch.setattr(_native, "_tried", False)
        monkeypatch.setenv("REPRO_NATIVE", "0")
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "native")
        with pytest.raises(KernelBackendError, match="native"):
            provider("member_counts")

    @needs_native
    def test_native_forced_bypasses_size_gate(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "native")
        name, impl = provider("member_counts", size=1)
        assert name == "native" and impl is not None

    def test_auto_size_gate(self, auto):
        # auto has no size gate: every call size takes native when built
        # and numpy otherwise.
        want = "native" if HAS_NATIVE else "numpy"
        for entry in ENTRY_POINTS:
            for size in (None, 1, 1 << 20):
                assert provider(entry, size=size)[0] == want

    @needs_native
    def test_auto_prefers_native(self, auto):
        name, impl = provider("member_counts", size=1 << 20)
        assert name == "native" and impl is not None

    def test_auto_chain_order_without_native(self, auto, monkeypatch):
        monkeypatch.setattr(_native, "_lib", None)
        monkeypatch.setattr(_native, "_tried", False)
        monkeypatch.setenv("REPRO_NATIVE", "0")
        for entry in ENTRY_POINTS:
            assert provider(entry, size=1 << 20) == ("numpy", None)


# ----------------------------------------------------------------------
# Provider equality at 2^16 lanes
# ----------------------------------------------------------------------

N = 4096      # nodes
R = 16        # replicas -> R * N = 2^16 lanes


@pytest.fixture(scope="module")
def plane():
    art = graph_artifacts(gnp_graph(N, 0.002, seed=7))
    rng = np.random.default_rng(11)
    masks = rng.random((R, N)) < 0.25
    return art, masks


def _backends():
    avail = ["numpy"]
    if HAS_NATIVE:
        avail.append("native")
    return avail


class TestProviderEquality:
    """Every provider computes the same exact integers: 0/1 indicators
    make row sums exact small counts in any accumulation order, so
    equality here is bit-for-bit, not approximate."""

    @pytest.mark.parametrize("convention", ["open", "closed"])
    def test_member_counts_batch(self, plane, monkeypatch, convention):
        art, masks = plane
        results = {}
        for b in _backends():
            monkeypatch.setenv("REPRO_KERNEL_BACKEND", b)
            results[b] = kernels.member_counts_batch(
                art, indicators=masks, convention=convention)
        ref = results.pop("numpy")
        assert ref.dtype == np.int64
        for b, got in results.items():
            assert got.dtype == np.int64, b
            assert np.array_equal(got, ref), b

    def test_member_counts_batch_one_replica_keeps_shape(self, plane,
                                                         monkeypatch):
        # One-seed runs hand the batch kernels a (1, n) plane; every
        # provider must answer (1, n), not the single-vector (n,).
        art, masks = plane
        for b in _backends():
            monkeypatch.setenv("REPRO_KERNEL_BACKEND", b)
            got = kernels.member_counts_batch(art, indicators=masks[:1],
                                              convention="closed")
            assert got.shape == (1, art.n), b
            assert np.array_equal(got[0], kernels.member_counts(
                art, indicator=masks[0], convention="closed")), b

    def test_member_counts_single(self, plane, monkeypatch):
        art, masks = plane
        results = {}
        for b in _backends():
            monkeypatch.setenv("REPRO_KERNEL_BACKEND", b)
            results[b] = kernels.member_counts(art, indicator=masks[0])
        ref = results.pop("numpy")
        for b, got in results.items():
            assert np.array_equal(got, ref), b

    def test_member_counts_stacked(self, monkeypatch):
        graphs = [gnp_graph(512, 0.01, seed=s) for s in range(3)]
        stack = stacked_graphs(graphs)
        rng = np.random.default_rng(3)
        masks = rng.random((R, stack.total)) < 0.3
        results = {}
        for b in _backends():
            monkeypatch.setenv("REPRO_KERNEL_BACKEND", b)
            results[b] = kernels.member_counts_stacked(
                stack, indicators=masks, convention="closed")
        ref = results.pop("numpy")
        for b, got in results.items():
            assert np.array_equal(got, ref), b

    def test_deficit_vector(self, plane, monkeypatch):
        art, masks = plane
        counts = kernels.member_counts(art, indicator=masks[0])
        req_vec = np.full(art.n, 3, dtype=np.int64)
        results = {}
        for b in _backends():
            monkeypatch.setenv("REPRO_KERNEL_BACKEND", b)
            results[b] = (
                kernels.deficit_vector(art, counts, 3, member_idx=masks[0]),
                kernels.deficit_vector(art, counts, req_vec),
            )
        ref = results.pop("numpy")
        for b, got in results.items():
            assert np.array_equal(got[0], ref[0]), b
            assert np.array_equal(got[1], ref[1]), b

    def test_scatter_cover(self, plane, monkeypatch):
        art, masks = plane
        base = kernels.member_counts(art, indicator=masks[0])
        promoted = np.nonzero(masks[1])[0][:200]
        results = {}
        for b in _backends():
            monkeypatch.setenv("REPRO_KERNEL_BACKEND", b)
            cov = base.copy()
            touched = kernels.scatter_cover(cov, art, promoted)
            results[b] = (cov, touched)
        ref = results.pop("numpy")
        for b, (cov, touched) in results.items():
            # The touched list order is part of the contract (callers
            # zip it against per-promotion metadata).
            assert np.array_equal(touched, ref[1]), b
            assert np.array_equal(cov, ref[0]), b

    @needs_native
    def test_thread_count_invariance(self, plane, monkeypatch):
        # Rows are the slab axis: each output entry is written by
        # exactly one thread, so any REPRO_NATIVE_THREADS partition
        # yields the same plane.
        art, masks = plane
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "native")
        planes = []
        for t in ("1", "4"):
            monkeypatch.setenv("REPRO_NATIVE_THREADS", t)
            planes.append(kernels.member_counts_batch(
                art, indicators=masks, convention="open"))
        assert np.array_equal(planes[0], planes[1])

    @needs_native
    def test_delta_bound_guard(self, monkeypatch):
        # A star graph's hub exceeds nothing at this size, but the
        # uint16-accumulator bound is a call-site applicability guard:
        # fake a Delta past 2^16 - 1 and the batch call must take the
        # scipy path even under a forced native backend (same result).
        art = graph_artifacts(gnp_graph(256, 0.05, seed=1))
        rng = np.random.default_rng(0)
        masks = rng.random((4, art.n)) < 0.5
        ref = kernels.member_counts_batch(art, indicators=masks)
        monkeypatch.setattr(art, "delta_max", 1 << 16)
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "native")
        assert np.array_equal(
            kernels.member_counts_batch(art, indicators=masks), ref)


# ----------------------------------------------------------------------
# Introspection: provider_status, the CLI, and report stamping
# ----------------------------------------------------------------------

class TestIntrospection:
    def test_status_shape(self, auto):
        status = provider_status()
        assert set(status) == {"backend", "forced", "native",
                               "entry_points"}
        assert status["backend"] == "auto" and status["forced"] is False
        assert set(status["entry_points"]) == set(ENTRY_POINTS)
        assert status["native"]["available"] == HAS_NATIVE
        if HAS_NATIVE:
            assert len(status["native"]["digest"]) == 16
            assert status["native"]["threads"] >= 1
            assert status["native"]["error"] is None
        else:
            assert status["native"]["error"]
        for entry, info in status["entry_points"].items():
            assert info["provider"] in ("native", "numpy")
            assert "min_size" not in info
        assert json.dumps(status)  # JSON-ready, no numpy scalars

    def test_status_reports_forced_unavailable(self, monkeypatch):
        # The diagnosis surface must not raise where the failure needs
        # diagnosing: a forced-but-unavailable backend is reported per
        # entry with the error text.
        monkeypatch.setattr(_native, "_lib", None)
        monkeypatch.setattr(_native, "_tried", False)
        monkeypatch.setenv("REPRO_NATIVE", "0")
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "native")
        status = provider_status()
        info = status["entry_points"]["member_counts"]
        assert info["provider"] == "unavailable"
        assert "native" in info["error"]

    def test_cli_kernels(self, capsys, auto):
        assert main(["kernels"]) == 0
        out = capsys.readouterr().out
        assert "backend: auto" in out
        for entry in ENTRY_POINTS:
            assert entry in out

    def test_cli_kernels_json(self, tmp_path, capsys, auto):
        path = tmp_path / "kernels.json"
        assert main(["kernels", "--json", str(path)]) == 0
        payload = json.loads(path.read_text())
        assert set(payload["entry_points"]) == set(ENTRY_POINTS)

    def test_cli_kernels_unavailable_exits_nonzero(self, monkeypatch,
                                                   capsys):
        # Forcing native where it did not load must fail the command
        # (CI runs it to check that the build engaged), after printing
        # the table that says why.
        monkeypatch.setattr(_native, "_lib", None)
        monkeypatch.setattr(_native, "_tried", False)
        monkeypatch.setenv("REPRO_NATIVE", "0")
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "native")
        assert main(["kernels"]) == 1
        captured = capsys.readouterr()
        assert captured.out.count("| unavailable |") == len(ENTRY_POINTS)
        assert "error=disabled by REPRO_NATIVE=0" in captured.out
        assert "unavailable" in captured.err

    def test_cli_kernels_bad_backend(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "cuda")
        assert main(["kernels"]) == 2
        assert "cuda" in capsys.readouterr().err

    def test_experiment_report_stamped(self, auto):
        from repro.experiments import run_experiment
        report = run_experiment("e2", scale="quick", seed=0)
        stamp = report.timing["kernels"]
        assert set(stamp["entry_points"]) == set(ENTRY_POINTS)
        assert stamp["backend"] == "auto"


# ----------------------------------------------------------------------
# The build-lock hardening rides along with the registry
# ----------------------------------------------------------------------

class TestBuildLock:
    def test_build_digest_is_stable(self):
        d1, d2 = _native.build_digest(), _native.build_digest()
        assert d1 == d2
        assert d1 is None or (len(d1) == 16
                              and all(c in "0123456789abcdef" for c in d1))

    def test_lock_is_exclusive(self, tmp_path):
        import fcntl
        with _native._build_lock(tmp_path):
            probe = open(tmp_path / ".build.lock", "w")
            with pytest.raises(OSError):
                fcntl.flock(probe, fcntl.LOCK_EX | fcntl.LOCK_NB)
            probe.close()

    def test_lock_releases(self, tmp_path):
        import fcntl
        with _native._build_lock(tmp_path):
            pass
        with open(tmp_path / ".build.lock", "w") as probe:
            fcntl.flock(probe, fcntl.LOCK_EX | fcntl.LOCK_NB)
            fcntl.flock(probe, fcntl.LOCK_UN)
