"""Optional compiled kernels for the replica-batched direct backend.

The hot loops of the batched backend — PCG64 stream advancement and the
per-round election scan — are memory-light, branch-heavy loops that
NumPy can only express as dozens of full-array passes.  This package
compiles ``kernels.c`` once with whatever plain C compiler the host has
(``cc -O3 -shared -fPIC``), caches the shared object next to the source
keyed by a content hash, and exposes it through :mod:`ctypes` (stdlib —
no new dependency).  Everything here is strictly optional:

* no compiler, a failed compile, or ``REPRO_NATIVE=0`` in the
  environment all degrade to the pure-NumPy implementations, which are
  bit-for-bit equivalent (pinned by ``tests/test_vecrng.py``);
* the compiled path is an *implementation detail behind the existing
  ``engine.kernels`` / ``simulation.vecrng`` surfaces* — callers never
  see it.  A device backend would swap the ``.so`` for a device
  module and keep the surface.

Threading: every kernel takes an explicit slab of its iteration space,
so the shim can split one call across a worker pool.  ctypes releases
the GIL for the duration of each call, per-lane work never reads
another slab's state, and slabs are contiguous — so any thread count
is bit-identical to the single-call path.  ``REPRO_NATIVE_THREADS``
picks the worker count (default: the machine's cores; ``1`` keeps the
historical single-call behavior); small calls always run inline, so
threading never taxes the n=10^3 regime.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator, Optional, Tuple

_HERE = Path(__file__).resolve().parent
_SOURCE = _HERE / "kernels.c"

_lib: ctypes.CDLL | None = None
_tried = False

#: Below this many flat lanes a draw/seed call runs inline — the slab
#: bookkeeping would cost more than the loop.
_MIN_SLAB = 1 << 15

#: Folded into the .so content hash so flag changes rebuild the cache.
_BUILD_TAG = b"march-native-1"


def build_digest() -> Optional[str]:
    """The content digest the cached ``.so`` is keyed by (source bytes +
    build tag), or None when ``kernels.c`` is unreadable.  Pure function
    of the tree — it identifies the build without triggering one, so
    the introspection surface (``repro kernels``) can report it even on
    hosts with no compiler."""
    try:
        source = _SOURCE.read_bytes()
    except OSError:
        return None
    return hashlib.sha256(source + _BUILD_TAG).hexdigest()[:16]


@contextmanager
def _build_lock(build: Path):
    """Exclusive advisory lock over the build+prune sequence.

    The subprocess runtime matrix and parallel pytest runs can race one
    process's stale-``.so`` prune against another's ``os.replace``;
    serializing the whole sequence on an ``fcntl`` lock removes the
    window.  Platforms without ``fcntl`` (or an unopenable lock file)
    fall back to the old unlocked behavior — the sequence itself is
    still atomic-rename-based, so the lock only narrows a rare race,
    never gates correctness.
    """
    try:
        import fcntl
    except ImportError:  # pragma: no cover — non-POSIX host
        yield
        return
    try:
        fh = open(build / ".build.lock", "ab")
    except OSError:  # pragma: no cover — unwritable build dir
        yield
        return
    try:
        fcntl.flock(fh, fcntl.LOCK_EX)
        yield
    finally:
        try:
            fcntl.flock(fh, fcntl.LOCK_UN)
        except OSError:  # pragma: no cover
            pass
        fh.close()


def _compile() -> Path | None:
    """Compile kernels.c into a content-addressed cached .so, or return
    the cached artifact if the source has not changed."""
    digest = build_digest()
    if digest is None:
        return None
    build = _HERE / "_build"
    target = build / f"kernels-{digest}.so"
    if target.exists():
        return target
    try:
        build.mkdir(exist_ok=True)
    except OSError:
        return None
    # -march=native first (worth ~10% on the 128-bit LCG loops); plain
    # -O3 as the fallback for compilers/targets without it.  The kernels
    # are pure integer arithmetic, so codegen never changes results.
    attempts = [(cc, flags)
                for flags in (["-O3", "-march=native"], ["-O3"])
                for cc in ("cc", "gcc", "clang")]
    with _build_lock(build):
        if target.exists():  # built by whoever held the lock first
            return target
        for cc, flags in attempts:
            try:
                tmp = build / f".kernels-{digest}.{os.getpid()}.so"
                proc = subprocess.run(
                    [cc, *flags, "-shared", "-fPIC", "-o", str(tmp),
                     str(_SOURCE)],
                    capture_output=True, timeout=120)
                if proc.returncode == 0 and tmp.exists():
                    os.replace(tmp, target)  # atomic under parallel use
                    # A successful build supersedes every other digest:
                    # prune them so edits don't accumulate stale
                    # artifacts.  (Unlinking a dlopen'ed .so is safe on
                    # POSIX — the inode survives until the mapping is
                    # dropped.)
                    for stale in build.glob("kernels-*.so"):
                        if stale.name != target.name:
                            stale.unlink(missing_ok=True)
                    return target
                tmp.unlink(missing_ok=True)
            except (OSError, subprocess.SubprocessError):
                continue
    return None


def lib() -> ctypes.CDLL | None:
    """The loaded kernel library, or None when unavailable."""
    global _lib, _tried
    if _tried:
        return _lib
    _tried = True
    if os.environ.get("REPRO_NATIVE", "1") == "0":
        return None
    path = _compile()
    if path is None:
        return None
    try:
        cdll = ctypes.CDLL(str(path))
        u64p = ctypes.POINTER(ctypes.c_uint64)
        u8p = ctypes.POINTER(ctypes.c_uint8)
        i64p = ctypes.POINTER(ctypes.c_int64)
        cdll.repro_draw_masked.argtypes = [
            u64p, u64p, u64p, u64p, u8p, u8p,
            ctypes.c_int64, ctypes.c_int64, ctypes.c_uint64, i64p]
        cdll.repro_draw_masked.restype = None
        cdll.repro_elect_batch.argtypes = [
            ctypes.c_int64, ctypes.c_int64,
            i64p, i64p, i64p, i64p, i64p, u8p, u8p,
            ctypes.c_int64, ctypes.c_int64, ctypes.c_int64]
        cdll.repro_elect_batch.restype = None
        u32p = ctypes.POINTER(ctypes.c_uint32)
        cdll.repro_seed_lanes.argtypes = [
            u32p, u32p, ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
            u64p, u64p, u64p, u64p]
        cdll.repro_seed_lanes.restype = None
        cdll.repro_ball_phase.argtypes = [
            ctypes.c_int64, ctypes.c_int64, i64p, i64p, i64p, i64p,
            i64p, u8p, i64p, i64p, u8p, u8p, i64p, i64p]
        cdll.repro_ball_phase.restype = ctypes.c_int64
        cdll.repro_ball_adopt.argtypes = [
            ctypes.c_int64, ctypes.c_int64, i64p, i64p, i64p, i64p,
            i64p, u8p, u8p, i64p]
        cdll.repro_ball_adopt.restype = None
        i32p = ctypes.POINTER(ctypes.c_int32)
        cdll.repro_member_counts.argtypes = [
            ctypes.c_int64, ctypes.c_int64, i64p, i32p, u8p,
            ctypes.c_int64, ctypes.c_int64, ctypes.c_int64, i64p]
        cdll.repro_member_counts.restype = None
        cdll.repro_deficit.argtypes = [
            i64p, i64p, ctypes.c_int64, u8p,
            ctypes.c_int64, ctypes.c_int64, i64p]
        cdll.repro_deficit.restype = None
        cdll.repro_scatter_cover.argtypes = [
            ctypes.c_int64, i64p, i64p, i64p, ctypes.c_int64, i64p, i64p]
        cdll.repro_scatter_cover.restype = None
        f64p = ctypes.POINTER(ctypes.c_double)
        cdll.repro_inbox_reduce.argtypes = [
            i64p, f64p, u8p, f64p, ctypes.c_int64, ctypes.c_int64, f64p]
        cdll.repro_inbox_reduce.restype = None
        cdll.repro_state_scatter_f64.argtypes = [
            i64p, f64p, ctypes.c_int64, ctypes.c_int64, f64p]
        cdll.repro_state_scatter_f64.restype = None
        cdll.repro_state_scatter_u8.argtypes = [
            i64p, u8p, ctypes.c_int64, ctypes.c_int64, u8p]
        cdll.repro_state_scatter_u8.restype = None
    except (OSError, AttributeError):
        return None
    _lib = cdll
    return _lib


def available() -> bool:
    """True when the compiled kernels are usable on this host."""
    return lib() is not None


# ----------------------------------------------------------------------
# Slab scheduler
# ----------------------------------------------------------------------

_executor: ThreadPoolExecutor | None = None
_executor_workers = 0


def thread_count() -> int:
    """The configured native worker count.

    ``REPRO_NATIVE_THREADS`` overrides (minimum 1; non-numeric values
    fall back to the default); the default is the machine's core count.
    ``1`` reproduces the historical single-call behavior exactly — and
    any other count is bit-identical to it, because slabs partition the
    iteration space and per-lane state never crosses a slab boundary.
    """
    raw = os.environ.get("REPRO_NATIVE_THREADS")
    if raw is not None:
        try:
            return max(1, int(raw))
        except ValueError:
            pass
    return os.cpu_count() or 1


def _slabs(total: int, parts: int) -> Iterator[Tuple[int, int]]:
    """Split ``[0, total)`` into at most ``parts`` contiguous ranges."""
    parts = max(1, min(parts, total))
    base, rem = divmod(total, parts)
    lo = 0
    for i in range(parts):
        hi = lo + base + (1 if i < rem else 0)
        if hi > lo:
            yield lo, hi
        lo = hi


def _run_slabs(fn: Callable[[int, int], None], total: int,
               min_slab: int = _MIN_SLAB) -> None:
    """Run ``fn(lo, hi)`` over a slab partition of ``[0, total)``.

    Uses the worker pool when the configured thread count and the work
    size warrant it; otherwise one inline call (which is also the
    degenerate partition, so results never depend on the choice).
    """
    global _executor, _executor_workers
    workers = min(thread_count(), max(1, total // min_slab))
    if workers <= 1:
        fn(0, total)
        return
    if _executor is None or _executor_workers != workers:
        if _executor is not None:
            _executor.shutdown(wait=False)
        _executor = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-native")
        _executor_workers = workers
    futures = [_executor.submit(fn, lo, hi)
               for lo, hi in _slabs(total, workers)]
    for f in futures:
        f.result()


def _ptr(arr, ctype):
    return arr.ctypes.data_as(ctypes.POINTER(ctype))


def draw_masked(sh, sl, ih, il, mask, need, high: int, out) -> None:
    """Native masked bounded draw; see repro_draw_masked in kernels.c.

    All arrays must be C-contiguous; ``need`` may be None.  States in
    ``sh``/``sl`` advance in place.  Slabs split the flat lane axis;
    each lane's advancement reads only its own limbs, so the result is
    bit-identical at any thread count.
    """
    cdll = lib()
    assert cdll is not None
    nullp = ctypes.POINTER(ctypes.c_uint8)()
    shp = _ptr(sh, ctypes.c_uint64)
    slp = _ptr(sl, ctypes.c_uint64)
    ihp = _ptr(ih, ctypes.c_uint64)
    ilp = _ptr(il, ctypes.c_uint64)
    mp = _ptr(mask, ctypes.c_uint8)
    np_ = nullp if need is None else _ptr(need, ctypes.c_uint8)
    outp = _ptr(out, ctypes.c_int64)
    high_c = ctypes.c_uint64(high)

    def call(lo: int, hi: int) -> None:
        cdll.repro_draw_masked(shp, slp, ihp, ilp, mp, np_,
                               ctypes.c_int64(lo), ctypes.c_int64(hi),
                               high_c, outp)

    _run_slabs(call, mask.size)


def seed_lanes(pool4, hc, R: int, n: int, ih, il, sh, sl) -> None:
    """Native per-lane PCG64 seeding; see repro_seed_lanes in kernels.c.

    Slabs split the flat ``(R, n)`` lane space; each lane's limbs are a
    pure function of its (replica, spawn child) pair, so any partition
    seeds identically.
    """
    cdll = lib()
    assert cdll is not None
    poolp = _ptr(pool4, ctypes.c_uint32)
    hcp = _ptr(hc, ctypes.c_uint32)
    ihp = _ptr(ih, ctypes.c_uint64)
    ilp = _ptr(il, ctypes.c_uint64)
    shp = _ptr(sh, ctypes.c_uint64)
    slp = _ptr(sl, ctypes.c_uint64)

    def call(lo: int, hi: int) -> None:
        cdll.repro_seed_lanes(poolp, hcp, ctypes.c_int64(n),
                              ctypes.c_int64(lo), ctypes.c_int64(hi),
                              ihp, ilp, shp, slp)

    _run_slabs(call, R * n)


def elect_batch(R: int, n: int, sub, starts, deg, nbr_w,
                ids, active, elected, ids_masked: bool = False) -> None:
    """Native batched election scan; see repro_elect_batch in kernels.c.

    ``ids_masked``: the caller guarantees every inactive candidate lane
    holds id 0 (``draw_masked``'s ``need`` contract), letting the scan
    skip the per-candidate active gather.  Slabs split the replica axis
    (each replica's election is independent; winner marks are
    idempotent byte stores within the replica's own ``elected`` row),
    so any thread count elects the same nodes.
    """
    cdll = lib()
    assert cdll is not None
    S = sub.size
    subp = _ptr(sub, ctypes.c_int64)
    startsp = _ptr(starts, ctypes.c_int64)
    degp = _ptr(deg, ctypes.c_int64)
    nbrp = _ptr(nbr_w, ctypes.c_int64)
    idsp = _ptr(ids, ctypes.c_int64)
    actp = _ptr(active, ctypes.c_uint8)
    elp = _ptr(elected, ctypes.c_uint8)
    masked_c = ctypes.c_int64(1 if ids_masked else 0)

    def call(r_lo: int, r_hi: int) -> None:
        cdll.repro_elect_batch(ctypes.c_int64(n), ctypes.c_int64(S),
                               subp, startsp, degp, nbrp, idsp, actp, elp,
                               ctypes.c_int64(r_lo), ctypes.c_int64(r_hi),
                               masked_c)

    # Replica rows are the unit of work here: thread only when several
    # rows of meaningful size are available.
    workers = min(thread_count(), R) if R * max(S, 1) >= _MIN_SLAB else 1
    if workers <= 1:
        call(0, R)
        return
    _run_slabs(call, R, min_slab=1)


def ball_phase(n: int, rows, nodes, indptr, indices, live, leader, krow,
               cnt, small, picks, touched, big) -> int:
    """Native fused adoption-iteration phase; see repro_ball_phase.

    ``cnt`` / ``small`` are zeroed reusable scratch planes (the kernel
    restores them); ``picks`` arrives zeroed and is filled with the
    wholesale adoptions.  Returns the number of big-actor flat indices
    written to ``big``.
    """
    cdll = lib()
    assert cdll is not None
    return int(cdll.repro_ball_phase(
        ctypes.c_int64(n), ctypes.c_int64(rows.size),
        _ptr(rows, ctypes.c_int64), _ptr(nodes, ctypes.c_int64),
        _ptr(indptr, ctypes.c_int64), _ptr(indices, ctypes.c_int64),
        _ptr(live, ctypes.c_int64), _ptr(leader, ctypes.c_uint8),
        _ptr(krow, ctypes.c_int64), _ptr(cnt, ctypes.c_int64),
        _ptr(small, ctypes.c_uint8), _ptr(picks, ctypes.c_uint8),
        _ptr(touched, ctypes.c_int64), _ptr(big, ctypes.c_int64)))


def ball_adopt(n: int, rows, nodes, indptr, indices, coverage, leader,
               deficient, krow) -> None:
    """Native promotion coverage + deficiency refresh; see
    repro_ball_adopt.  Mutates ``coverage`` and ``deficient`` in place.
    """
    cdll = lib()
    assert cdll is not None
    cdll.repro_ball_adopt(
        ctypes.c_int64(n), ctypes.c_int64(rows.size),
        _ptr(rows, ctypes.c_int64), _ptr(nodes, ctypes.c_int64),
        _ptr(indptr, ctypes.c_int64), _ptr(indices, ctypes.c_int64),
        _ptr(coverage, ctypes.c_int64), _ptr(leader, ctypes.c_uint8),
        _ptr(deficient, ctypes.c_uint8), _ptr(krow, ctypes.c_int64))


# ----------------------------------------------------------------------
# Coverage-plane shims (see repro.engine.dispatch for the call sites)
# ----------------------------------------------------------------------

#: Rows per slab for the coverage matvec: each row costs (degree + 1)
#: gathers (x R lanes), far heavier than an RNG lane, so slabs engage
#: at a much smaller row count than _MIN_SLAB flat lanes.
_MIN_ROW_SLAB = 1 << 12


def member_counts(n: int, R: int, indptr, idx32, xT, open_conv: int,
                  out) -> None:
    """Native closed-adjacency coverage matvec; see repro_member_counts.

    ``xT`` is the (n, R) lane-interleaved uint8 membership plane (a
    plain (n,) mask when R == 1), ``idx32`` the int32 copy of the
    closed CSR indices, ``out`` the C-contiguous (R, n) int64 result
    (flat (n,) when R == 1).  Rows are the slab axis: every (replica,
    row) cell is written exactly once, so any thread count is
    bit-identical.
    """
    cdll = lib()
    assert cdll is not None
    indptrp = _ptr(indptr, ctypes.c_int64)
    idxp = _ptr(idx32, ctypes.c_int32)
    xp = _ptr(xT, ctypes.c_uint8)
    outp = _ptr(out, ctypes.c_int64)
    oc = ctypes.c_int64(1 if open_conv else 0)

    def call(lo: int, hi: int) -> None:
        cdll.repro_member_counts(ctypes.c_int64(n), ctypes.c_int64(R),
                                 indptrp, idxp, xp, oc,
                                 ctypes.c_int64(lo), ctypes.c_int64(hi),
                                 outp)

    _run_slabs(call, n, min_slab=max(1, _MIN_ROW_SLAB // max(1, R // 4)))


#: Alias: the batch entry point shares the single kernel (R is just a
#: parameter), but registers separately so dispatch can gate and report
#: the two shapes independently.
member_counts_batch = member_counts


def deficit_vector(counts, req_vec, req_scalar: int, members, out) -> None:
    """Native elementwise deficit; see repro_deficit.  ``req_vec`` and
    ``members`` may be None (uniform requirement / no exemption)."""
    cdll = lib()
    assert cdll is not None
    i64null = ctypes.POINTER(ctypes.c_int64)()
    u8null = ctypes.POINTER(ctypes.c_uint8)()
    cp = _ptr(counts, ctypes.c_int64)
    rp = i64null if req_vec is None else _ptr(req_vec, ctypes.c_int64)
    mp = u8null if members is None else _ptr(members, ctypes.c_uint8)
    outp = _ptr(out, ctypes.c_int64)
    rs = ctypes.c_int64(int(req_scalar))

    def call(lo: int, hi: int) -> None:
        cdll.repro_deficit(cp, rp, rs, mp, ctypes.c_int64(lo),
                           ctypes.c_int64(hi), outp)

    _run_slabs(call, counts.size)


def inbox_reduce(indptr, values, mask, init, out) -> None:
    """Native columnar inbox reduction; see repro_inbox_reduce.

    ``indptr`` is the receiver-major CSR row pointer (``out.size + 1``
    entries), ``values``/``mask`` per-edge columns, ``init`` the
    per-row starting term (the node's own contribution).  Rows are the
    slab axis; each row is written exactly once, so any thread count is
    bit-identical to the single pass."""
    cdll = lib()
    assert cdll is not None
    n = out.size
    indptrp = _ptr(indptr, ctypes.c_int64)
    vp = _ptr(values, ctypes.c_double)
    mp = _ptr(mask, ctypes.c_uint8)
    ip = _ptr(init, ctypes.c_double)
    outp = _ptr(out, ctypes.c_double)

    def call(lo: int, hi: int) -> None:
        cdll.repro_inbox_reduce(indptrp, vp, mp, ip, ctypes.c_int64(lo),
                                ctypes.c_int64(hi), outp)

    avg_deg = max(1, values.size // max(1, n))
    _run_slabs(call, n, min_slab=max(1, _MIN_ROW_SLAB // avg_deg))


def state_scatter(idx, values, out) -> None:
    """Native permutation gather ``out[i] = values[idx[i]]``; see
    repro_state_scatter_{f64,u8}.  Dispatches on the value dtype
    (float64 payload columns, uint8 delivery masks); the edge axis is
    the slab axis and every slot is written once, so any thread count
    is bit-identical."""
    cdll = lib()
    assert cdll is not None
    idxp = _ptr(idx, ctypes.c_int64)
    if values.dtype.itemsize == 1:
        vp = _ptr(values, ctypes.c_uint8)
        outp = _ptr(out, ctypes.c_uint8)

        def call(lo: int, hi: int) -> None:
            cdll.repro_state_scatter_u8(idxp, vp, ctypes.c_int64(lo),
                                        ctypes.c_int64(hi), outp)
    else:
        vp = _ptr(values, ctypes.c_double)
        outp = _ptr(out, ctypes.c_double)

        def call(lo: int, hi: int) -> None:
            cdll.repro_state_scatter_f64(idxp, vp, ctypes.c_int64(lo),
                                         ctypes.c_int64(hi), outp)

    _run_slabs(call, idx.size)


def scatter_cover(promoted, indptr, indices, sign: int, coverage,
                  touched) -> None:
    """Native frontier scatter; see repro_scatter_cover.  ``touched``
    must have capacity ``sum(indptr[p+1] - indptr[p])`` over the
    promoted rows; serial (overlapping balls would race)."""
    cdll = lib()
    assert cdll is not None
    cdll.repro_scatter_cover(
        ctypes.c_int64(promoted.size),
        _ptr(promoted, ctypes.c_int64),
        _ptr(indptr, ctypes.c_int64), _ptr(indices, ctypes.c_int64),
        ctypes.c_int64(int(sign)),
        _ptr(coverage, ctypes.c_int64), _ptr(touched, ctypes.c_int64))
