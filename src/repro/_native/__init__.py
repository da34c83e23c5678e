"""Optional compiled kernels for the hot loops of the library.

The hot loops — PCG64 stream advancement, the per-round election scan,
the Part II ball walks, the coverage matvec, the columnar plane's
round reductions and the artifact edit commit — are memory-light,
branch-heavy loops that NumPy can only express as dozens of full-array
passes.  This package compiles ``kernels.c`` once into a CPython
extension module with whatever C compiler the host has (``cc -O3
-march=native -shared -fPIC`` against the interpreter's headers),
caches it next to the source as
``_build/kernels-<digest><EXT_SUFFIX>`` (content hash + this
interpreter's extension suffix), and loads it with
:class:`importlib.machinery.ExtensionFileLoader`.  A kernel call hands
its numpy arrays to C through the buffer protocol; the binding checks
every buffer's item size, contiguity, writability and length before
the kernel runs, so a bad call raises instead of writing out of
bounds.  Everything here is strictly optional:

* no compiler, no Python headers, a failed compile or load, or
  ``REPRO_NATIVE=0`` in the environment all degrade to the pure-NumPy
  implementations, which are bit-for-bit equivalent (pinned by
  ``tests/test_dispatch.py``); :func:`load_error` says why;
* a cached artifact is loaded only if it matches the size and sha256
  recorded beside it at build time.  A truncated, empty or foreign
  file, or one that fails to load, is removed and rebuilt once under
  the build lock;
* the compiled path is an *implementation detail behind*
  :mod:`repro.engine.dispatch` — callers never see it.

Threading: every kernel takes an explicit slab of its iteration space,
so the shim can split one call across a worker pool.  The binding
releases the GIL around each kernel body, per-lane work never reads
another slab's state, and slabs are contiguous — so any thread count
is bit-identical to the single-call path.  ``REPRO_NATIVE_THREADS``
picks the worker count (default: the machine's cores; ``1`` keeps the
historical single-call behavior); small calls always run inline, so
threading never taxes the n=10^3 regime.
"""

from __future__ import annotations

import hashlib
import importlib.machinery
import importlib.util
import os
import subprocess
import sys
import sysconfig
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from pathlib import Path
from types import ModuleType
from typing import Callable, Iterator, List, Optional, Tuple

_HERE = Path(__file__).resolve().parent
_SOURCE = _HERE / "kernels.c"

_lib: ModuleType | None = None
_tried = False
#: Why the last load attempt left ``_lib`` None.
_error: str | None = None

#: The artifact suffix: extension modules of another interpreter in the
#: same checkout carry another suffix, so neither prunes the other.
_EXT_SUFFIX = (sysconfig.get_config_var("EXT_SUFFIX")
               or importlib.machinery.EXTENSION_SUFFIXES[0])

#: Below this many flat lanes a draw/seed call runs inline — the slab
#: bookkeeping would cost more than the loop.
_MIN_SLAB = 1 << 15

#: Folded into the artifact's content hash so flag changes rebuild it.
_BUILD_TAG = b"cpython-ext-march-native-1"


def build_digest() -> Optional[str]:
    """The content digest the cached extension is keyed by (source
    bytes + build tag), or None when ``kernels.c`` is unreadable.  Pure
    function of the tree — it identifies the build without triggering
    one, so the introspection surface (``repro kernels``) can report it
    even on hosts with no compiler."""
    try:
        source = _SOURCE.read_bytes()
    except OSError:
        return None
    return hashlib.sha256(source + _BUILD_TAG).hexdigest()[:16]


@contextmanager
def _build_lock(build: Path):
    """Exclusive advisory lock over the build+prune sequence.

    The subprocess runtime matrix and parallel pytest runs can race one
    process's stale-artifact prune against another's ``os.replace``;
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


def _record(artifact: Path) -> Path:
    """The fingerprint record written beside an artifact."""
    return artifact.with_name(artifact.name + ".sha256")


def _fingerprint(artifact: Path) -> str:
    """``"<size> <sha256>"`` of an artifact's bytes."""
    data = artifact.read_bytes()
    return f"{len(data)} {hashlib.sha256(data).hexdigest()}"


def _verified(artifact: Path) -> bool:
    """True when ``artifact`` matches the fingerprint recorded at build
    time.  Loading a truncated shared object faults the process with
    SIGBUS, so nothing unverified is ever loaded."""
    try:
        return _record(artifact).read_text().strip() == _fingerprint(
            artifact)
    except OSError:
        return False


def _seal(artifact: Path) -> None:
    """Record ``artifact``'s fingerprint (atomically, like the artifact)."""
    tmp = artifact.with_name(f".{artifact.name}.{os.getpid()}.sha256")
    tmp.write_text(_fingerprint(artifact) + "\n")
    os.replace(tmp, _record(artifact))


def _discard(artifact: Path) -> None:
    artifact.unlink(missing_ok=True)
    _record(artifact).unlink(missing_ok=True)


def _include_dirs() -> List[str]:
    """The interpreter's C header directories, or [] when ``Python.h``
    is not installed (a runtime-only Python)."""
    paths = sysconfig.get_paths()
    dirs = list(dict.fromkeys(
        p for p in (paths.get("include"), paths.get("platinclude")) if p))
    if not any((Path(d) / "Python.h").is_file() for d in dirs):
        return []
    return dirs


def _compile() -> Path | None:
    """The verified cached extension for the current source, compiled
    under the build lock when it is missing or fails verification; None
    (with the reason in ``_error``) when it cannot be built."""
    global _error
    digest = build_digest()
    if digest is None:
        _error = f"kernel source {_SOURCE} is unreadable"
        return None
    build = _HERE / "_build"
    target = build / f"kernels-{digest}{_EXT_SUFFIX}"
    if _verified(target):
        return target
    includes = _include_dirs()
    if not includes:
        _error = ("Python headers (Python.h) are not installed for this "
                  "interpreter")
        return None
    try:
        build.mkdir(exist_ok=True)
    except OSError as exc:
        _error = f"cannot create {build}: {exc}"
        return None
    extra = [f"-I{d}" for d in includes]
    if sys.platform == "darwin":
        extra += ["-undefined", "dynamic_lookup"]
    # -march=native first (worth ~10% on the 128-bit LCG loops); plain
    # -O3 as the fallback for compilers/targets without it.  The kernels
    # are pure integer arithmetic, so codegen never changes results.
    attempts = [(cc, flags)
                for flags in (["-O3", "-march=native"], ["-O3"])
                for cc in ("cc", "gcc", "clang")]
    failure = "no C compiler found"
    tmp = build / f".kernels-{digest}.{os.getpid()}{_EXT_SUFFIX}"
    with _build_lock(build):
        if _verified(target):  # built by whoever held the lock first
            return target
        _discard(target)  # partial, corrupt or unrecorded: rebuild
        for cc, flags in attempts:
            try:
                proc = subprocess.run(
                    [cc, *flags, "-shared", "-fPIC", *extra, "-o",
                     str(tmp), str(_SOURCE)],
                    capture_output=True, timeout=120)
            except FileNotFoundError:  # no such compiler on PATH
                continue
            except (OSError, subprocess.SubprocessError) as exc:
                tmp.unlink(missing_ok=True)
                failure = f"{cc}: {exc}"
                continue
            if proc.returncode != 0 or not tmp.exists():
                tmp.unlink(missing_ok=True)
                err = proc.stderr.decode(errors="replace").strip()
                failure = (f"{cc} {' '.join(flags)} exited {proc.returncode}"
                           + (f": {err.splitlines()[-1]}" if err else ""))
                continue
            try:
                os.replace(tmp, target)  # atomic under parallel use
                _seal(target)
            except OSError as exc:  # an unrecorded artifact never loads
                failure = f"cannot store {target.name}: {exc}"
                break
            # A successful build supersedes every other digest of this
            # interpreter's suffix: prune them so edits don't accumulate
            # stale artifacts.  (Unlinking a loaded extension is safe on
            # POSIX — the inode survives until the mapping is dropped.)
            for stale in build.glob(f"kernels-*{_EXT_SUFFIX}"):
                if stale.name != target.name:
                    _discard(stale)
            return target
    _error = f"cannot compile {_SOURCE.name}: {failure}"
    return None


def _load(artifact: Path) -> ModuleType:
    """Import the extension module at ``artifact``."""
    name = f"{__name__}._kernels"
    loader = importlib.machinery.ExtensionFileLoader(name, str(artifact))
    spec = importlib.util.spec_from_file_location(name, artifact,
                                                  loader=loader)
    module = importlib.util.module_from_spec(spec)
    loader.exec_module(module)
    return module


def lib() -> ModuleType | None:
    """The loaded kernel extension, or None when unavailable (see
    :func:`load_error`)."""
    global _lib, _tried, _error
    if _tried:
        return _lib
    _tried = True
    if os.environ.get("REPRO_NATIVE", "1") == "0":
        _error = "disabled by REPRO_NATIVE=0"
        return None
    # A verified artifact that still fails to load (a foreign file with
    # a forged record, say) is discarded and rebuilt once.
    for _ in range(2):
        path = _compile()
        if path is None:
            return None
        try:
            _lib = _load(path)
        except ImportError as exc:
            _error = f"cannot load {path.name}: {exc}"
            with _build_lock(path.parent):
                _discard(path)
            continue
        _error = None
        return _lib
    return None


def available() -> bool:
    """True when the compiled kernels are usable on this host."""
    return lib() is not None


def load_error() -> Optional[str]:
    """Why the compiled kernels are unavailable, or None when they
    loaded: ``REPRO_NATIVE=0``, no compiler, no Python headers, or a
    failed build or load."""
    return None if lib() is not None else _error


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
               min_slab: Optional[int] = None) -> None:
    """Run ``fn(lo, hi)`` over a slab partition of ``[0, total)``.

    Uses the worker pool when the work spans at least two slabs of
    ``min_slab`` (default :data:`_MIN_SLAB`) and the configured thread
    count allows; otherwise one inline call (which is also the
    degenerate partition, so results never depend on the choice).  The
    thread count is read only when the size admits threading, so small
    calls skip the environment read.
    """
    global _executor, _executor_workers
    slabs = total // (_MIN_SLAB if min_slab is None else min_slab)
    workers = min(thread_count(), slabs) if slabs > 1 else 1
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


# ----------------------------------------------------------------------
# Entry-point shims (see repro.engine.dispatch for the call sites)
#
# Arrays go to the extension as they are: it reads them through the
# buffer protocol and raises TypeError / ValueError / BufferError on a
# wrong item size, a strided or read-only buffer, or a short one, before
# any kernel writes.
# ----------------------------------------------------------------------

def draw_masked(sh, sl, ih, il, mask, need, high: int, out) -> None:
    """Native masked bounded draw; see repro_draw_masked in kernels.c.

    ``need`` may be None.  States in ``sh``/``sl`` advance in place.
    Slabs split the flat lane axis; each lane's advancement reads only
    its own limbs, so the result is bit-identical at any thread count.
    """
    k = lib()
    assert k is not None

    def call(lo: int, hi: int) -> None:
        k.draw_masked(sh, sl, ih, il, mask, need, lo, hi, high, out)

    _run_slabs(call, mask.size)


def seed_lanes(pool4, hc, R: int, n: int, ih, il, sh, sl) -> None:
    """Native per-lane PCG64 seeding; see repro_seed_lanes in kernels.c.

    Slabs split the flat ``(R, n)`` lane space; each lane's limbs are a
    pure function of its (replica, spawn child) pair, so any partition
    seeds identically.
    """
    k = lib()
    assert k is not None

    def call(lo: int, hi: int) -> None:
        k.seed_lanes(pool4, hc, R, n, lo, hi, ih, il, sh, sl)

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
    k = lib()
    assert k is not None
    masked = 1 if ids_masked else 0

    def call(r_lo: int, r_hi: int) -> None:
        k.elect_batch(R, n, sub, starts, deg, nbr_w, ids, active, elected,
                      r_lo, r_hi, masked)

    # Replica rows are the unit of work here: thread only when several
    # rows of meaningful size are available.
    if R * max(sub.size, 1) < _MIN_SLAB:
        call(0, R)
    else:
        _run_slabs(call, R, min_slab=1)


def ball_phase(n: int, rows, nodes, indptr, indices, live, leader, krow,
               cnt, small, picks, touched, big) -> int:
    """Native fused adoption-iteration phase; see repro_ball_phase.

    ``cnt`` / ``small`` are zeroed reusable scratch planes (the kernel
    restores them); ``picks`` arrives zeroed and is filled with the
    wholesale adoptions.  Returns the number of big-actor flat indices
    written to ``big``.
    """
    k = lib()
    assert k is not None
    return k.ball_phase(n, rows, nodes, indptr, indices, live, leader,
                        krow, cnt, small, picks, touched, big)


def ball_adopt(n: int, rows, nodes, indptr, indices, coverage, leader,
               deficient, krow) -> None:
    """Native promotion coverage + deficiency refresh; see
    repro_ball_adopt.  Mutates ``coverage`` and ``deficient`` in place.
    """
    k = lib()
    assert k is not None
    k.ball_adopt(n, rows, nodes, indptr, indices, coverage, leader,
                 deficient, krow)


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
    k = lib()
    assert k is not None

    def call(lo: int, hi: int) -> None:
        k.member_counts(n, R, indptr, idx32, xT, open_conv, lo, hi, out)

    _run_slabs(call, n, min_slab=max(1, _MIN_ROW_SLAB // max(1, R // 4)))


#: Alias: the batch entry point shares the single kernel (R is just a
#: parameter), but registers separately so dispatch can gate and report
#: the two shapes independently.
member_counts_batch = member_counts


def deficit_vector(counts, req_vec, req_scalar: int, members, out) -> None:
    """Native elementwise deficit; see repro_deficit.  ``req_vec`` and
    ``members`` may be None (uniform requirement / no exemption)."""
    k = lib()
    assert k is not None

    def call(lo: int, hi: int) -> None:
        k.deficit(counts, req_vec, req_scalar, members, lo, hi, out)

    _run_slabs(call, counts.size)


def inbox_reduce(indptr, values, mask, init, out) -> None:
    """Native columnar inbox reduction; see repro_inbox_reduce.

    ``indptr`` is the receiver-major CSR row pointer (one entry per
    ``out`` row, plus one), ``values``/``mask`` per-edge columns,
    ``init`` the per-row starting term (the node's own contribution).
    Rows are the slab axis; each row is written exactly once, so any
    thread count is bit-identical to the single pass."""
    k = lib()
    assert k is not None
    n = indptr.size - 1

    def call(lo: int, hi: int) -> None:
        k.inbox_reduce(indptr, values, mask, init, lo, hi, out)

    avg_deg = max(1, values.size // max(1, n))
    _run_slabs(call, n, min_slab=max(1, _MIN_ROW_SLAB // avg_deg))


def state_scatter(idx, values, out) -> None:
    """Native permutation gather ``out[i] = values[idx[i]]``; see
    repro_state_scatter_{f64,u8}.  Dispatches on the value item size
    (8-byte payload columns, 1-byte delivery masks); the edge axis is
    the slab axis and every slot is written once, so any thread count
    is bit-identical."""
    k = lib()
    assert k is not None
    gather = k.state_scatter_u8 if values.dtype.itemsize == 1 \
        else k.state_scatter_f64

    def call(lo: int, hi: int) -> None:
        gather(idx, values, lo, hi, out)

    _run_slabs(call, idx.size)


def scatter_cover(promoted, indptr, indices, sign: int, coverage,
                  touched) -> None:
    """Native frontier scatter; see repro_scatter_cover.  ``touched``
    must have capacity ``sum(indptr[p+1] - indptr[p])`` over the
    promoted rows (checked, like the rows' range); serial (overlapping
    balls would race)."""
    k = lib()
    assert k is not None
    k.scatter_cover(promoted, indptr, indices, sign, coverage, touched)


def csr_patch(indptr, indices, final, src, keys, out_indptr,
              out_indices) -> int:
    """Native commit of one artifact edit batch; see repro_csr_patch.
    Writes the new closed CSR into ``out_indptr`` / ``out_indices``
    and returns its entry count.  ``final`` / ``src`` (the slot map)
    and ``keys`` are checked first, because ``out_indices`` must hold
    the copied rows plus the keys; serial (one walk over the slots)."""
    k = lib()
    assert k is not None
    return k.csr_patch(indptr, indices, final, src, keys, out_indptr,
                       out_indices)
