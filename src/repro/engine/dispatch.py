"""Kernel provider registry: one dispatch surface for every hot kernel.

Every hot entry point of the library — the RNG limb kernels
(``seed_lanes`` / ``draw_masked``), the election scan (``elect_batch``),
the Part II ball walks (``ball_phase`` / ``ball_adopt``) and the
coverage plane (``member_counts`` / ``member_counts_batch`` /
``deficit_vector`` / ``scatter_cover``), the columnar protocol
plane's round reductions (``inbox_reduce`` / ``state_scatter``) and
the artifact edit commit (``csr_patch``) — resolves its implementation
here instead of probing ``repro._native`` directly.  Two providers:

- ``native`` — the compiled C kernels of :mod:`repro._native`
  (slab-threaded, ``REPRO_NATIVE_THREADS``); serves every entry point.
- ``numpy`` — the reference implementations living at the call sites.
  Represented by ``impl = None``: a ``None`` from :func:`kernel` means
  "run your own numpy path", which keeps the reference code exactly
  where it documents the contract.

``REPRO_KERNEL_BACKEND`` selects globally: ``auto`` (default) takes
native when it is built and numpy otherwise; ``numpy`` / ``native``
force one provider for every entry point; any other name raises.  Forcing an
*unavailable* provider raises :class:`~repro.errors.KernelBackendError`
— never a silent fallback — while call-site applicability guards
(contiguity, dtype, degree bounds) still apply, since they are
correctness conditions, not preferences.  Every provider is bit-exact
with the numpy reference (pinned by ``tests/test_dispatch.py`` and the
generated cases of ``tests/test_native_binding.py``), so selection
only ever changes speed.  :func:`kernel`, which the call sites ask on
every kernel call, memoizes its answer; :func:`provider` and
:func:`provider_status` resolve afresh on every call.

A further provider (a device backend, say) is an additive module:
implement the entry-point shims, register here, and no call site
changes.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Dict, Optional, Tuple

from repro import _native
from repro.errors import KernelBackendError

__all__ = [
    "BACKENDS",
    "ENTRY_POINTS",
    "backend",
    "kernel",
    "provider",
    "provider_status",
]

BACKENDS = ("auto", "native", "numpy")

ENTRY_POINTS = ("seed_lanes", "draw_masked", "elect_batch", "ball_phase",
                "ball_adopt", "member_counts", "member_counts_batch",
                "deficit_vector", "scatter_cover", "inbox_reduce",
                "state_scatter", "csr_patch")

#: Entries whose native shim slab-threads (REPRO_NATIVE_THREADS); the
#: ball walks and the frontier scatter are serial by design (their
#: scatter targets overlap across work items), and so is the CSR patch
#: (one walk whose write offsets depend on every earlier row).
_THREADED_ENTRIES = frozenset({"seed_lanes", "draw_masked", "elect_batch",
                               "member_counts", "member_counts_batch",
                               "deficit_vector", "inbox_reduce",
                               "state_scatter"})


def _native_module():
    """The native provider module, or None when unavailable.  The
    compile/load probe is cached by :mod:`repro._native` itself (and
    reset by its test fixtures)."""
    return _native if _native.available() else None


def backend() -> str:
    """The selected backend name (``REPRO_KERNEL_BACKEND``, default
    ``auto``), parsed on every call.  :func:`kernel` keys its memo on
    the variable's raw value, so a changed value applies on the next
    call there too."""
    raw = os.environ.get("REPRO_KERNEL_BACKEND", "auto").strip().lower()
    if raw not in BACKENDS:
        raise KernelBackendError(
            f"unknown kernel backend {raw!r} (from REPRO_KERNEL_BACKEND); "
            f"expected one of {BACKENDS}")
    return raw


def provider(entry: str, size: Optional[int] = None
             ) -> Tuple[str, Optional[Callable]]:
    """Resolve ``(provider_name, impl)`` for one entry-point call.

    ``impl is None`` means "use the numpy reference at the call site".
    ``size`` (the call's flat work volume) is accepted and ignored:
    the provider does not depend on it.  Forcing ``native`` while
    unavailable raises :class:`~repro.errors.KernelBackendError`.
    """
    if entry not in ENTRY_POINTS:
        raise KernelBackendError(
            f"unknown kernel entry point {entry!r}; "
            f"expected one of {ENTRY_POINTS}")
    which = backend()
    if which == "numpy":
        return "numpy", None
    if which == "native":
        mod = _native_module()
        if mod is None:
            raise KernelBackendError(
                "REPRO_KERNEL_BACKEND=native, but the compiled kernels are "
                f"unavailable on this host ({_native.load_error()}); use "
                "'auto' to fall back explicitly")
        return "native", getattr(mod, entry)
    # auto: native when built, else numpy
    mod = _native_module()
    if mod is not None:
        return "native", getattr(mod, entry)
    return "numpy", None


#: :func:`kernel`'s answers, keyed by ``(raw REPRO_KERNEL_BACKEND,
#: entry, _native._lib, _native._tried)``: the last two are the native
#: loader's state, so a load or a reset of the loader (``_lib`` /
#: ``_tried``, as the tests do) starts a fresh key.
_resolved: Dict[tuple, Optional[Callable]] = {}


def kernel(entry: str, size: Optional[int] = None) -> Optional[Callable]:
    """The resolved implementation for ``entry`` (None = numpy path).

    The call sites ask on every kernel call, so this is memoized: one
    environment read and one dict lookup per call, with no import, no
    ``available()`` probe and no parsing.  A changed
    ``REPRO_KERNEL_BACKEND`` or a reset native loader misses the memo
    and resolves through :func:`provider`, which also raises (and
    memoizes nothing) for an unknown backend or a forced unavailable
    one.  ``size`` is ignored, as in :func:`provider`.
    """
    raw = os.environ.get("REPRO_KERNEL_BACKEND")
    try:
        return _resolved[raw, entry, _native._lib, _native._tried]
    except KeyError:
        pass
    impl = provider(entry)[1]
    if len(_resolved) >= 256:  # bound the keys stale loader states hold
        _resolved.clear()
    # Keyed by the state *after* resolution: the probe may just have
    # loaded the kernels.
    _resolved[raw, entry, _native._lib, _native._tried] = impl
    return impl


def provider_status() -> Dict[str, Any]:
    """Runtime introspection of the registry, JSON-ready.

    The dict behind ``repro kernels``, the ``kernels`` key of
    ``repro serve --json`` and ``ExperimentReport.timing``: backend
    selection, native build digest / thread count / load error (why
    the compiled kernels are unavailable, else None), and the provider
    each entry point resolves to.  A forced-but-unavailable backend is
    reported per entry (provider ``"unavailable"`` plus the error text)
    instead of raising, so the status surface works exactly where the
    failure needs diagnosing.
    """
    which = backend()
    status: Dict[str, Any] = {
        "backend": which,
        "forced": which != "auto",
        "native": {
            "available": _native.available(),
            "digest": _native.build_digest(),
            "threads": _native.thread_count(),
            "error": _native.load_error(),
        },
        "entry_points": {},
    }
    for entry in ENTRY_POINTS:
        try:
            name, impl = provider(entry)
            error = None
        except KernelBackendError as exc:
            name, impl, error = "unavailable", None, str(exc)
        info: Dict[str, Any] = {
            "provider": name,
            "compiled": impl is not None,
            "threaded": name == "native" and entry in _THREADED_ENTRIES,
        }
        if error is not None:
            info["error"] = error
        status["entry_points"][entry] = info
    return status
