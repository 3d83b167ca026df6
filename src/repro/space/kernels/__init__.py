"""The compiled kernels: door-graph Dijkstra and skeleton lower bound.

ToE, KoE and KoE* spend most of their time in door-graph Dijkstra
runs (:meth:`repro.space.graph.DoorGraph._run_dijkstra`) and in the
skeleton lower bounds behind Pruning Rules 1-4
(:meth:`repro.space.skeleton.SkeletonIndex.lower_bound_heads`, and
:meth:`~repro.space.skeleton.SkeletonIndex.door_bounds`, a new
endpoint against every door).  This package provides compiled
replacements for these loops, all in one small C library
(``_kernels.c``) built best-effort with the system C compiler and
called through ``ctypes`` (see :mod:`.native_backend`).

There is no selection knob.  Every :class:`~repro.core.IKRQEngine`
attaches both kernels when ``_kernels.c`` builds on this machine and
runs the interpreted loops when it does not (no compiler, failed
build).  Each kernel is bit-identical to its interpreted loop — the
same state, tie-breaking, visit order and float arithmetic (the
arguments live in ``_kernels.c``) — so the choice never changes an
answer byte, only its speed.  ``DoorGraph.set_kernel(None)`` and
``SkeletonIndex.set_kernel(None)`` detach them; the identity tests use
that to run the interpreted reference.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

#: ``(native_backend module or None, reason the build is unavailable
#: or None)`` once the build has been attempted in this process.
_state: Optional[tuple] = None


class KernelUnavailable(RuntimeError):
    """Raised when ``_kernels.c`` cannot be built or loaded."""


def _backend():
    """The loaded native backend module, or ``None`` (build attempted once)."""
    global _state
    if _state is None:
        try:
            from repro.space.kernels import native_backend
            native_backend.library()
            _state = (native_backend, None)
        except Exception as exc:  # KernelUnavailable, OSError, ...
            _state = (None, f"{type(exc).__name__}: {exc}")
    return _state[0]


def native_sssp() -> Optional[Callable]:
    """The C ``sssp`` callable, or ``None`` when the build is unavailable.

    The first call builds (or loads the cached build of) ``_kernels.c``;
    later calls return the remembered outcome.
    """
    backend = _backend()
    return None if backend is None else backend.sssp


def native_bounds() -> Optional[Callable]:
    """The C lower-bound factory from the same build, or ``None``.

    Called with a δs2s table and its side length, it returns a
    :class:`~.native_backend.SkeletonBounds` for
    :meth:`~repro.space.skeleton.SkeletonIndex.set_kernel`.
    """
    backend = _backend()
    return None if backend is None else backend.SkeletonBounds


def kernel_info() -> Dict[str, Optional[str]]:
    """``{"active": …, "lower_bound": …, "unavailable": reason | None}``.

    ``active`` names the Dijkstra and ``lower_bound`` the skeleton
    bound an engine attaches: both ``native`` or both ``python``.
    """
    name = "python" if _backend() is None else "native"
    return {"active": name, "lower_bound": name,
            "unavailable": _state[1]}
