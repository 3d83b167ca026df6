"""The compiled Dijkstra for the door-graph hot loop.

ToE, KoE and KoE* spend most of their time in door-graph Dijkstra
runs (:meth:`repro.space.graph.DoorGraph._run_dijkstra`).  This
package provides one compiled replacement for that loop: a small C
library (``_kernels.c``) built best-effort with the system C compiler
and called through ``ctypes`` (see :mod:`.native_backend`).

There is no selection knob.  Every :class:`~repro.core.IKRQEngine`
attaches the C Dijkstra when ``_kernels.c`` builds on this machine
and runs the interpreted loop when it does not (no compiler, failed
build).  Both are bit-identical — the same ``dist``/``pred`` state,
tie-breaking, visit order and float arithmetic (the argument lives in
``_kernels.c``) — so the choice never changes an answer byte, only its
speed.  ``DoorGraph.set_kernel(None)`` detaches the kernel; the
identity tests use that to run the interpreted reference.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

#: ``(sssp callable or None, reason the build is unavailable or None)``
#: once the build has been attempted in this process.
_state: Optional[tuple] = None


class KernelUnavailable(RuntimeError):
    """Raised when ``_kernels.c`` cannot be built or loaded."""


def native_sssp() -> Optional[Callable]:
    """The C ``sssp`` callable, or ``None`` when the build is unavailable.

    The first call builds (or loads the cached build of) ``_kernels.c``;
    later calls return the remembered outcome.
    """
    global _state
    if _state is None:
        try:
            from repro.space.kernels import native_backend
            native_backend.library()
            _state = (native_backend.sssp, None)
        except Exception as exc:  # KernelUnavailable, OSError, ...
            _state = (None, f"{type(exc).__name__}: {exc}")
    return _state[0]


def kernel_info() -> Dict[str, Optional[str]]:
    """``{"active": "native" | "python", "unavailable": reason | None}``."""
    sssp = native_sssp()
    return {"active": "python" if sssp is None else "native",
            "unavailable": _state[1]}
