"""The C kernels: best-effort build, ctypes dispatch, no numpy.

``_kernels.c`` is compiled on first use with the system C compiler
(``$CC`` or ``cc``) into a content-addressed shared object under a
cache directory (``$REPRO_KERNEL_CACHE`` or
``<tmp>/repro-kernels``), so the build runs once per source revision
per machine — no build system, no install-time hook, no new
dependency.  When no compiler is present (or the build fails)
:func:`library` raises :class:`KernelUnavailable` and engines run the
interpreted loop; nothing in the serving or query path requires it.

The library holds two transcriptions of interpreted loops: the
Dijkstra (:func:`sssp`) and the skeleton lower bound
(:class:`SkeletonBounds`); the comments in ``_kernels.c`` carry their
bit-identity arguments.  Buffers are passed by address: ``array``
objects report theirs directly, and read-only ``memoryview`` slices
of an ``mmap``-ed snapshot are addressed through the CPython buffer
protocol, without a copy.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from array import array

from repro.space.kernels import KernelUnavailable

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "_kernels.c")

_lib = None


def _cache_dir() -> str:
    path = os.environ.get("REPRO_KERNEL_CACHE")
    if not path:
        path = os.path.join(tempfile.gettempdir(), "repro-kernels")
    os.makedirs(path, exist_ok=True)
    return path


def _build() -> ctypes.CDLL:
    with open(_SOURCE, "rb") as fh:
        source = fh.read()
    digest = hashlib.sha256(source).hexdigest()[:16]
    so_path = os.path.join(_cache_dir(), f"repro_kernels_{digest}.so")
    if not os.path.exists(so_path):
        cc = shutil.which(os.environ.get("CC") or "cc")
        if cc is None:
            raise KernelUnavailable("no C compiler (cc) on PATH")
        tmp_path = f"{so_path}.{os.getpid()}.tmp"
        # Plain -O2, deliberately without -ffast-math: the doubles
        # must round exactly like CPython's.
        cmd = [cc, "-O2", "-fPIC", "-shared", "-o", tmp_path, _SOURCE]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            raise KernelUnavailable(
                f"C kernel build failed: {proc.stderr.strip()[:500]}")
        os.replace(tmp_path, so_path)
    lib = ctypes.CDLL(so_path)
    lib.repro_dijkstra.restype = ctypes.c_int64
    lib.repro_dijkstra.argtypes = [ctypes.c_void_p] * 5 + [
        ctypes.c_void_p] * 7 + [ctypes.c_int64] + [
        ctypes.c_void_p] * 4 + [ctypes.c_int64, ctypes.c_int64,
        ctypes.c_double, ctypes.c_int64, ctypes.c_void_p,
        ctypes.c_int64, ctypes.c_void_p]
    lib.repro_lower_bound.restype = ctypes.c_double
    lib.repro_lower_bound.argtypes = [
        ctypes.c_void_p, ctypes.c_int64,
        ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p, ctypes.c_int64]
    lib.repro_lower_bounds.restype = None
    lib.repro_lower_bounds.argtypes = [
        ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p, ctypes.c_int64,
        ctypes.c_int64, ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p]
    return lib


def library() -> ctypes.CDLL:
    """The loaded kernel library (built on first use; may raise)."""
    global _lib
    if _lib is None:
        _lib = _build()
    return _lib


class _PyBuffer(ctypes.Structure):
    """CPython's ``Py_buffer`` (``obj`` kept opaque: no refcounting)."""

    _fields_ = [("buf", ctypes.c_void_p), ("obj", ctypes.c_void_p),
                ("len", ctypes.c_ssize_t), ("itemsize", ctypes.c_ssize_t),
                ("readonly", ctypes.c_int), ("ndim", ctypes.c_int),
                ("format", ctypes.c_char_p), ("shape", ctypes.c_void_p),
                ("strides", ctypes.c_void_p),
                ("suboffsets", ctypes.c_void_p),
                ("internal", ctypes.c_void_p)]


_get_buffer = ctypes.pythonapi.PyObject_GetBuffer
_get_buffer.argtypes = [ctypes.py_object, ctypes.POINTER(_PyBuffer),
                        ctypes.c_int]
_get_buffer.restype = ctypes.c_int
_release_buffer = ctypes.pythonapi.PyBuffer_Release
_release_buffer.argtypes = [ctypes.POINTER(_PyBuffer)]
_release_buffer.restype = None


def _addr(buf) -> int:
    """The base address of a contiguous buffer, without copying it.

    Valid for as long as ``buf`` (and whatever it views, such as a
    snapshot mapping) stays alive — the graph and workspace own every
    buffer passed to the kernel.
    """
    if isinstance(buf, array):
        return buf.buffer_info()[0]
    view = _PyBuffer()
    _get_buffer(buf, ctypes.byref(view), 0)  # PyBUF_SIMPLE
    try:
        return view.buf or 0
    finally:
        _release_buffer(ctypes.byref(view))


def _begin_run(graph, ws, banned, targets):
    """The run prologue of the interpreted loop, verbatim.

    Bumps the workspace epoch, marks banned door ids and counts the
    early-exit target set.  Returns ``(epoch, remaining)`` where
    ``remaining`` is -1 without a target set and 0 when every target
    was already deduplicated away (the run must then not explore).
    """
    epoch = ws.begin()
    door_index = graph._door_index
    banned_mark = ws.banned
    for did in banned:
        idx = door_index.get(did)
        if idx is not None:
            banned_mark[idx] = epoch
    remaining = -1
    if targets is not None:
        remaining = 0
        target_mark = ws.target
        for idx in targets:
            if target_mark[idx] != epoch:
                target_mark[idx] = epoch
                remaining += 1
    return epoch, remaining


class _Scratch:
    """Per-workspace heap/touched buffers and the last edge-skip mask."""

    __slots__ = ("cap", "heap", "touched", "mask_key", "mask")

    def __init__(self, cap: int, n: int) -> None:
        self.cap = cap
        self.heap = ctypes.create_string_buffer(16 * cap)
        self.touched = array("q", bytes(8 * n))
        self.mask_key = None
        self.mask = None


def _scratch(ws, graph) -> _Scratch:
    """Reusable scratch sized for this graph (heap holds seeds + edges)."""
    cap = len(graph._nbr) + len(graph._door_ids) + 16
    scratch = ws.kernel_scratch
    if scratch is None or scratch.cap < cap:
        scratch = ws.kernel_scratch = _Scratch(cap, len(graph._door_ids))
    return scratch


def _edge_skip(scratch: _Scratch, graph, bp) -> bytearray:
    """Per-edge mask of the edges through a banned partition.

    A query under a closure overlay runs many Dijkstras with the same
    sealed set, so the workspace keeps the last mask it built.
    """
    if scratch.mask_key is None or scratch.mask_key[0] is not graph \
            or scratch.mask_key[1] != bp:
        scratch.mask = bytearray(map(bp.__contains__, graph._via))
        scratch.mask_key = (graph, bp)
    return scratch.mask


def sssp(graph, ws, seeds, banned, banned_partitions, targets, bound,
         forbid) -> None:
    """``DoorGraph._run_dijkstra`` in C (same workspace side effects)."""
    epoch, remaining = _begin_run(graph, ws, banned, targets)
    if remaining == 0:
        return
    bp = banned_partitions if banned_partitions else None
    seed_w = array("d")
    seed_node = array("q")
    seed_pred = array("q")
    seed_via = array("q")
    for weight, node, prev, via in seeds:
        if bp is not None and via in bp:
            continue
        seed_w.append(weight)
        seed_node.append(node)
        seed_pred.append(prev)
        seed_via.append(via)
    scratch = _scratch(ws, graph)
    edge_skip_ptr = 0
    if bp is not None:
        edge_skip_ptr = _addr(_edge_skip(scratch, graph, bp))
    count = _lib.repro_dijkstra(
        _addr(graph._indptr), _addr(graph._nbr), _addr(graph._via),
        _addr(graph._wt), edge_skip_ptr,
        _addr(ws.dist), _addr(ws.pred), _addr(ws.pred_via),
        _addr(ws.visit), _addr(ws.settled), _addr(ws.banned),
        _addr(ws.target), epoch,
        _addr(seed_w), _addr(seed_node), _addr(seed_pred),
        _addr(seed_via), len(seed_w), remaining,
        float(bound), forbid,
        ctypes.addressof(scratch.heap), scratch.cap,
        _addr(scratch.touched))
    if count < 0:  # pragma: no cover - capacity is provably sufficient
        raise RuntimeError("native kernel heap overflow")
    ws.touched.extend(scratch.touched[:count])


class SkeletonBounds:
    """The C skeleton lower bound over one δs2s table.

    ``s2s`` is the skeleton's row-major table — an ``array`` or a
    read-only ``memoryview`` of a mapped snapshot — addressed in place
    and kept alive here.  Attachments pass the address and stair
    count of their packed buffer (see
    :data:`repro.space.skeleton.Attachment`); ``one`` is the C
    single-pair entry point, which the skeleton calls inline.
    """

    __slots__ = ("s2s", "addr", "n", "one", "many")

    def __init__(self, s2s, n: int) -> None:
        self.s2s = s2s
        self.addr = _addr(s2s)
        self.n = n
        self.one = _lib.repro_lower_bound
        self.many = _lib.repro_lower_bounds

    def bounds(self, fixed_addr: int, fixed_count: int, fixed_is_a: bool,
               items: array) -> array:
        """The bound between one attachment and each of ``items``.

        ``items`` concatenates the other attachments' ``(address,
        count)`` pairs; with ``fixed_is_a`` the fixed attachment is the
        ``a`` side.
        """
        m = len(items) // 2
        out = array("d", bytes(8 * m))
        self.many(self.addr, self.n, fixed_addr, fixed_count,
                  int(fixed_is_a), items.buffer_info()[0], m,
                  out.buffer_info()[0])
        return out
