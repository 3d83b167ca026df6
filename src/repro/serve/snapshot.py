"""Versioned on-disk index snapshots for millisecond worker cold-start.

The venue serialisation of :mod:`repro.space.serialize` ships the raw
model; a *snapshot* additionally persists every index the engine
builds from it, so a serve worker loads instead of recomputing:

* the interned CSR door-graph buffers (``DoorGraph.csr_arrays``),
* the skeleton index's staircase doors and δs2s all-pairs matrix,
* warm KoE* door-matrix rows (distance + predecessor dicts, hottest
  rows first) together with the matrix budget/eagerness settings,
* an optional advisory :class:`~repro.core.prime.PrimeTable` learned
  from traffic (diagnostics only — live searches always start from an
  empty per-query table, so persisting it never changes results).

Two encodings share one logical model.

**Version 1 — JSON** (single document)::

    {"format": "repro-ikrq-snapshot", "version": 1,
     "venue":    {... repro-indoor-space document ...},
     "graph":    {"door_ids": [...], "indptr": [...],
                  "nbr": [...], "via": [...], "wt": [...]},
     "skeleton": {"stair_doors": [...], "s2s": [[...]]},
     "door_matrix": {"eager": bool, "max_rows": int|null,
                     "rows": [[src, {"dist": {did: d},
                                     "pred": {did: [prev, via]}}],
                              ...]},  # LRU order, hottest last
     "prime":    {"entries": [[tail, [kp...], dist], ...]},
     "engine":   {"door_matrix_eager": bool,
                  "door_matrix_max_rows": int|null,
                  "popularity": {pid: weight}}}

**Version 2 — binary** (``save_snapshot(..., binary=True)``): the same
content with every large structure packed as raw typed-array bytes, so
cold-start on big venues pays one ``fromfile``-style memcpy per buffer
instead of JSON parsing millions of number tokens, and the loaded
buffers *are* the runtime representation (flat CSR arrays, flat δs2s,
:class:`~repro.space.graph.FlatTree` matrix rows).  Since v2.1 the
payload is **page-aligned** by default, so it can also be ``mmap``-ed.
Layout::

    magic   8 bytes  b"IKRQSNP2"
    u32 LE  container version (2)
    u32 LE  header length in bytes
    header  UTF-8 JSON: {"format", "version": 2, "byteorder": "little",
                         "venue": {...}, "engine": {...},
                         "prime": {...}, "door_matrix":
                             {"eager", "max_rows",
                              "row_sources": [src, ...]},  # LRU order
                         "align": 4096,                    # v2.1 only
                         "arrays":
                             [[name, typecode, count], ...]          # v2.0
                             [[name, typecode, count, offset], ...]} # v2.1
    payload v2.0: raw array bytes, concatenated in ``arrays`` order
            v2.1: each section at ``payload_base + offset`` where
                  ``payload_base`` is the first ``align`` multiple at
                  or past the header end, every ``offset`` is an
                  ``align`` multiple, and inter-section gaps are zero
                  padding

Array sections: ``graph.door_ids|indptr|nbr|via`` (``q``),
``graph.wt`` (``d``), ``skeleton.stair_doors`` (``q``),
``skeleton.s2s`` (``d``, flat row-major — ``inf`` survives natively,
no ``None`` dance), and per warm matrix row ``i``: ``row{i}.dist``
(``d``, dense over door indices), ``row{i}.pred`` / ``row{i}.pred_via``
(``q``).  Buffers are always little-endian on disk; loaders byteswap
on big-endian hosts.

``load_snapshot(path, mmap=True)`` maps an aligned file read-only and
backs the graph, skeleton and warm matrix buffers with ``memoryview``
slices of the shared mapping instead of heap copies, so N shard
processes loading the same generation share **one** page-cache copy of
the typed-array payload.  Answers are bit-identical to an eager load —
the views hand back the same IEEE bits the arrays would.  The mode
falls back to an eager load (and records ``engine.mapped_bytes == 0``)
for v2.0 files, JSON v1 files, and big-endian hosts, where adopting
the little-endian payload in place would mis-read every value.

Both encodings preserve floats exactly (JSON emits the shortest
round-tripping ``repr``; binary stores the IEEE bits), so an engine
loaded from either answers byte-identically to the engine the snapshot
was taken from.  ``load_snapshot`` / ``read_snapshot`` sniff the magic
bytes, so every caller accepts both formats transparently; v1 JSON and
v2.0 packed files remain fully readable.
"""

from __future__ import annotations

import json
import mmap as _mmap
import struct
import sys
from array import array
from collections import OrderedDict
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.core.engine import IKRQEngine
from repro.core.prime import PrimeTable
from repro.space.distances import DistanceOracle
from repro.space.graph import (FlatTree, DoorGraph, DoorMatrix, _POINT,
                               _ROOT)
from repro.space.serialize import space_from_dict, space_to_dict
from repro.space.skeleton import SkeletonIndex

SNAPSHOT_FORMAT = "repro-ikrq-snapshot"
SNAPSHOT_VERSION = 1
#: Version tag of the binary (typed-array) encoding.
SNAPSHOT_VERSION_BINARY = 2
#: Magic prefix of binary snapshot files.
BINARY_MAGIC = b"IKRQSNP2"
#: Default section alignment of the v2.1 layout: one page on every
#: platform we serve on, which is what makes the payload mappable.
SNAPSHOT_ALIGN = 4096

INF = float("inf")

#: Sentinel distinguishing "not passed" from an explicit ``None`` in
#: the loader's matrix-budget override.
_UNSET = object()


def _align_up(value: int, align: int) -> int:
    return -(-value // align) * align


def _typecode(buf) -> str:
    """The ``array`` typecode of a typed buffer (``memoryview``s carry
    it as ``format`` instead)."""
    code = getattr(buf, "typecode", None)
    return code if code is not None else buf.format


def _matrix_rows_to_doc(rows) -> list:
    # An ordered list (coldest first, hottest last), not a dict: the
    # sorted-keys JSON dump would otherwise destroy the LRU hotness
    # order that warm_rows captured, and a budgeted matrix would evict
    # by door-id string order instead of coldness after a reload.
    return [
        [source, {
            "dist": {str(did): d for did, d in dist.items()},
            "pred": {str(did): [prev, via]
                     for did, (prev, via) in pred.items()},
        }]
        for source, (dist, pred) in rows.items()
    ]


def _matrix_rows_from_doc(doc: list):
    rows = {}
    for source, row in doc:
        dist = {int(did): d for did, d in row["dist"].items()}
        pred = {int(did): (prev, via)
                for did, (prev, via) in row["pred"].items()}
        rows[int(source)] = (dist, pred)
    return rows


def snapshot_to_dict(engine: IKRQEngine,
                     matrix_rows: Optional[int] = None,
                     prime: Optional[PrimeTable] = None) -> Dict:
    """Serialise an engine and its built indexes to a snapshot document.

    ``matrix_rows`` caps how many warm door-matrix rows are persisted
    (``None`` keeps every resident row; a matrix that was never built
    contributes none).  ``prime`` optionally embeds an advisory prime
    table (see module docstring).
    """
    if engine.kindex is None:
        raise ValueError("serving requires a keyword index")
    matrix = engine._matrix
    doc: Dict = {
        "format": SNAPSHOT_FORMAT,
        "version": SNAPSHOT_VERSION,
        "venue": space_to_dict(engine.space, engine.kindex),
        "graph": engine.graph.csr_arrays(),
        "skeleton": engine.skeleton.export(),
        "door_matrix": {
            "eager": engine.door_matrix_eager,
            "max_rows": engine.door_matrix_max_rows,
            "rows": (_matrix_rows_to_doc(matrix.warm_rows(matrix_rows))
                     if matrix is not None else []),
        },
        "prime": {"entries":
                  prime.export_entries() if prime is not None else []},
        "engine": {
            "door_matrix_eager": engine.door_matrix_eager,
            "door_matrix_max_rows": engine.door_matrix_max_rows,
            "popularity": {str(pid): w
                           for pid, w in sorted(engine.popularity.items())},
        },
    }
    return doc


def is_snapshot_document(doc: Dict) -> bool:
    return isinstance(doc, dict) and doc.get("format") == SNAPSHOT_FORMAT


def engine_from_snapshot(doc: Dict,
                         matrix_spill_path: Optional[str] = None,
                         matrix_max_rows=_UNSET) -> IKRQEngine:
    """Rebuild a ready-to-serve engine without running any index build.

    The CSR buffers, skeleton matrix and warm door-matrix rows are
    adopted as-is (``DoorGraph.csr_builds`` / ``SkeletonIndex.s2s_builds``
    stay untouched — tests assert the cold-start skips the rebuild).
    ``matrix_spill_path`` / ``matrix_max_rows`` mirror
    :func:`load_snapshot`'s memory-tiering overrides.
    """
    if not is_snapshot_document(doc):
        raise ValueError(f"not a {SNAPSHOT_FORMAT} document")
    if doc.get("version") != SNAPSHOT_VERSION:
        raise ValueError(f"unsupported snapshot version {doc.get('version')!r}")
    space, kindex = space_from_dict(doc["venue"])
    if kindex is None:
        raise ValueError("snapshot venue carries no keyword index")
    oracle = DistanceOracle(space)
    graph = DoorGraph.from_csr(space, oracle=oracle, **doc["graph"])
    skeleton = SkeletonIndex.from_precomputed(
        space, doc["skeleton"]["stair_doors"], doc["skeleton"]["s2s"])
    engine_doc = doc.get("engine", {})
    matrix_doc = doc.get("door_matrix", {})
    max_rows = matrix_doc.get("max_rows")
    if matrix_max_rows is not _UNSET:
        max_rows = matrix_max_rows
    matrix: Optional[DoorMatrix] = None
    rows = _matrix_rows_from_doc(matrix_doc.get("rows", []))
    if rows:
        # Warm rows replace the eager prebuild: the matrix starts lazy
        # and adopts the snapshotted rows; anything missing is computed
        # on demand (identically — rows are pure in the graph).
        matrix = DoorMatrix(graph, eager=False, max_rows=max_rows,
                            spill_path=matrix_spill_path)
        matrix.preload_rows(rows)
    popularity = {int(pid): w
                  for pid, w in engine_doc.get("popularity", {}).items()}
    return IKRQEngine(
        space, kindex,
        popularity=popularity,
        door_matrix_eager=engine_doc.get("door_matrix_eager", True),
        door_matrix_max_rows=max_rows,
        door_matrix_spill_path=matrix_spill_path,
        oracle=oracle, graph=graph, skeleton=skeleton, door_matrix=matrix)


def prime_from_snapshot(doc: Dict) -> PrimeTable:
    """The advisory prime table embedded in a snapshot (may be empty)."""
    return PrimeTable.from_entries(doc.get("prime", {}).get("entries", []))


# ----------------------------------------------------------------------
# Binary encoding (version 2)
# ----------------------------------------------------------------------
def _engine_header(engine: IKRQEngine) -> Dict:
    return {
        "door_matrix_eager": engine.door_matrix_eager,
        "door_matrix_max_rows": engine.door_matrix_max_rows,
        "popularity": {str(pid): w
                       for pid, w in sorted(engine.popularity.items())},
    }


def save_snapshot_binary(path: Union[str, Path],
                         engine: IKRQEngine,
                         matrix_rows: Optional[int] = None,
                         prime: Optional[PrimeTable] = None,
                         page_align: Optional[int] = SNAPSHOT_ALIGN) -> None:
    """Write the binary (version 2) encoding of an engine snapshot.

    Same content as :func:`snapshot_to_dict`; see the module docstring
    for the container layout.  By default every typed-array section is
    placed on a ``page_align`` boundary (the v2.1 layout) so the
    payload can be mapped; ``page_align=None`` writes the legacy v2.0
    packed layout (readable, never mappable — kept for the compat
    tests and byte-frugal archival).
    """
    if engine.kindex is None:
        raise ValueError("serving requires a keyword index")
    if page_align is not None and (page_align < 1
                                   or page_align % 8 != 0):
        raise ValueError("page_align must be a positive multiple of 8")
    matrix = engine._matrix
    trees = (matrix.warm_trees(matrix_rows)
             if matrix is not None else OrderedDict())
    stair_doors, s2s = engine.skeleton.export_flat()
    graph = engine.graph
    arrays: "OrderedDict[str, array]" = OrderedDict()
    arrays["graph.door_ids"] = graph._door_ids
    arrays["graph.indptr"] = graph._indptr
    arrays["graph.nbr"] = graph._nbr
    arrays["graph.via"] = graph._via
    arrays["graph.wt"] = graph._wt
    arrays["skeleton.stair_doors"] = array("q", stair_doors)
    arrays["skeleton.s2s"] = s2s
    for i, tree in enumerate(trees.values()):
        arrays[f"row{i}.dist"] = tree.dist
        arrays[f"row{i}.pred"] = tree.pred
        arrays[f"row{i}.pred_via"] = tree.pred_via
    header = {
        "format": SNAPSHOT_FORMAT,
        "version": SNAPSHOT_VERSION_BINARY,
        "byteorder": "little",
        "venue": space_to_dict(engine.space, engine.kindex),
        "door_matrix": {
            "eager": engine.door_matrix_eager,
            "max_rows": engine.door_matrix_max_rows,
            "row_sources": list(trees),
        },
        "prime": {"entries":
                  prime.export_entries() if prime is not None else []},
        "engine": _engine_header(engine),
    }
    if page_align is None:
        header["arrays"] = [[name, _typecode(arr), len(arr)]
                            for name, arr in arrays.items()]
    else:
        # Section offsets are relative to the payload base (the first
        # aligned byte past the header), so they depend only on the
        # section sizes — never on the header length they are part of.
        header["align"] = page_align
        entries = []
        offset = 0
        for name, arr in arrays.items():
            entries.append([name, _typecode(arr), len(arr), offset])
            offset = _align_up(offset + arr.itemsize * len(arr),
                               page_align)
        header["arrays"] = entries
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(BINARY_MAGIC)
        fh.write(struct.pack("<II", SNAPSHOT_VERSION_BINARY, len(blob)))
        fh.write(blob)
        if page_align is not None:
            payload_base = _align_up(fh.tell(), page_align)
        for entry, arr in zip(header["arrays"], arrays.values()):
            if page_align is not None:
                fh.write(b"\0" * (payload_base + entry[3] - fh.tell()))
            if sys.byteorder == "big":  # pragma: no cover - exotic hosts
                arr = array(_typecode(arr), arr)
                arr.byteswap()
            fh.write(arr.tobytes())


def is_binary_snapshot(path: Union[str, Path]) -> bool:
    """Whether ``path`` starts with the binary snapshot magic."""
    try:
        with open(path, "rb") as fh:
            return fh.read(len(BINARY_MAGIC)) == BINARY_MAGIC
    except OSError:
        return False


def _read_binary(path: Union[str, Path],
                 use_mmap: bool = False,
                 ) -> Tuple[Dict, "OrderedDict[str, array]", Optional[Dict]]:
    """Read a binary snapshot's header and typed-array sections.

    Returns ``(header, arrays, mapped)``.  ``mapped`` is ``None`` for
    an eager read; with ``use_mmap=True`` on an aligned (v2.1) file on
    a little-endian host it is ``{"mmap", "bytes", "path"}`` and every
    section in ``arrays`` is a read-only ``memoryview`` slice of the
    shared mapping (the views keep the mapping alive).  Files whose
    layout cannot be mapped — v2.0 packed, or a big-endian host —
    fall back to the eager read.
    """
    with open(path, "rb") as fh:
        magic = fh.read(len(BINARY_MAGIC))
        if magic != BINARY_MAGIC:
            raise ValueError(f"{path} is not a binary {SNAPSHOT_FORMAT} file")
        version, header_len = struct.unpack("<II", fh.read(8))
        if version != SNAPSHOT_VERSION_BINARY:
            raise ValueError(
                f"unsupported binary snapshot version {version!r}")
        blob = fh.read(header_len)
        if len(blob) != header_len:
            raise ValueError(f"truncated binary snapshot: {path} (header)")
        header = json.loads(blob.decode("utf-8"))
        align = header.get("align")
        payload_base = (_align_up(len(BINARY_MAGIC) + 8 + header_len, align)
                        if align else None)
        arrays: "OrderedDict[str, array]" = OrderedDict()
        if use_mmap and align and sys.byteorder == "little":
            mm = _mmap.mmap(fh.fileno(), 0, access=_mmap.ACCESS_READ)
            view = memoryview(mm)
            mapped_bytes = 0
            for name, typecode, count, offset in header["arrays"]:
                itemsize = array(typecode).itemsize
                start = payload_base + offset
                end = start + count * itemsize
                if end > len(mm):
                    raise ValueError(f"truncated binary snapshot: {name}")
                arrays[name] = view[start:end].cast(typecode)
                mapped_bytes += count * itemsize
            return header, arrays, {"mmap": mm, "bytes": mapped_bytes,
                                    "path": str(path)}
        for entry in header["arrays"]:
            name, typecode, count = entry[0], entry[1], entry[2]
            arr = array(typecode)
            if payload_base is not None:
                fh.seek(payload_base + entry[3])
            payload = fh.read(count * arr.itemsize)
            if len(payload) != count * arr.itemsize:
                raise ValueError(f"truncated binary snapshot: {name}")
            arr.frombytes(payload)
            if sys.byteorder == "big":  # pragma: no cover - exotic hosts
                arr.byteswap()
            arrays[name] = arr
    return header, arrays, None


def _engine_from_packed(header: Dict,
                        arrays: "OrderedDict[str, array]",
                        mapped: Optional[Dict] = None,
                        matrix_spill_path: Optional[str] = None,
                        matrix_max_rows=_UNSET) -> IKRQEngine:
    """Adopt packed buffers as the runtime structures — no conversion.

    The CSR arrays, the flat δs2s table and the dense matrix rows feed
    :meth:`DoorGraph.from_csr`, :meth:`SkeletonIndex.from_precomputed_flat`
    and :class:`FlatTree` directly, which is what makes binary
    cold-start one memcpy per buffer — or, when ``arrays`` holds
    ``memoryview`` slices of an ``mmap`` (``mapped`` is set), zero
    copies at all: the runtime structures index the shared mapping.
    """
    space, kindex = space_from_dict(header["venue"])
    if kindex is None:
        raise ValueError("snapshot venue carries no keyword index")
    oracle = DistanceOracle(space)
    graph = DoorGraph.from_csr(
        space,
        arrays["graph.door_ids"], arrays["graph.indptr"],
        arrays["graph.nbr"], arrays["graph.via"], arrays["graph.wt"],
        oracle=oracle)
    skeleton = SkeletonIndex.from_precomputed_flat(
        space, list(arrays["skeleton.stair_doors"]),
        arrays["skeleton.s2s"])
    matrix_doc = header.get("door_matrix", {})
    max_rows = matrix_doc.get("max_rows")
    if matrix_max_rows is not _UNSET:
        max_rows = matrix_max_rows
    sources = matrix_doc.get("row_sources", [])
    matrix: Optional[DoorMatrix] = None
    if sources:
        trees: "OrderedDict[int, FlatTree]" = OrderedDict()
        for i, source in enumerate(sources):
            # ``touched`` is derived lazily inside FlatTree — scanning
            # every row's dist buffer here would fault the whole
            # mapping in at load time for nothing.
            trees[int(source)] = FlatTree(
                graph._door_ids, graph._door_index, arrays[f"row{i}.dist"],
                arrays[f"row{i}.pred"], arrays[f"row{i}.pred_via"])
        matrix = DoorMatrix(graph, eager=False, max_rows=max_rows,
                            spill_path=matrix_spill_path)
        matrix.preload_trees(trees)
    engine_doc = header.get("engine", {})
    popularity = {int(pid): w
                  for pid, w in engine_doc.get("popularity", {}).items()}
    engine = IKRQEngine(
        space, kindex,
        popularity=popularity,
        door_matrix_eager=engine_doc.get("door_matrix_eager", True),
        door_matrix_max_rows=max_rows,
        door_matrix_spill_path=matrix_spill_path,
        oracle=oracle, graph=graph, skeleton=skeleton, door_matrix=matrix)
    if mapped is not None:
        engine.mapped_bytes = mapped["bytes"]
        engine._snapshot_mmap = mapped["mmap"]
    return engine


def _packed_to_doc(header: Dict,
                   arrays: "OrderedDict[str, array]") -> Dict:
    """Normalise a binary snapshot to the version-1 document shape.

    Exists so :func:`read_snapshot` (inspection, tests, tooling) hands
    out one document shape regardless of the on-disk encoding; the
    result is a valid version-1 document equal to what
    :func:`snapshot_to_dict` produced at save time.
    """
    ids = arrays["graph.door_ids"]
    n = len(ids)
    matrix_doc = header.get("door_matrix", {})
    rows_doc: List = []
    for i, source in enumerate(matrix_doc.get("row_sources", [])):
        dist = arrays[f"row{i}.dist"]
        pred = arrays[f"row{i}.pred"]
        pred_via = arrays[f"row{i}.pred_via"]
        dist_doc = {str(ids[idx]): dist[idx]
                    for idx in range(n) if dist[idx] != INF}
        pred_doc = {}
        for idx in range(n):
            prev = pred[idx]
            if prev == _ROOT:
                continue
            pred_doc[str(ids[idx])] = [
                None if prev == _POINT else ids[prev], pred_via[idx]]
        rows_doc.append([int(source),
                         {"dist": dist_doc, "pred": pred_doc}])
    stair_doors = list(arrays["skeleton.stair_doors"])
    m = len(stair_doors)
    s2s = arrays["skeleton.s2s"]
    return {
        "format": SNAPSHOT_FORMAT,
        "version": SNAPSHOT_VERSION,
        "venue": header["venue"],
        "graph": {
            "door_ids": list(ids),
            "indptr": list(arrays["graph.indptr"]),
            "nbr": list(arrays["graph.nbr"]),
            "via": list(arrays["graph.via"]),
            "wt": list(arrays["graph.wt"]),
        },
        "skeleton": {
            "stair_doors": stair_doors,
            "s2s": [[None if s2s[i * m + j] == INF else s2s[i * m + j]
                     for j in range(m)] for i in range(m)],
        },
        "door_matrix": {
            "eager": matrix_doc.get("eager"),
            "max_rows": matrix_doc.get("max_rows"),
            "rows": rows_doc,
        },
        "prime": header.get("prime", {"entries": []}),
        "engine": header.get("engine", {}),
    }


# ----------------------------------------------------------------------
# File entry points (both encodings)
# ----------------------------------------------------------------------
def save_snapshot(path: Union[str, Path],
                  engine: IKRQEngine,
                  matrix_rows: Optional[int] = None,
                  prime: Optional[PrimeTable] = None,
                  binary: bool = False,
                  page_align: Optional[int] = SNAPSHOT_ALIGN) -> None:
    """Write an engine snapshot (JSON v1, or binary v2 when ``binary``)."""
    if binary:
        save_snapshot_binary(path, engine, matrix_rows=matrix_rows,
                             prime=prime, page_align=page_align)
        return
    doc = snapshot_to_dict(engine, matrix_rows=matrix_rows, prime=prime)
    Path(path).write_text(json.dumps(doc, sort_keys=True))


def read_snapshot(path: Union[str, Path]) -> Dict:
    """Read a snapshot document (no engine construction).

    Binary (v2) files are normalised to the version-1 document shape —
    see :func:`_packed_to_doc` — so callers always receive one shape.
    """
    if is_binary_snapshot(path):
        header, arrays, _ = _read_binary(path)
        return _packed_to_doc(header, arrays)
    doc = json.loads(Path(path).read_text())
    if not is_snapshot_document(doc):
        raise ValueError(f"{path} is not a {SNAPSHOT_FORMAT} file")
    return doc


def load_snapshot(path: Union[str, Path],
                  mmap: bool = False,
                  matrix_spill_path: Optional[str] = None,
                  matrix_max_rows=_UNSET) -> IKRQEngine:
    """Load a snapshot file (either encoding) into a ready-to-serve
    engine without running any index build.

    Memory tiering knobs (all optional; defaults keep the historical
    behaviour):

    * ``mmap=True`` — back the typed-array buffers with a shared
      read-only mapping of the file instead of heap copies (aligned
      v2.1 binary files on little-endian hosts; anything else falls
      back to an eager load).  ``engine.mapped_bytes`` reports how
      many payload bytes are mapped (0 after a fallback); answers are
      bit-identical either way.
    * ``matrix_spill_path`` — give the KoE* door matrix a disk spill
      tier at this path (see :class:`~repro.space.rowcache.RowCacheFile`).
    * ``matrix_max_rows`` — override the snapshot's resident-row
      budget (``None`` lifts it) without re-baking the file.
    """
    if is_binary_snapshot(path):
        header, arrays, mapped = _read_binary(path, use_mmap=mmap)
        return _engine_from_packed(header, arrays, mapped=mapped,
                                   matrix_spill_path=matrix_spill_path,
                                   matrix_max_rows=matrix_max_rows)
    return engine_from_snapshot(read_snapshot(path),
                                matrix_spill_path=matrix_spill_path,
                                matrix_max_rows=matrix_max_rows)


def warm_mapped(engine: IKRQEngine) -> int:
    """Prefetch an ``mmap``-backed engine's snapshot pages.

    The post-hot-swap warm pass: advise the kernel the mapping will be
    needed (``MADV_WILLNEED``) and touch it sequentially at page
    stride, so first-touch page-in cost lands here — right after a
    load or generation swap — instead of on the first requests.  A
    no-op (returns 0) for heap-backed engines; otherwise returns the
    number of bytes touched.
    """
    mapping = engine._snapshot_mmap
    if mapping is None:
        return 0
    import mmap as _mmap
    try:  # pragma: no cover - madvise may be absent on exotic hosts
        mapping.madvise(_mmap.MADV_WILLNEED)
    except (AttributeError, OSError, ValueError):
        pass
    size = len(mapping)
    for offset in range(0, size, 4096):
        mapping[offset]
    if size:
        mapping[size - 1]
    return size
