"""Door-to-door routing graph with shortest (regular) route search.

The door graph is the standard routing substrate over the indoor-space
model: nodes are doors, and there is a directed edge ``di -> dj``
whenever one can enter a partition through ``di`` and leave it through
``dj`` (paper Section II-A).  Edge weights are the intra-partition
Euclidean door-to-door distances.

The adjacency is stored in CSR form — parallel flat buffers of
neighbour indices, via-partition ids and weights over interned
(densely renumbered) door ids — and every shortest-path entry point is
a thin parameterisation of **one** Dijkstra inner loop
(:meth:`DoorGraph._run_dijkstra`), differing only in its seed edges:

* single source (ordinary Dijkstra with optional *banned door* sets,
  which is how the search algorithms obtain shortest **regular**
  continuations),
* first-hop restricted (the first move must leave a given partition,
  used by the keyword-oriented expansion),
* point-attached (``ps`` / ``pt`` virtual nodes seeded through the
  leaveable doors of the host partition).

Scratch state lives in a reusable, epoch-versioned
:class:`DijkstraWorkspace`, so repeated calls — within one query and
across a whole query batch — allocate nothing in the inner loop.
Route reconstruction is one shared predecessor walk
(:func:`reconstruct_route`) used by every dict-based caller; the flat
result structures walk their dense predecessor arrays directly.

Results that outlive a workspace — the all-pairs rows of
:class:`DoorMatrix` and the per-endpoint attachment trees the batched
``QueryService`` caches — are frozen into :class:`FlatTree` objects:
three flat typed arrays (``dist``/``pred``/``pred_via``) over dense
door indices instead of two Python dicts, cutting both the per-row
memory and the per-lookup cost.  :class:`FlatDistMap` /
:class:`FlatPredMap` adapt a tree to the read-only mapping interface
dict-based callers consume, so the migration changes no behaviour.
"""

from __future__ import annotations

import heapq
import math
import threading
from array import array
from collections import OrderedDict
from typing import (Dict, FrozenSet, Iterable, List, Mapping, Optional,
                    Sequence, Set, Tuple)

from repro.geometry import Point
from repro.space.distances import DistanceOracle
from repro.space.indoor_space import IndoorSpace

INF = math.inf

#: An adjacency entry: (neighbour door id, via partition id, weight).
Edge = Tuple[int, int, float]

#: Predecessor sentinel (dense index space): the tree root.
_ROOT = -1
#: Predecessor sentinel: a point-attachment seed (``prev`` is ``None``).
_POINT = -2


def _adopt_buffer(typecode: str, data):
    """``data`` as a typed buffer, without copying when already one.

    ``array`` objects and ``memoryview``s (mapped snapshot sections)
    pass through untouched; anything else — JSON lists, generators —
    is packed into a fresh ``array(typecode)``.
    """
    if isinstance(data, (array, memoryview)):
        return data
    return array(typecode, data)


def buffer_nbytes(buf) -> int:
    """Byte size of a typed buffer (``array`` or ``memoryview``)."""
    return buf.itemsize * len(buf)


def reconstruct_route(pred: Mapping[int, Tuple[Optional[int], int]],
                      source: Optional[int],
                      target: int) -> Tuple[List[int], List[int]]:
    """Walk a predecessor mapping back from ``target`` to ``source``.

    ``pred[d]`` is ``(previous door, via partition)``; the walk stops
    when the previous door equals ``source`` (``None`` for
    point-attached trees, whose first entry carries ``prev=None``).
    Returns ``(doors, vias)`` where ``doors`` starts with the first
    door *after* ``source`` and ends with ``target`` and ``vias[i]``
    is the partition traversed to reach ``doors[i]``.
    """
    doors: List[int] = []
    vias: List[int] = []
    node: Optional[int] = target
    while node != source:
        prev, via = pred[node]
        doors.append(node)
        vias.append(via)
        node = prev
    doors.reverse()
    vias.reverse()
    return doors, vias


class DijkstraWorkspace:
    """Reusable scratch state for one CSR Dijkstra run at a time.

    All per-node state is epoch-versioned: ``begin`` bumps the epoch
    instead of clearing the flat arrays, so a workspace can be reused
    for an unbounded number of runs with zero per-run allocation.  A
    workspace belongs to exactly one thread at a time — concurrent
    query evaluation uses one workspace per worker thread (see
    ``QueryService``).
    """

    __slots__ = ("dist", "pred", "pred_via", "visit", "settled", "banned",
                 "target", "epoch", "heap", "touched", "kernel_scratch")

    def __init__(self, num_nodes: int) -> None:
        self.dist = array("d", [0.0] * num_nodes)
        self.pred = array("q", [_ROOT] * num_nodes)
        self.pred_via = array("q", [-1] * num_nodes)
        self.visit = array("q", [0] * num_nodes)
        self.settled = array("q", [0] * num_nodes)
        self.banned = array("q", [0] * num_nodes)
        self.target = array("q", [0] * num_nodes)
        self.epoch = 0
        self.heap: List[Tuple[float, int]] = []
        self.touched: List[int] = []
        #: The C Dijkstra's heap/touched buffers; lazily attached by
        #: :mod:`repro.space.kernels`, never read here.
        self.kernel_scratch = None

    def begin(self) -> int:
        """Start a new run: bump the epoch and reset the hot lists."""
        self.epoch += 1
        self.heap.clear()
        self.touched.clear()
        return self.epoch


class FlatTree:
    """A frozen shortest-path tree in flat typed arrays.

    The immutable counterpart of a :class:`DijkstraWorkspace` run:
    ``dist[i]`` is the distance of dense door index ``i`` (``inf`` when
    unreached), ``pred[i]`` / ``pred_via[i]`` encode the predecessor
    edge (:data:`_ROOT` for the tree root / unreached, :data:`_POINT`
    for a point-attachment seed).  ``touched`` lists the reached dense
    indices.  Three ``array`` buffers replace the two dicts the old
    dict-of-dict rows kept per source — roughly 24 bytes per door
    instead of ~160 per reached entry — and lookups become plain array
    indexing.

    The three buffers may equally be read-only ``memoryview`` slices of
    an ``mmap``-ed snapshot payload — every consumer only indexes,
    iterates and ``len()``s them — which is how snapshot-mapped matrix
    rows share one page-cache copy across shard processes.  ``touched``
    may be ``None``: it is derived lazily from ``dist`` (ascending
    dense index order) on first use, so the serving hot path
    (:meth:`distance` / :meth:`route_to`) never materialises it.
    """

    __slots__ = ("door_ids", "door_index", "dist", "pred", "pred_via",
                 "_touched")

    #: Process-wide count of lazily derived ``touched`` lists.  A
    #: :class:`DoorMatrix` compares it with the value it last saw to
    #: know when a resident row may have grown (see
    #: :meth:`DoorMatrix.estimated_bytes`).
    touched_derivations = 0

    def __init__(self,
                 door_ids: array,
                 door_index: Dict[int, int],
                 dist: array,
                 pred: array,
                 pred_via: array,
                 touched: Optional[array] = None) -> None:
        self.door_ids = door_ids
        self.door_index = door_index
        self.dist = dist
        self.pred = pred
        self.pred_via = pred_via
        self._touched = touched

    @property
    def touched(self) -> array:
        """Reached dense indices; derived from ``dist`` when absent.

        Trees frozen from a workspace keep the run's visit order;
        derived lists are ascending.  Nothing that consumes ``touched``
        is order-sensitive (dict exports compare equal either way).
        """
        t = self._touched
        if t is None:
            dist = self.dist
            t = array("q", (idx for idx in range(len(dist))
                            if dist[idx] != INF))
            self._touched = t
            FlatTree.touched_derivations += 1
        return t

    @classmethod
    def from_workspace(cls, ws: DijkstraWorkspace,
                       graph: "DoorGraph") -> "FlatTree":
        """Freeze the current run of ``ws`` into an immutable tree."""
        n = len(graph._door_ids)
        touched = array("q", ws.touched)
        if len(touched) == n:
            # The run reached every door (``touched`` never repeats an
            # index), so every slot of the workspace arrays holds this
            # run's value: three slice copies equal the per-index loop.
            return cls(graph._door_ids, graph._door_index, ws.dist[:n],
                       ws.pred[:n], ws.pred_via[:n], touched)
        dist = array("d", [INF]) * n
        pred = array("q", [_ROOT]) * n
        pred_via = array("q", [-1]) * n
        ws_dist = ws.dist
        ws_pred = ws.pred
        ws_via = ws.pred_via
        for idx in touched:
            dist[idx] = ws_dist[idx]
            pred[idx] = ws_pred[idx]
            pred_via[idx] = ws_via[idx]
        return cls(graph._door_ids, graph._door_index,
                   dist, pred, pred_via, touched)

    @classmethod
    def from_dicts(cls,
                   graph: "DoorGraph",
                   dist_map: Mapping,
                   pred_map: Mapping) -> "FlatTree":
        """Adopt a dict-encoded ``(dist, pred)`` pair (snapshot v1)."""
        n = len(graph._door_ids)
        index = graph._door_index
        dist = array("d", [INF]) * n
        pred = array("q", [_ROOT]) * n
        pred_via = array("q", [-1]) * n
        touched = array("q")
        for did, d in dist_map.items():
            idx = index[did]
            dist[idx] = d
            touched.append(idx)
        for did, (prev, via) in pred_map.items():
            idx = index[did]
            pred[idx] = _POINT if prev is None else index[prev]
            pred_via[idx] = via
        return cls(graph._door_ids, graph._door_index,
                   dist, pred, pred_via, touched)

    # ------------------------------------------------------------------
    def distance(self, did: int) -> float:
        """Distance to door ``did`` (``inf`` when unreached/unknown)."""
        idx = self.door_index.get(did)
        if idx is None:
            return INF
        return self.dist[idx]

    def route_to(self, target: int) -> Optional[Tuple[List[int], List[int], float]]:
        """``(doors, vias, distance)`` to ``target`` by direct array walk.

        Matches :func:`reconstruct_route` over the dict views exactly;
        ``None`` when the target is unreached.
        """
        idx = self.door_index.get(target)
        if idx is None:
            return None
        dist = self.dist[idx]
        if dist == INF:
            return None
        ids = self.door_ids
        pred = self.pred
        pred_via = self.pred_via
        doors: List[int] = []
        vias: List[int] = []
        node = idx
        while True:
            prev = pred[node]
            if prev == _ROOT:
                break
            doors.append(ids[node])
            vias.append(pred_via[node])
            if prev == _POINT:
                break
            node = prev
        doors.reverse()
        vias.reverse()
        return doors, vias, dist

    def dist_map(self) -> "FlatDistMap":
        return FlatDistMap(self)

    def pred_map(self) -> "FlatPredMap":
        return FlatPredMap(self)

    def dist_dict(self) -> Dict[int, float]:
        """The reached distances as a plain dict (snapshot v1 export)."""
        ids = self.door_ids
        dist = self.dist
        return {ids[idx]: dist[idx] for idx in self.touched}

    def pred_dict(self) -> Dict[int, Tuple[Optional[int], int]]:
        """The predecessor edges as a plain dict (snapshot v1 export)."""
        ids = self.door_ids
        pred = self.pred
        pred_via = self.pred_via
        out: Dict[int, Tuple[Optional[int], int]] = {}
        for idx in self.touched:
            prev = pred[idx]
            if prev == _ROOT:
                continue
            out[ids[idx]] = ((None, pred_via[idx]) if prev == _POINT
                             else (ids[prev], pred_via[idx]))
        return out

    def is_mapped(self) -> bool:
        """Whether the buffers are ``mmap``-backed views (shared pages,
        not per-process heap)."""
        return isinstance(self.dist, memoryview)

    def buffer_bytes(self) -> int:
        """Bytes of ``dist`` / ``pred`` / ``pred_via`` (fixed for life)."""
        return (buffer_nbytes(self.dist) + buffer_nbytes(self.pred)
                + buffer_nbytes(self.pred_via))

    def estimated_bytes(self) -> int:
        # A lazily-derived ``touched`` that was never materialised
        # costs nothing; do not force it just to measure.
        t = self._touched
        return self.buffer_bytes() + (buffer_nbytes(t) if t is not None
                                      else 0)


class FlatDistMap(Mapping):
    """Read-only ``door id -> distance`` mapping over a :class:`FlatTree`.

    Drop-in for the dicts :meth:`DoorGraph.point_attachment_map` used
    to return: ``get`` / ``[]`` / ``in`` / iteration cover exactly the
    reached doors.
    """

    __slots__ = ("_tree",)

    def __init__(self, tree: FlatTree) -> None:
        self._tree = tree

    def __getitem__(self, did: int) -> float:
        tree = self._tree
        idx = tree.door_index.get(did)
        if idx is None:
            raise KeyError(did)
        d = tree.dist[idx]
        if d == INF:
            raise KeyError(did)
        return d

    def __iter__(self):
        tree = self._tree
        ids = tree.door_ids
        for idx in tree.touched:
            yield ids[idx]

    def __len__(self) -> int:
        return len(self._tree.touched)


class FlatPredMap(Mapping):
    """Read-only ``door id -> (prev door, via)`` view of a :class:`FlatTree`.

    Consumed by :func:`reconstruct_route` and the batched service's
    cached start maps; entries exist for every reached non-root door,
    with ``prev=None`` at point-attachment seeds.
    """

    __slots__ = ("_tree",)

    def __init__(self, tree: FlatTree) -> None:
        self._tree = tree

    def __getitem__(self, did: int) -> Tuple[Optional[int], int]:
        tree = self._tree
        idx = tree.door_index.get(did)
        if idx is None:
            raise KeyError(did)
        prev = tree.pred[idx]
        if prev == _ROOT:
            raise KeyError(did)
        if prev == _POINT:
            return None, tree.pred_via[idx]
        return tree.door_ids[prev], tree.pred_via[idx]

    def __iter__(self):
        tree = self._tree
        ids = tree.door_ids
        pred = tree.pred
        for idx in tree.touched:
            if pred[idx] != _ROOT:
                yield ids[idx]

    def __len__(self) -> int:
        pred = self._tree.pred
        return sum(1 for idx in self._tree.touched if pred[idx] != _ROOT)


class DoorGraph:
    """Directed door-to-door graph over an :class:`IndoorSpace`.

    The CSR adjacency is materialised once at construction; all
    shortest-path queries run over it.  Self-loop edges (the ``(d, d)``
    re-entry move) are *not* part of the graph — they are an explicit
    search move handled by the IKRQ algorithms, never useful on a pure
    shortest path.
    """

    #: Process-wide count of CSR constructions (adjacency scans).  A
    #: worker that loads a serve snapshot must *not* bump this — the
    #: serve tests assert cold-start skips the rebuild.
    csr_builds = 0

    def __init__(self, space: IndoorSpace, oracle: Optional[DistanceOracle] = None) -> None:
        self._space = space
        self._oracle = oracle or DistanceOracle(space)
        #: Door-id interning: dense index -> door id, ascending by door
        #: id so heap ordering (and therefore equal-distance
        #: tie-breaking) matches the id order of the dict-based
        #: predecessor trees this structure replaced.
        self._door_ids = array("q", sorted(space.doors))
        self._door_index: Dict[int, int] = {
            did: idx for idx, did in enumerate(self._door_ids)}
        self._build_csr()
        self._workspace_tls = threading.local()
        self._sssp = None

    @classmethod
    def from_csr(cls,
                 space: IndoorSpace,
                 door_ids: Sequence[int],
                 indptr: Sequence[int],
                 nbr: Sequence[int],
                 via: Sequence[int],
                 wt: Sequence[float],
                 oracle: Optional[DistanceOracle] = None) -> "DoorGraph":
        """Rebuild a graph from previously exported CSR buffers.

        The buffers must come from :meth:`csr_arrays` of a graph over
        an identical space; no adjacency scan runs (``csr_builds`` is
        not incremented), which is what makes snapshot-loaded serve
        workers cold-start without paying the build again.

        Typed buffers (``array`` objects or ``memoryview`` slices of a
        mapped snapshot payload) are adopted as-is — the graph never
        mutates them — so an ``mmap``-backed load keeps sharing the
        page-cache copy instead of duplicating it onto the heap.
        Plain sequences (JSON lists) are converted.
        """
        graph = cls.__new__(cls)
        graph._space = space
        graph._oracle = oracle or DistanceOracle(space)
        graph._door_ids = _adopt_buffer("q", door_ids)
        graph._door_index = {did: idx
                             for idx, did in enumerate(graph._door_ids)}
        graph._indptr = _adopt_buffer("q", indptr)
        graph._nbr = _adopt_buffer("q", nbr)
        graph._via = _adopt_buffer("q", via)
        graph._wt = _adopt_buffer("d", wt)
        graph._workspace_tls = threading.local()
        graph._sssp = None
        return graph

    def csr_arrays(self) -> Dict[str, list]:
        """The interned CSR buffers as JSON-serialisable lists."""
        return {
            "door_ids": list(self._door_ids),
            "indptr": list(self._indptr),
            "nbr": list(self._nbr),
            "via": list(self._via),
            "wt": list(self._wt),
        }

    def _build_csr(self) -> None:
        DoorGraph.csr_builds += 1
        space = self._space
        index = self._door_index
        per_node: List[List[Tuple[int, int, float]]] = [
            [] for _ in self._door_ids]
        for pid in space.partitions:
            enterable = space.p2d_enter(pid)
            leaveable = space.p2d_leave(pid)
            for di in enterable:
                pos_i = space.door(di).position
                row = per_node[index[di]]
                for dj in leaveable:
                    if di == dj:
                        continue
                    row.append((index[dj], pid,
                                pos_i.distance_to(space.door(dj).position)))
        indptr = array("q", [0] * (len(per_node) + 1))
        nbr = array("q")
        via = array("q")
        wt = array("d")
        for idx, row in enumerate(per_node):
            for j, pid, weight in row:
                nbr.append(j)
                via.append(pid)
                wt.append(weight)
            indptr[idx + 1] = len(nbr)
        self._indptr = indptr
        self._nbr = nbr
        self._via = via
        self._wt = wt

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def space(self) -> IndoorSpace:
        return self._space

    @property
    def oracle(self) -> DistanceOracle:
        return self._oracle

    @property
    def num_nodes(self) -> int:
        return len(self._door_ids)

    def neighbours(self, did: int) -> Sequence[Edge]:
        """Outgoing edges of door ``did`` as ``(door, via, weight)``."""
        idx = self._door_index[did]
        ids = self._door_ids
        return [(ids[self._nbr[k]], self._via[k], self._wt[k])
                for k in range(self._indptr[idx], self._indptr[idx + 1])]

    def num_edges(self) -> int:
        return len(self._nbr)

    # ------------------------------------------------------------------
    # Kernel tier
    # ------------------------------------------------------------------
    def set_kernel(self, sssp) -> None:
        """Attach the compiled Dijkstra, or detach it with ``None``.

        ``sssp`` is :func:`repro.space.kernels.native_sssp`'s callable;
        engines attach it when it builds.  Detached, the interpreted
        loop runs.  Both are bit-identical, so attaching or detaching
        never changes a single answer byte.
        """
        self._sssp = sssp

    @property
    def kernel_name(self) -> str:
        """``native`` with the C Dijkstra attached, else ``python``."""
        return "python" if self._sssp is None else "native"

    # ------------------------------------------------------------------
    # Workspaces
    # ------------------------------------------------------------------
    def new_workspace(self) -> DijkstraWorkspace:
        """A fresh workspace sized for this graph (one per thread)."""
        return DijkstraWorkspace(len(self._door_ids))

    @property
    def workspace(self) -> DijkstraWorkspace:
        """The graph-owned default workspace of the calling thread.

        Thread-local so that bare concurrent ``engine.search`` calls
        (without a ``QueryService``) never share scratch state.
        """
        ws = getattr(self._workspace_tls, "workspace", None)
        if ws is None:
            ws = self.new_workspace()
            self._workspace_tls.workspace = ws
        return ws

    # ------------------------------------------------------------------
    # The unified Dijkstra core
    # ------------------------------------------------------------------
    def _run_dijkstra(self,
                      ws: DijkstraWorkspace,
                      seeds: Iterable[Tuple[float, int, int, int]],
                      banned: Iterable[int],
                      targets: Optional[Iterable[int]],
                      bound: float,
                      forbid: int = -1,
                      banned_partitions: Optional[FrozenSet[int]] = None,
                      ) -> None:
        """The one Dijkstra inner loop, parameterised by seed edges.

        Args:
            ws: Workspace receiving the run's distance/predecessor
                state (valid until its next ``begin``).
            seeds: ``(weight, node, pred, via)`` seed relaxations in
                dense-index space; ``pred`` is :data:`_ROOT` for the
                tree root and :data:`_POINT` for point attachments.
            banned: Door *ids* that may not be visited.
            targets: Dense indices to settle before stopping early
                (``None`` searches exhaustively within ``bound``).
            bound: Distances beyond this value are not explored.
            forbid: Dense index never to relax (the first-hop-restricted
                searches must not return to their source), ``-1`` none.
            banned_partitions: Partition ids no edge may traverse
                (edges whose ``via`` is in the set are skipped).
        """
        if self._sssp is not None:
            self._sssp(self, ws, seeds, banned, banned_partitions,
                       targets, bound, forbid)
            return
        bp = banned_partitions if banned_partitions else None
        epoch = ws.begin()
        dist = ws.dist
        pred = ws.pred
        pred_via = ws.pred_via
        visit = ws.visit
        settled = ws.settled
        banned_mark = ws.banned
        target_mark = ws.target
        door_index = self._door_index
        for did in banned:
            idx = door_index.get(did)
            if idx is not None:
                banned_mark[idx] = epoch
        remaining = -1
        if targets is not None:
            remaining = 0
            for idx in targets:
                if target_mark[idx] != epoch:
                    target_mark[idx] = epoch
                    remaining += 1
            if remaining == 0:
                return
        heap = ws.heap
        touched = ws.touched
        push = heapq.heappush
        for weight, node, prev, via in seeds:
            if weight > bound or banned_mark[node] == epoch or node == forbid:
                continue
            if bp is not None and via in bp:
                continue
            if visit[node] != epoch:
                visit[node] = epoch
                touched.append(node)
            elif weight >= dist[node]:
                continue
            dist[node] = weight
            pred[node] = prev
            pred_via[node] = via
            push(heap, (weight, node))
        indptr = self._indptr
        nbr = self._nbr
        vias = self._via
        wts = self._wt
        pop = heapq.heappop
        while heap:
            d, u = pop(heap)
            if settled[u] == epoch:
                continue
            settled[u] = epoch
            if remaining >= 0 and target_mark[u] == epoch:
                remaining -= 1
                if remaining == 0:
                    break
            for k in range(indptr[u], indptr[u + 1]):
                v = nbr[k]
                if banned_mark[v] == epoch or settled[v] == epoch or v == forbid:
                    continue
                if bp is not None and vias[k] in bp:
                    continue
                nd = d + wts[k]
                if nd > bound:
                    continue
                if visit[v] != epoch:
                    visit[v] = epoch
                    touched.append(v)
                elif nd >= dist[v]:
                    continue
                dist[v] = nd
                pred[v] = u
                pred_via[v] = vias[k]
                push(heap, (nd, v))

    # ------------------------------------------------------------------
    # Seed builders
    # ------------------------------------------------------------------
    def _first_hop_seeds(self,
                         source: int,
                         first_via: int) -> List[Tuple[float, int, int, int]]:
        """Seed edges leaving ``first_via`` from door ``source``."""
        space = self._space
        index = self._door_index
        src_idx = index[source]
        src_pos = space.door(source).position
        return [(src_pos.distance_to(space.door(dj).position),
                 index[dj], src_idx, first_via)
                for dj in space.p2d_leave(first_via)]

    def _point_seeds(self,
                     p: Point,
                     host_pid: int) -> List[Tuple[float, int, int, int]]:
        """Seed edges attaching point ``p`` through its host partition."""
        space = self._space
        index = self._door_index
        return [(p.distance_to(space.door(dj).position),
                 index[dj], _POINT, host_pid)
                for dj in space.p2d_leave(host_pid)]

    # ------------------------------------------------------------------
    # Result extraction
    # ------------------------------------------------------------------
    def _dist_dict(self, ws: DijkstraWorkspace) -> Dict[int, float]:
        ids = self._door_ids
        dist = ws.dist
        return {ids[idx]: dist[idx] for idx in ws.touched}

    def _pred_dict(self, ws: DijkstraWorkspace) -> Dict[int, Tuple[Optional[int], int]]:
        ids = self._door_ids
        pred = ws.pred
        pred_via = ws.pred_via
        out: Dict[int, Tuple[Optional[int], int]] = {}
        for idx in ws.touched:
            prev = pred[idx]
            if prev == _ROOT:
                continue
            out[ids[idx]] = ((None, pred_via[idx]) if prev == _POINT
                             else (ids[prev], pred_via[idx]))
        return out

    def _routes_to(self,
                   ws: DijkstraWorkspace,
                   source: Optional[int],
                   targets: Iterable[int],
                   bound: float) -> Dict[int, Tuple[List[int], List[int], float]]:
        """Reconstructed routes to every reachable target (door ids).

        The predecessor walk runs directly over the workspace's dense
        arrays — no mapping protocol, no per-step door-id lookups —
        because this sits under every expansion of the search loop.
        """
        index = self._door_index
        ids = self._door_ids
        epoch = ws.epoch
        visit = ws.visit
        dist = ws.dist
        pred = ws.pred
        pred_via = ws.pred_via
        # The walk ends at the source's dense index (which first-hop
        # trees seed as a predecessor without ever visiting) or at a
        # point-attachment seed; -3 never matches a dense index.
        src_idx = index[source] if source is not None else -3
        routes: Dict[int, Tuple[List[int], List[int], float]] = {}
        for target in targets:
            idx = index.get(target)
            if idx is None or visit[idx] != epoch:
                continue
            d = dist[idx]
            if d > bound:
                continue
            doors: List[int] = []
            vias: List[int] = []
            node = idx
            while node != src_idx:
                doors.append(ids[node])
                vias.append(pred_via[node])
                prev = pred[node]
                if prev == _POINT:
                    break
                node = prev
            doors.reverse()
            vias.reverse()
            routes[target] = (doors, vias, d)
        return routes

    # ------------------------------------------------------------------
    # Single-source shortest paths
    # ------------------------------------------------------------------
    def dijkstra(self,
                 source: int,
                 banned: Optional[FrozenSet[int]] = None,
                 targets: Optional[Set[int]] = None,
                 bound: float = INF,
                 workspace: Optional[DijkstraWorkspace] = None,
                 banned_partitions: Optional[FrozenSet[int]] = None,
                 ) -> Tuple[Dict[int, float], Dict[int, Tuple[int, int]]]:
        """Shortest distances from door ``source`` to every door.

        Args:
            source: Source door id.
            banned: Doors that may not be visited (the source itself is
                always allowed).  Used for regular-route extensions.
            targets: Early-exit set — the search stops once every
                target has been settled, and does not start at all when
                every target is already settled at entry (e.g.
                ``targets == {source}``).
            bound: Distances beyond this value are not explored.
            workspace: Scratch state to (re)use; defaults to the
                graph-owned single-threaded workspace.
            banned_partitions: Partition ids the path may not traverse
                — no edge through such a partition is relaxed.  The
                dynamic-overlay hook (closed corridors, maintenance
                zones); honored identically by the C and interpreted loops.

        Returns:
            ``(dist, pred)`` where ``pred[d] = (previous door, via
            partition)`` on the shortest path tree.
        """
        src_idx = self._door_index[source]
        if targets is not None:
            target_idx = {self._door_index[t] for t in targets
                          if t in self._door_index}
            target_idx.discard(src_idx)
            if not target_idx:
                # Every target is settled before the first pop; do not
                # explore the graph at all.
                return {source: 0.0}, {}
        else:
            target_idx = None
        ws = workspace or self.workspace
        banned_ids: Iterable[int] = ()
        if banned:
            banned_ids = (did for did in banned if did != source)
        self._run_dijkstra(ws, ((0.0, src_idx, _ROOT, -1),),
                           banned_ids, target_idx, bound,
                           banned_partitions=banned_partitions)
        return self._dist_dict(ws), self._pred_dict(ws)

    def dijkstra_tree(self,
                      source: int,
                      bound: float = INF,
                      workspace: Optional[DijkstraWorkspace] = None,
                      banned: Optional[FrozenSet[int]] = None,
                      banned_partitions: Optional[FrozenSet[int]] = None,
                      ) -> FlatTree:
        """Full single-source shortest-path tree as a :class:`FlatTree`.

        The array-native sibling of :meth:`dijkstra` for callers that
        keep the result (the :class:`DoorMatrix` rows): the workspace
        run is frozen into flat buffers instead of being materialised
        as two dicts.  ``banned`` / ``banned_partitions`` scope the
        tree to a closure overlay; a banned *source* yields an empty
        tree (overlay-scoped matrices never consult such rows — route
        tails are always open doors).
        """
        ws = workspace or self.workspace
        self._run_dijkstra(ws, ((0.0, self._door_index[source], _ROOT, -1),),
                           banned or (), None, bound,
                           banned_partitions=banned_partitions)
        return FlatTree.from_workspace(ws, self)

    def shortest_route(self,
                       source: int,
                       target: int,
                       banned: Optional[FrozenSet[int]] = None,
                       bound: float = INF,
                       first_hop_via: Optional[int] = None,
                       workspace: Optional[DijkstraWorkspace] = None,
                       banned_partitions: Optional[FrozenSet[int]] = None,
                       ) -> Optional[Tuple[List[int], List[int], float]]:
        """Shortest door route from ``source`` to ``target``.

        Returns ``(doors, vias, distance)`` where ``doors`` starts with
        the first door *after* ``source`` and ends with ``target``, and
        ``vias[i]`` is the partition traversed to reach ``doors[i]``.
        ``None`` when unreachable within ``bound``.

        ``first_hop_via`` restricts the first move to leave the given
        partition (the KoE expansion must exit the current partition).
        """
        if first_hop_via is not None:
            return self.multi_target_routes(
                source, first_hop_via, {target}, banned=banned,
                bound=bound, workspace=workspace,
                banned_partitions=banned_partitions).get(target)
        if source == target:
            return [], [], 0.0
        ws = workspace or self.workspace
        src_idx = self._door_index[source]
        tgt_idx = self._door_index[target]
        banned_ids: Iterable[int] = ()
        if banned:
            banned_ids = (did for did in banned if did != source)
        self._run_dijkstra(ws, ((0.0, src_idx, _ROOT, -1),),
                           banned_ids, (tgt_idx,), bound,
                           banned_partitions=banned_partitions)
        routes = self._routes_to(ws, source, (target,), bound)
        return routes.get(target)

    def multi_target_routes(self,
                            source: int,
                            first_via: int,
                            targets: Set[int],
                            banned: Optional[FrozenSet[int]] = None,
                            bound: float = INF,
                            workspace: Optional[DijkstraWorkspace] = None,
                            banned_partitions: Optional[FrozenSet[int]] = None,
                            ) -> Dict[int, Tuple[List[int], List[int], float]]:
        """Shortest first-hop-restricted routes to each target door.

        Used by the keyword-oriented expansion: from the route tail
        ``source`` (an enterable door of partition ``first_via``) find,
        for every enterable door of the next key partition, the
        shortest regular continuation.  Returns a mapping ``target ->
        (doors, vias, distance)`` containing only reachable targets.
        """
        ws = workspace or self.workspace
        index = self._door_index
        src_idx = index[source]
        target_idx = {index[t] for t in targets if t in index}
        target_idx.discard(src_idx)
        self._run_dijkstra(ws, self._first_hop_seeds(source, first_via),
                           banned or (), target_idx, bound, forbid=src_idx,
                           banned_partitions=banned_partitions)
        return self._routes_to(ws, source, targets, bound)

    def routes_from_point(self,
                          p: Point,
                          host_pid: int,
                          targets: Set[int],
                          banned: Optional[FrozenSet[int]] = None,
                          bound: float = INF,
                          workspace: Optional[DijkstraWorkspace] = None,
                          banned_partitions: Optional[FrozenSet[int]] = None,
                          ) -> Dict[int, Tuple[List[int], List[int], float]]:
        """Shortest routes from a free point to each target door.

        The point attaches to the leaveable doors of ``host_pid`` (its
        host partition), mirroring :meth:`multi_target_routes` for the
        initial search stamp whose tail is the start point.
        """
        ws = workspace or self.workspace
        index = self._door_index
        target_idx = {index[t] for t in targets if t in index}
        self._run_dijkstra(ws, self._point_seeds(p, host_pid),
                           banned or (), target_idx, bound,
                           banned_partitions=banned_partitions)
        return self._routes_to(ws, None, targets, bound)

    # ------------------------------------------------------------------
    # Point attachment
    # ------------------------------------------------------------------
    def distances_from_point(self,
                             p: Point,
                             bound: float = INF,
                             workspace: Optional[DijkstraWorkspace] = None,
                             ) -> Dict[int, float]:
        """Shortest indoor distance from point ``p`` to every door.

        The point is attached to the leaveable doors of its host
        partition, then ordinary Dijkstra takes over.
        """
        ws = workspace or self.workspace
        host = self._space.host_partition(p)
        self._run_dijkstra(ws, self._point_seeds(p, host.pid),
                           (), None, bound)
        return self._dist_dict(ws)

    def point_attachment_map(self,
                             p: Point,
                             workspace: Optional[DijkstraWorkspace] = None,
                             banned: Optional[FrozenSet[int]] = None,
                             banned_partitions: Optional[FrozenSet[int]] = None,
                             ) -> Tuple[int, FlatDistMap, FlatPredMap]:
        """The full unbounded point-attachment tree of point ``p``.

        Returns ``(host partition id, dist, pred)`` where ``dist`` /
        ``pred`` are read-only mapping views over one frozen
        :class:`FlatTree` (the ``pred`` view carries ``(None, host)``
        at the attachment doors so :func:`reconstruct_route` walks it
        with ``source=None``).  This is the structure the batched
        ``QueryService`` keeps in its per-endpoint LRU: any
        first-expansion continuation query from ``p`` (empty banned
        set, first hop through the host partition) can be answered
        from it without re-running Dijkstra — and the flat layout
        keeps a cached endpoint at ~24 bytes per door instead of two
        dict entries per reached door.

        ``banned`` / ``banned_partitions`` scope the attachment tree
        to a closure overlay; the caller's cache key must then carry
        the overlay identity (a pre-closure map answers queries the
        closure should have rerouted).
        """
        ws = workspace or self.workspace
        host = self._space.host_partition(p)
        self._run_dijkstra(ws, self._point_seeds(p, host.pid),
                           banned or (), None, INF,
                           banned_partitions=banned_partitions)
        tree = FlatTree.from_workspace(ws, self)
        return host.pid, tree.dist_map(), tree.pred_map()

    def point_to_point_distance(self, ps: Point, pt: Point,
                                bound: float = INF,
                                workspace: Optional[DijkstraWorkspace] = None,
                                ) -> float:
        """Shortest indoor distance between two points (``δs2t``)."""
        space = self._space
        host_s = space.host_partition(ps)
        host_t = space.host_partition(pt)
        best = INF
        if host_s.pid == host_t.pid:
            best = ps.distance_to(pt)
        # Read the workspace arrays directly: only the handful of
        # enterable doors of pt's host partition are consumed, so
        # materialising the full distance dict would be pure churn.
        ws = workspace or self.workspace
        self._run_dijkstra(ws, self._point_seeds(ps, host_s.pid),
                           (), None, min(bound, best))
        index = self._door_index
        epoch = ws.epoch
        visit = ws.visit
        dist = ws.dist
        for dk in space.p2d_enter(host_t.pid):
            idx = index.get(dk)
            if idx is None or visit[idx] != epoch:
                continue
            total = dist[idx] + space.door(dk).position.distance_to(pt)
            if total < best:
                best = total
        return best


class DoorMatrix:
    """All-pairs door-to-door shortest distances and routes.

    This is the precomputed structure behind the KoE* variant (paper
    Section V, Table III) and the query generator's "precomputed
    door-to-door matrix" (Section V-A1).  Eagerness is a deliberate
    engine-level choice, not a property of the matrix:

    * By default rows are computed lazily on first use and cached —
      the right mode when only a few sources are ever queried, and the
      mode under which the paper's observation holds that eager
      all-pairs precomputation on a paper-size venue does not pay off.
    * ``eager=True`` prebuilds every row up front so that query-time
      measurements exclude construction cost; ``IKRQEngine`` defaults
      to this for KoE* (tunable via ``IKRQEngine(door_matrix_eager=…)``)
      because the engine amortises one matrix over many queries.

    ``max_rows`` puts a memory budget on the cache: at most that many
    rows stay resident, evicted in least-recently-used order (the
    ``evictions`` counter feeds the search stats).  Row access is
    thread-safe so a matrix can back concurrent batched queries.

    ``spill_path`` adds a disk tier under the memory budget: evicted
    rows are appended to a per-engine
    :class:`~repro.space.rowcache.RowCacheFile` (the binary snapshot
    v2 row encoding) and transparently faulted back on the next miss —
    three ``frombytes`` memcpys instead of a full Dijkstra run, byte
    identical to the evicted row.  ``spills`` counts rows written,
    ``spill_hits`` rows faulted back, ``spill_misses`` misses that had
    no spilled copy and recomputed; all three surface through
    ``ServiceStats`` and ``/metrics``.

    Rows are stored as :class:`FlatTree` objects — three flat typed
    arrays over dense door indices — instead of the dict-of-dict pairs
    of the original implementation; ``distance`` is one array load and
    ``route`` a dense predecessor walk.  The dict-shaped accessors
    (:meth:`warm_rows` / :meth:`preload_rows`) remain for the JSON
    snapshot format; the binary snapshot v2 packs the arrays directly
    (:meth:`warm_trees` / :meth:`preload_trees`).
    """

    def __init__(self,
                 graph: DoorGraph,
                 eager: bool = False,
                 max_rows: Optional[int] = None,
                 spill_path: Optional[str] = None,
                 banned: Optional[FrozenSet[int]] = None,
                 banned_partitions: Optional[FrozenSet[int]] = None) -> None:
        if max_rows is not None and max_rows < 1:
            raise ValueError("max_rows must be at least 1")
        # Overlay-scoped matrices (non-empty banned sets) must not
        # share a spill file: spilled rows are keyed by source door
        # only, so a row computed under one overlay would be faulted
        # back — silently wrong — under another.  Each overlay gets
        # its own in-memory matrix instead (the engine keys them by
        # overlay identity); refusing here makes the cross-overlay
        # cache-poisoning bug unrepresentable.
        if spill_path is not None and (banned or banned_partitions):
            raise ValueError(
                "overlay-scoped DoorMatrix cannot use a spill file "
                "(spilled rows carry no banned-set identity)")
        self._graph = graph
        self._banned = frozenset(banned) if banned else None
        self._banned_partitions = (frozenset(banned_partitions)
                                   if banned_partitions else None)
        self._rows: "OrderedDict[int, FlatTree]" = OrderedDict()
        self._lock = threading.Lock()
        # Running byte count of the resident rows, kept under the lock
        # as rows enter and leave.  Rows whose ``touched`` is still
        # lazy are counted without it and listed in ``_lazy`` until a
        # derivation is noticed (see :meth:`estimated_bytes`).
        self._bytes = 0
        self._lazy: Dict[int, FlatTree] = {}
        self._derivations_seen = FlatTree.touched_derivations
        self.max_rows = max_rows
        self.evictions = 0
        self.spills = 0
        self.spill_hits = 0
        self.spill_misses = 0
        self._spill = None
        if spill_path is not None:
            from repro.space.rowcache import RowCacheFile
            self._spill = RowCacheFile(graph, spill_path)
        if eager:
            # Under a memory budget, prefill only up to the budget —
            # computing every row just to evict most of them at once
            # would waste nearly all the construction work.
            doors = sorted(graph.space.doors)
            if max_rows is not None:
                doors = doors[:max_rows]
            for did in doors:
                self._row(did)

    def _row(self, source: int) -> FlatTree:
        with self._lock:
            row = self._rows.get(source)
            if row is not None:
                if self.max_rows is not None:
                    self._rows.move_to_end(source)
                return row
        # Fault or compute outside the lock (on the calling thread's
        # workspace) so cache hits on other threads never wait behind
        # disk I/O or a full Dijkstra; a concurrent miss on the same
        # source produces the same row and the first insert wins.
        row = None
        if self._spill is not None:
            row = self._spill.load(source)
            if row is not None:
                with self._lock:
                    self.spill_hits += 1
            else:
                with self._lock:
                    self.spill_misses += 1
        if row is None:
            row = self._graph.dijkstra_tree(
                source, workspace=self._graph.workspace,
                banned=self._banned,
                banned_partitions=self._banned_partitions)
        with self._lock:
            resident = self._rows.get(source)
            if resident is None:
                self._rows[source] = row
                self._count_in(source, row)
            else:
                row = resident
            if self.max_rows is not None:
                self._rows.move_to_end(source)
                evicted = []
                while len(self._rows) > self.max_rows:
                    evicted.append(self._pop_oldest())
                    self.evictions += 1
        if self.max_rows is not None:
            self._spill_evicted(evicted)
        return row

    # The three helpers below run under the matrix lock.
    def _count_in(self, source: int, tree: FlatTree) -> None:
        touched = tree._touched
        self._bytes += tree.buffer_bytes()
        if touched is None:
            self._lazy[source] = tree
        else:
            self._bytes += buffer_nbytes(touched)

    def _count_out(self, source: int, tree: FlatTree) -> None:
        if self._lazy.pop(source, None) is not None:
            self._bytes -= tree.buffer_bytes()
        else:
            self._bytes -= tree.estimated_bytes()

    def _pop_oldest(self) -> Tuple[int, FlatTree]:
        source, tree = self._rows.popitem(last=False)
        self._count_out(source, tree)
        return source, tree

    def _spill_evicted(self, evicted) -> None:
        """Write evicted ``(source, tree)`` pairs to the disk tier.

        Runs outside the matrix lock (rows are immutable, so a late
        duplicate store is a no-op inside the cache file's own lock);
        without a spill tier evicted rows are simply dropped.
        """
        if self._spill is None or not evicted:
            return
        stored = sum(1 for source, tree in evicted
                     if self._spill.store(source, tree))
        if stored:
            with self._lock:
                self.spills += stored

    def distance(self, di: int, dj: int) -> float:
        """Shortest door-to-door distance ``di -> dj`` (INF if unreachable)."""
        return self._row(di).distance(dj)

    def route(self, di: int, dj: int) -> Optional[Tuple[List[int], List[int], float]]:
        """Shortest precomputed route ``di -> dj`` as ``(doors, vias, dist)``.

        The route ignores regularity constraints against any existing
        prefix; KoE* re-computes on the fly when its regularity check
        fails, as the paper prescribes.
        """
        return self._row(di).route_to(dj)

    def num_cached_rows(self) -> int:
        with self._lock:
            return len(self._rows)

    def warm_trees(self, limit: Optional[int] = None) -> "OrderedDict[int, FlatTree]":
        """The resident rows as flat trees (hottest last).

        Returns at most ``limit`` rows, preferring the most recently
        used ones so a snapshot captures the rows live traffic keeps
        hot.  The trees are the cached (immutable) objects themselves.
        """
        with self._lock:
            rows = list(self._rows.items())
        if limit is not None and limit >= 0:
            rows = rows[len(rows) - min(limit, len(rows)):]
        return OrderedDict(rows)

    def warm_rows(self,
                  limit: Optional[int] = None,
                  ) -> Dict[int, Tuple[Dict[int, float], Dict[int, Tuple[int, int]]]]:
        """The resident rows in dict shape (hottest last).

        The JSON (v1) snapshot encoding of :meth:`warm_trees`; derived
        from the flat arrays on demand.
        """
        return {source: (tree.dist_dict(), tree.pred_dict())
                for source, tree in self.warm_trees(limit).items()}

    def preload_trees(self, trees: Mapping[int, FlatTree]) -> None:
        """Adopt previously exported flat rows (snapshot v2 load path).

        Rows beyond ``max_rows`` follow the normal LRU policy; preloads
        do not count as evictions of live traffic, but the displaced
        rows still spill to the disk tier when one is configured (a
        budgeted load of a generously warmed snapshot starts with its
        cold rows on disk instead of gone).
        """
        evicted = []
        with self._lock:
            for source, tree in trees.items():
                replaced = self._rows.get(source)
                if replaced is not None:
                    self._count_out(source, replaced)
                self._rows[source] = tree
                self._count_in(source, tree)
                self._rows.move_to_end(source)
                if self.max_rows is not None:
                    while len(self._rows) > self.max_rows:
                        evicted.append(self._pop_oldest())
        self._spill_evicted(evicted)

    def preload_rows(self,
                     rows: Mapping[int, Tuple[Dict[int, float],
                                              Dict[int, Tuple[int, int]]]],
                     ) -> None:
        """Adopt previously exported dict-shaped rows (snapshot v1)."""
        graph = self._graph
        self.preload_trees(OrderedDict(
            (source, FlatTree.from_dicts(graph, dist, pred))
            for source, (dist, pred) in rows.items()))

    def estimated_bytes(self) -> int:
        """Rough memory footprint of the cached rows (for Fig. 14).

        Equal to the sum of the resident rows' ``estimated_bytes``,
        read from the running count instead of a walk.  A row whose
        ``touched`` was lazy when it entered grows if that list is
        derived later; the lazy rows are re-checked only when the
        process-wide derivation count has moved, so the usual call
        costs one comparison.
        """
        with self._lock:
            derivations = FlatTree.touched_derivations
            if derivations != self._derivations_seen:
                self._derivations_seen = derivations
                for source, tree in list(self._lazy.items()):
                    touched = tree._touched
                    if touched is not None:
                        self._bytes += buffer_nbytes(touched)
                        del self._lazy[source]
            return self._bytes

    @property
    def spill_path(self) -> Optional[str]:
        return self._spill.path if self._spill is not None else None

    def close_spill(self) -> None:
        """Close and delete the disk tier's scratch file (eviction of
        the owning engine; spilled rows are recomputable state)."""
        if self._spill is not None:
            self._spill.close()

    def memory_counters(self) -> Dict[str, int]:
        """The matrix's share of the per-engine memory breakdown.

        Resident bytes are split into heap rows and ``mmap``-backed
        rows (snapshot-mapped warm rows share page cache, they do not
        add to per-process heap); the spill tier reports its on-disk
        rows and bytes.  All counters read under the matrix lock.
        """
        heap = mapped = mapped_rows = 0
        with self._lock:
            rows = len(self._rows)
            for tree in self._rows.values():
                if tree.is_mapped():
                    mapped += tree.estimated_bytes()
                    mapped_rows += 1
                else:
                    heap += tree.estimated_bytes()
            counters = {
                "resident_rows": rows,
                "resident_heap_bytes": heap,
                "resident_mapped_bytes": mapped,
                "resident_mapped_rows": mapped_rows,
                "evictions": self.evictions,
                "spills": self.spills,
                "spill_hits": self.spill_hits,
                "spill_misses": self.spill_misses,
            }
        spill = self._spill
        counters["spilled_rows"] = len(spill) if spill is not None else 0
        counters["spilled_bytes"] = spill.nbytes if spill is not None else 0
        return counters
