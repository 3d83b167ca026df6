"""The retained dict-of-dict reference core (pre-array-native).

Every structure under the IKRQ search loop now runs on flat typed
arrays and bitmasks: CSR Dijkstra with epoch-versioned workspaces and
:class:`~repro.space.graph.FlatTree` results, a flat δs2s skeleton
table, and interned-bitmask keyword matching.  This module *retains*
the dict-based implementations those replaced — dict-adjacency
Dijkstra materialising fresh ``dist``/``pred`` dicts per call, a
nested-list skeleton table, dict door-matrix rows and frozenset
keyword algebra — wired into the same engine interfaces.

It exists for two reasons, both exercised by ``repro.bench scale``:

* **equivalence** — the array-native core must answer byte-identically
  to the dict core on every workload (the tests and the scale bench
  assert full result-signature equality), and
* **measurement** — the scale bench times both cores on the same
  query stream in the same process, so the speedup of the array-native
  layout is measured against a live baseline rather than a historical
  number.

The dict core is *not* a serving configuration; nothing outside the
benches and tests should construct it.
"""

from __future__ import annotations

import heapq
import math
from typing import (Dict, FrozenSet, Iterable, List, Optional, Set, Tuple)

from repro.geometry import Point
from repro.keywords.matching import CandidateEntry, QueryKeywords
from repro.keywords.mappings import KeywordIndex
from repro.keywords.vocabulary import normalize_word
from repro.space.distances import DistanceOracle
from repro.space.graph import DoorGraph, DoorMatrix, reconstruct_route
from repro.space.indoor_space import IndoorSpace
from repro.space.skeleton import SkeletonIndex

INF = math.inf


# ----------------------------------------------------------------------
# Keywords: frozenset algebra
# ----------------------------------------------------------------------
def set_candidate_iword_set(index: KeywordIndex,
                            word: str,
                            tau: float = 0.2) -> List[CandidateEntry]:
    """``κ(wQ)`` by frozenset feature algebra (reference semantics).

    The bitmask implementation in :mod:`repro.keywords.matching` must
    return exactly this list for every input.
    """
    w = normalize_word(word)
    vocab = index.vocabulary
    if vocab.is_iword(w):
        return [CandidateEntry(w, 1.0, True)]
    if not vocab.is_tword(w):
        return []
    direct = index.t2i(w)
    if not direct:
        return []
    union_features: Set[str] = set()
    for wi in direct:
        union_features |= index.i2t(wi)
    entries = [CandidateEntry(wi, 1.0, True) for wi in sorted(direct)]
    for wi in sorted(index.iwords):
        if wi in direct:
            continue
        features = index.i2t(wi)
        if not features:
            continue
        inter = len(features & union_features)
        if inter == 0:
            continue
        union = len(features | union_features)
        score = inter / union
        if score > tau:
            entries.append(CandidateEntry(wi, score, False))
    entries.sort(key=lambda e: (-e.similarity, not e.direct, e.iword))
    return entries


class DictQueryKeywords(QueryKeywords):
    """``QueryKeywords`` evaluated entirely through set algebra.

    ``use_route_masks = False`` keeps contexts built over this class
    on the frozenset word-merge path, so the scale bench measures the
    pre-mask route algebra it retains.
    """

    _candidates = staticmethod(set_candidate_iword_set)
    use_route_masks = False

    def relevance_of_iword_set(self, iwords: Iterable[str]) -> float:
        sims = [0.0] * len(self.words)
        for wi in iwords:
            for qi, s in self.hits_for_iword(wi):
                if s > sims[qi]:
                    sims[qi] = s
        return self.relevance_from_sims(sims)


class _LazyBounds(dict):
    """Dense door index -> bound, each computed on its first read."""

    __slots__ = ("_bound",)

    def __init__(self, bound) -> None:
        super().__init__()
        self._bound = bound

    def __missing__(self, k: int) -> float:
        value = self[k] = self._bound(k)
        return value


# ----------------------------------------------------------------------
# Skeleton: nested-list δs2s table
# ----------------------------------------------------------------------
class DictSkeletonIndex(SkeletonIndex):
    """Skeleton oracle over a nested list-of-lists δs2s table.

    Construction delegates to the flat build (identical arithmetic),
    then mirrors the table into nested rows; queries run the original
    object-chasing loop, including the per-call floor-list rebuild and
    endpoint re-attachment the flat index now caches.
    """

    supports_heads = False

    def __init__(self, space: IndoorSpace) -> None:
        super().__init__(space)
        n = len(self._stair_doors)
        flat = self._s2s
        self._rows: List[List[float]] = [
            [flat[i * n + j] for j in range(n)] for i in range(n)]

    def _stair_doors_for_floor(self, floor: int) -> List[int]:
        return [self._index[did]
                for did in self._space.staircase_doors_on_floor(floor)]

    def lower_bound(self, xi, xj) -> float:
        a = self._position(xi)
        b = self._position(xj)
        if a.floor == b.floor or self._touching_levels(a, b):
            return a.distance_to(b)
        rows_a = self._stair_doors_for_floor(a.floor)
        rows_b = self._stair_doors_for_floor(b.floor)
        if not rows_a or not rows_b:
            return INF
        positions = self._positions
        best = INF
        for ia in rows_a:
            head = a.distance_to(positions[ia])
            if head >= best:
                continue
            row = self._rows[ia]
            for ib in rows_b:
                total = head + row[ib] + positions[ib].distance_to(b)
                if total < best:
                    best = total
        return best

    def door_bounds(self, endpoint, endpoint_is_a, door_ids):
        """The legacy per-door bound, computed on first read of a slot."""
        if endpoint_is_a:
            return _LazyBounds(lambda k: self.lower_bound(endpoint,
                                                          door_ids[k]))
        return _LazyBounds(lambda k: self.lower_bound(door_ids[k],
                                                      endpoint))

    def lower_bound_via_partition(self, xs, pid, xt) -> float:
        space = self._space
        best = INF
        for di in space.p2d_enter(pid):
            head = self.lower_bound(xs, di)
            if head >= best:
                continue
            pos_i = space.door(di).position
            for dj in space.p2d_leave(pid):
                mid = 0.0 if di == dj else pos_i.distance_to(
                    space.door(dj).position)
                total = head + mid + self.lower_bound(dj, xt)
                if total < best:
                    best = total
        return best


# ----------------------------------------------------------------------
# Routing: dict-adjacency Dijkstra
# ----------------------------------------------------------------------
class DictDoorGraph(DoorGraph):
    """Door graph whose shortest-path queries run on dict structures.

    The adjacency is a ``door id -> [(neighbour, via, weight)]`` dict
    (rows copied from the CSR build, preserving edge order so
    equal-distance tie-breaking matches), and every query materialises
    fresh ``dist`` / ``pred`` dicts with a ``(distance, door id)``
    heap — the allocation pattern of the pre-workspace implementation.
    """

    def __init__(self, space: IndoorSpace,
                 oracle: Optional[DistanceOracle] = None) -> None:
        super().__init__(space, oracle)
        self._adj: Dict[int, List[Tuple[int, int, float]]] = {
            did: self.neighbours(did) for did in self._door_ids}

    # -- the dict inner loop -------------------------------------------
    def _dict_run(self,
                  dist: Dict[int, float],
                  pred: Dict[int, Tuple[Optional[int], int]],
                  heap: List[Tuple[float, int]],
                  banned: Set[int],
                  targets: Optional[Set[int]],
                  bound: float,
                  forbid: Optional[int],
                  banned_partitions=None) -> None:
        adj = self._adj
        settled: Set[int] = set()
        remaining = set(targets) if targets is not None else None
        push = heapq.heappush
        pop = heapq.heappop
        bp = banned_partitions
        while heap:
            d, u = pop(heap)
            if u in settled:
                continue
            settled.add(u)
            if remaining is not None and u in remaining:
                remaining.discard(u)
                if not remaining:
                    break
            for v, via, w in adj[u]:
                if v in banned or v in settled or v == forbid:
                    continue
                if bp is not None and via in bp:
                    continue
                nd = d + w
                if nd > bound:
                    continue
                if nd < dist.get(v, INF):
                    dist[v] = nd
                    pred[v] = (u, via)
                    push(heap, (nd, v))

    def _dict_seed(self,
                   dist: Dict[int, float],
                   pred: Dict[int, Tuple[Optional[int], int]],
                   heap: List[Tuple[float, int]],
                   seeds: Iterable[Tuple[float, int, Optional[int], int]],
                   banned: Set[int],
                   bound: float,
                   forbid: Optional[int],
                   banned_partitions=None) -> None:
        bp = banned_partitions
        for w, node, prev, via in seeds:
            if w > bound or node in banned or node == forbid:
                continue
            if bp is not None and via in bp:
                continue
            if w < dist.get(node, INF):
                dist[node] = w
                pred[node] = (prev, via)
                heapq.heappush(heap, (w, node))

    def _dict_routes(self,
                     dist: Dict[int, float],
                     pred: Dict[int, Tuple[Optional[int], int]],
                     source: Optional[int],
                     targets: Iterable[int],
                     bound: float) -> Dict[int, Tuple[List[int], List[int], float]]:
        routes: Dict[int, Tuple[List[int], List[int], float]] = {}
        for target in targets:
            d = dist.get(target)
            if d is None or d > bound:
                continue
            doors, vias = reconstruct_route(pred, source, target)
            routes[target] = (doors, vias, d)
        return routes

    # -- public queries -------------------------------------------------
    def dijkstra(self, source, banned=None, targets=None, bound=INF,
                 workspace=None):
        if targets is not None:
            tset = {t for t in targets if t in self._door_index}
            tset.discard(source)
            if not tset:
                return {source: 0.0}, {}
        else:
            tset = None
        banned_set: Set[int] = set()
        if banned:
            banned_set = {d for d in banned if d != source}
        dist: Dict[int, float] = {source: 0.0}
        pred: Dict[int, Tuple[Optional[int], int]] = {}
        heap: List[Tuple[float, int]] = [(0.0, source)]
        self._dict_run(dist, pred, heap, banned_set, tset, bound, None)
        return dist, pred

    def dijkstra_tree(self, source, bound=INF, workspace=None,
                      banned=None, banned_partitions=None):
        raise NotImplementedError(
            "the dict reference core has no flat-tree results; "
            "use DictDoorMatrix")

    def shortest_route(self, source, target, banned=None, bound=INF,
                       first_hop_via=None, workspace=None):
        if first_hop_via is not None:
            return self.multi_target_routes(
                source, first_hop_via, {target}, banned=banned,
                bound=bound).get(target)
        if source == target:
            return [], [], 0.0
        dist, pred = self.dijkstra(source, banned=banned,
                                   targets={target}, bound=bound)
        routes = self._dict_routes(dist, pred, source, (target,), bound)
        return routes.get(target)

    def multi_target_routes(self, source, first_via, targets, banned=None,
                            bound=INF, workspace=None,
                            banned_partitions=None):
        space = self._space
        index = self._door_index
        tset = {t for t in targets if t in index}
        tset.discard(source)
        src_pos = space.door(source).position
        seeds = [(src_pos.distance_to(space.door(dj).position),
                  dj, source, first_via)
                 for dj in space.p2d_leave(first_via)]
        dist: Dict[int, float] = {}
        pred: Dict[int, Tuple[Optional[int], int]] = {}
        heap: List[Tuple[float, int]] = []
        banned_set = set(banned or ())
        self._dict_seed(dist, pred, heap, seeds, banned_set, bound, source,
                        banned_partitions)
        self._dict_run(dist, pred, heap, banned_set, tset, bound, source,
                       banned_partitions)
        return self._dict_routes(dist, pred, source, targets, bound)

    def _point_run(self, p: Point, host_pid: int,
                   banned: Set[int],
                   targets: Optional[Set[int]],
                   bound: float,
                   banned_partitions=None):
        space = self._space
        seeds = [(p.distance_to(space.door(dj).position),
                  dj, None, host_pid)
                 for dj in space.p2d_leave(host_pid)]
        dist: Dict[int, float] = {}
        pred: Dict[int, Tuple[Optional[int], int]] = {}
        heap: List[Tuple[float, int]] = []
        self._dict_seed(dist, pred, heap, seeds, banned, bound, None,
                        banned_partitions)
        self._dict_run(dist, pred, heap, banned, targets, bound, None,
                       banned_partitions)
        return dist, pred

    def routes_from_point(self, p, host_pid, targets, banned=None,
                          bound=INF, workspace=None,
                          banned_partitions=None):
        index = self._door_index
        tset = {t for t in targets if t in index}
        dist, pred = self._point_run(p, host_pid, set(banned or ()),
                                     tset, bound, banned_partitions)
        return self._dict_routes(dist, pred, None, targets, bound)

    def distances_from_point(self, p, bound=INF, workspace=None):
        host = self._space.host_partition(p)
        dist, _ = self._point_run(p, host.pid, set(), None, bound)
        return dist

    def point_to_point_distance(self, ps, pt, bound=INF, workspace=None):
        space = self._space
        host_s = space.host_partition(ps)
        host_t = space.host_partition(pt)
        best = INF
        if host_s.pid == host_t.pid:
            best = ps.distance_to(pt)
        door_dist = self.distances_from_point(ps, bound=min(bound, best))
        for dk in space.p2d_enter(host_t.pid):
            if dk not in door_dist:
                continue
            total = door_dist[dk] + space.door(dk).position.distance_to(pt)
            if total < best:
                best = total
        return best


class DictDoorMatrix(DoorMatrix):
    """All-pairs matrix whose rows are ``(dist dict, pred dict)`` pairs."""

    def _row(self, source):
        with self._lock:
            row = self._rows.get(source)
            if row is not None:
                if self.max_rows is not None:
                    self._rows.move_to_end(source)
                return row
        row = self._graph.dijkstra(source)
        with self._lock:
            row = self._rows.setdefault(source, row)
            if self.max_rows is not None:
                self._rows.move_to_end(source)
                while len(self._rows) > self.max_rows:
                    self._rows.popitem(last=False)
                    self.evictions += 1
            return row

    def distance(self, di, dj):
        dist, _ = self._row(di)
        return dist.get(dj, INF)

    def route(self, di, dj):
        dist, pred = self._row(di)
        if dj not in dist:
            return None
        doors, vias = reconstruct_route(pred, di, dj)
        return doors, vias, dist[dj]

    def warm_trees(self, limit=None):
        raise NotImplementedError("the dict reference matrix is bench-only")

    def warm_rows(self, limit=None):
        raise NotImplementedError("the dict reference matrix is bench-only")

    def preload_trees(self, trees):
        raise NotImplementedError("the dict reference matrix is bench-only")

    def preload_rows(self, rows):
        raise NotImplementedError("the dict reference matrix is bench-only")

    def estimated_bytes(self):
        total = 0
        with self._lock:
            for dist, pred in self._rows.values():
                total += 64 * len(dist) + 96 * len(pred)
        return total


# ----------------------------------------------------------------------
# Engine assembly
# ----------------------------------------------------------------------
def build_reference_engine(space: IndoorSpace,
                           kindex: KeywordIndex,
                           popularity: Optional[Dict[int, float]] = None,
                           door_matrix_max_rows: Optional[int] = None):
    """An ``IKRQEngine`` running entirely on the dict reference core.

    The KoE* matrix is injected lazily (dict rows); pair queries with
    :func:`reference_context` so keyword conversion also uses the
    set-algebra path.
    """
    from repro.core.engine import IKRQEngine

    oracle = DistanceOracle(space)
    graph = DictDoorGraph(space, oracle)
    skeleton = DictSkeletonIndex(space)
    matrix = DictDoorMatrix(graph, eager=False,
                            max_rows=door_matrix_max_rows)
    engine = IKRQEngine(space, kindex, popularity=popularity,
                        door_matrix_eager=False,
                        door_matrix_max_rows=door_matrix_max_rows,
                        oracle=oracle, graph=graph, skeleton=skeleton,
                        door_matrix=matrix)
    # Pre-array engines kept no per-endpoint lower-bound state outside
    # the batched service: capacity 0 hands every query a fresh map.
    engine.endpoint_lb_capacity = 0
    return engine


def reference_context(engine, query):
    """A query context whose keyword conversion uses the set algebra."""
    return engine.context(
        query, qk=DictQueryKeywords(engine.kindex, query.keywords,
                                    tau=query.tau))
