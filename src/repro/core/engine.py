"""The public IKRQ engine facade, the algorithm registry, and the
batched :class:`QueryService` layer.

:class:`IKRQEngine` bundles an indoor space with its keyword index and
the shared routing oracles (door graph, skeleton index, distance
oracle), and evaluates :class:`~repro.core.query.IKRQ` queries with
any of the paper's algorithms.  :class:`QueryService` sits on top of
one engine and evaluates many queries over the shared immutable
oracles — thread-pool fan-out, per-thread Dijkstra workspaces, and
LRU caches for per-endpoint state that repeats across traffic.

The algorithms:

===========  =====================================================
name          meaning
===========  =====================================================
``ToE``       topology-oriented expansion, all pruning rules
``KoE``       keyword-oriented expansion, all pruning rules
``ToE-D``     ToE without distance Pruning Rules 1–3 (paper ToE\\D)
``ToE-B``     ToE without kbound Pruning Rule 4 (ToE\\B)
``ToE-P``     ToE without prime Pruning Rule 5 (ToE\\P)
``KoE-D``     KoE without distance pruning (KoE\\D)
``KoE-B``     KoE without kbound pruning (KoE\\B)
``KoE*``      KoE with precomputed door-to-door routes
``naive``     exhaustive baseline (ground truth, small venues only)
===========  =====================================================

Paper-style spellings (``ToE\\D`` …) are accepted as aliases.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.dynamic.overlay import ClosureOverlay, apply_closures
from repro.geometry import Point
from repro.keywords.matching import QueryKeywords
from repro.keywords.mappings import KeywordIndex
from repro.space.distances import DistanceOracle
from repro.space.graph import DijkstraWorkspace, DoorGraph, DoorMatrix
from repro.space import kernels
from repro.space.indoor_space import IndoorSpace
from repro.space.skeleton import SkeletonIndex
from repro.core.framework import IKRQSearch, SearchConfig
from repro.core.koe import KeywordOrientedExpansion, KoEStar
from repro.core.naive import NaiveSearch
from repro.core.query import IKRQ, QueryContext
from repro.core.results import RouteResult
from repro.core.stats import SearchStats
from repro.core.toe import TopologyOrientedExpansion

#: Canonical algorithm names, in the paper's Table III order.
ALGORITHMS: Tuple[str, ...] = (
    "ToE", "ToE-D", "ToE-B", "ToE-P",
    "KoE", "KoE-D", "KoE-B", "KoE*",
)

_ALIASES: Dict[str, str] = {
    "toe": "ToE", "koe": "KoE", "koe*": "KoE*", "koestar": "KoE*",
    "toe\\d": "ToE-D", "toe\\b": "ToE-B", "toe\\p": "ToE-P",
    "koe\\d": "KoE-D", "koe\\b": "KoE-B",
    "toe-d": "ToE-D", "toe-b": "ToE-B", "toe-p": "ToE-P",
    "koe-d": "KoE-D", "koe-b": "KoE-B",
    "naive": "naive", "baseline": "naive",
}


def canonical_algorithm(name: str) -> str:
    """Resolve an algorithm name or alias to its canonical form."""
    key = name.strip().lower()
    if key in _ALIASES:
        return _ALIASES[key]
    by_canonical: Dict[str, List[str]] = {}
    for alias, canonical in _ALIASES.items():
        if alias != canonical.lower():
            by_canonical.setdefault(canonical, []).append(alias)
    accepted = ", ".join(
        name + (" (aliases: " + ", ".join(sorted(by_canonical[name])) + ")"
                if by_canonical.get(name) else "")
        for name in ALGORITHMS + ("naive",))
    raise ValueError(
        f"unknown algorithm {name!r}; accepted names: {accepted}")


def config_for(name: str,
               max_expansions: Optional[int] = None,
               exhaustive: bool = False) -> SearchConfig:
    """The :class:`SearchConfig` of a canonical algorithm name.

    ``exhaustive=True`` disables Algorithm 5's stop-after-coverage
    heuristic so the result multiset matches the naive baseline.
    """
    canonical = canonical_algorithm(name)
    return SearchConfig(
        use_distance_pruning=not canonical.endswith("-D"),
        use_kbound_pruning=not canonical.endswith("-B"),
        use_prime_pruning=not canonical.endswith("-P"),
        expand_after_coverage=exhaustive,
        max_expansions=max_expansions,
    )


@dataclass
class QueryAnswer:
    """The outcome of one query evaluation."""

    query: IKRQ
    algorithm: str
    routes: List[RouteResult]
    stats: SearchStats

    @property
    def best(self) -> Optional[RouteResult]:
        return self.routes[0] if self.routes else None

    def scores(self) -> List[float]:
        return [r.score for r in self.routes]

    def distances(self) -> List[float]:
        return [r.distance for r in self.routes]


class OverlayState:
    """Per-overlay derived state held by the engine's overlay LRU.

    One instance exists per distinct :class:`ClosureOverlay` the engine
    has recently served.  It bundles everything whose value depends on
    the overlay's topology edits:

    ``view``
        the physically edited :class:`IndoorSpace` from
        :func:`apply_closures` — same partitions and doors (dense CSR
        indexing preserved), closed doors stripped of their
        enters/leaves, sealed partitions detached from every door.
    ``oracle``
        a fresh :class:`DistanceOracle` over the view.  The oracle's
        d2d/pt2d answers test partition membership, so it cannot be
        shared with the base space; construction is O(1) and its
        caches fill lazily.
    ``door_iwords`` / ``door_iword_masks``
        the per-door keyword caches, keyed by the *view's* p2d sets
        (a sealed partition stops contributing its i-word).
    ``matrix``
        the overlay-scoped KoE* door matrix, built lazily under
        ``matrix_lock``.  Its rows are Dijkstra trees over the *base*
        CSR graph with the overlay's banned sets — byte-identical to
        a matrix built on a rebuilt engine, because the edited space
        yields the same dense door indexing and edge order.
    """

    __slots__ = ("overlay", "view", "oracle", "door_iwords",
                 "door_iword_masks", "matrix", "matrix_lock")

    def __init__(self, overlay: ClosureOverlay, view: IndoorSpace) -> None:
        self.overlay = overlay
        self.view = view
        self.oracle = DistanceOracle(view)
        self.door_iwords: Dict[int, frozenset] = {}
        self.door_iword_masks: Dict[int, int] = {}
        self.matrix: Optional[DoorMatrix] = None
        self.matrix_lock = threading.Lock()


class IKRQEngine:
    """Evaluate IKRQ queries over an indoor space with keywords.

    The engine owns the per-space oracles and shares them across
    queries; the KoE* door matrix is built lazily on first use (its
    construction cost is part of what the paper measures against).

    Example::

        engine = IKRQEngine(space, kindex)
        answer = engine.query(ps, pt, delta=120.0,
                              keywords=["latte", "apple"], k=3)
        for r in answer.routes:
            print(r.score, r.route.describe(space))
    """

    #: Payload bytes backed by a shared ``mmap`` of the engine's
    #: snapshot file (set by ``load_snapshot(..., mmap=True)``); 0 for
    #: engines whose buffers live on the process heap.
    mapped_bytes: int = 0
    #: The mapping object keeping those buffers alive (internal).
    _snapshot_mmap = None

    def __init__(self,
                 space: IndoorSpace,
                 kindex: KeywordIndex,
                 popularity: Optional[Dict[int, float]] = None,
                 door_matrix_eager: bool = True,
                 door_matrix_max_rows: Optional[int] = None,
                 door_matrix_spill_path: Optional[str] = None,
                 *,
                 oracle: Optional[DistanceOracle] = None,
                 graph: Optional[DoorGraph] = None,
                 skeleton: Optional[SkeletonIndex] = None,
                 door_matrix: Optional[DoorMatrix] = None) -> None:
        self.space = space
        self.kindex = kindex
        #: Optional partition-popularity map for the γ-weighted ranking
        #: extension (values in [0, 1]; see IKRQ.gamma).
        self.popularity = popularity or {}
        # Prebuilt oracles may be injected (the serve snapshot loader
        # passes deserialised indexes so workers skip every build); by
        # default each engine builds its own.
        if graph is not None and oracle is None:
            oracle = graph.oracle
        self.oracle = oracle or DistanceOracle(space)
        self.graph = graph or DoorGraph(space, self.oracle)
        self.skeleton = skeleton or SkeletonIndex(space)
        # The C Dijkstra and the C skeleton lower bound are attached
        # whenever ``_kernels.c`` builds on this machine; otherwise the
        # interpreted loops run.  Each pair is bit-identical.  Injected
        # reference indexes (the dict core kept for gating) have no
        # kernel hook.
        if hasattr(self.graph, "set_kernel"):
            self.graph.set_kernel(kernels.native_sssp())
        if hasattr(self.skeleton, "set_kernel"):
            self.skeleton.set_kernel(kernels.native_bounds())
        #: Whether the KoE* door matrix is filled eagerly when first
        #: requested.  The matrix itself defaults to lazy rows (the
        #: mode the paper measures against); the engine defaults to
        #: eager because it amortises one matrix over many queries —
        #: this flag makes that an explicit, documented engine choice.
        self.door_matrix_eager = door_matrix_eager
        #: Optional memory budget: maximum resident matrix rows (LRU).
        self.door_matrix_max_rows = door_matrix_max_rows
        #: Optional disk spill tier under that budget: evicted rows go
        #: to this per-engine row-cache file and fault back on demand.
        self.door_matrix_spill_path = door_matrix_spill_path
        self._matrix: Optional[DoorMatrix] = door_matrix
        self._matrix_lock = threading.Lock()
        #: Engine-wide door -> i-words cache, shared into every query
        #: context.  The values are pure in (space, keyword index) —
        #: exactly what each context would derive itself — so sharing
        #: changes no answer; it only stops sequential traffic from
        #: re-deriving the same frozensets query after query.
        self._door_iwords: Dict[int, frozenset] = {}
        #: Its interned-bitmask mirror (door -> mask, -1 for a door
        #: whose words cannot all be interned) — pure in the same
        #: inputs, backing the route-word masks carried on routes.
        self._door_iword_masks: Dict[int, int] = {}
        #: Engine-wide per-endpoint skeleton lower bounds (the dense
        #: ``|ps, d|L`` / ``|d, pt|L`` arrays of Pruning Rules 1–4, in
        #: one-slot lists the first query context fills), LRU-bounded
        #: by endpoint.  The arrays are pure in the space and the
        #: endpoint — the batched ``QueryService`` shares them per
        #: ``(ps, pt)`` pair; holding them here extends the same exact
        #: reuse to bare sequential ``search`` traffic, which in
        #: practice repeats endpoints (kiosks, app sessions).
        self.endpoint_lb_capacity = 256
        self._lb_from_cache: "OrderedDict[Point, list]" = OrderedDict()
        self._lb_to_cache: "OrderedDict[Point, list]" = OrderedDict()
        self._lb_lock = threading.Lock()
        #: Per-overlay derived state (edited topology view, oracle,
        #: keyword caches, KoE* matrix), LRU-keyed by the overlay's
        #: canonical identity.  Everything topology-dependent lives
        #: here so no cache can serve one overlay's values to another;
        #: the CSR graph, skeleton and endpoint lower-bound LRUs are
        #: shared — they are pure geometry over door positions, which
        #: closures never move.
        self.overlay_cache_capacity = 8
        self._overlay_states: "OrderedDict[tuple, OverlayState]" = OrderedDict()
        self._overlay_lock = threading.Lock()

    def _endpoint_lb(self,
                     table: "OrderedDict[Point, list]",
                     endpoint: Point) -> list:
        with self._lb_lock:
            cached = table.get(endpoint)
            if cached is None:
                cached = table[endpoint] = [None]
            table.move_to_end(endpoint)
            while len(table) > self.endpoint_lb_capacity:
                table.popitem(last=False)
            return cached

    # ------------------------------------------------------------------
    def overlay_state(self, overlay: ClosureOverlay) -> OverlayState:
        """The cached :class:`OverlayState` for ``overlay`` (LRU).

        The edited view is built outside the lock (``apply_closures``
        walks every door once); insertion races resolve to whichever
        state landed first, so concurrent queries under the same
        overlay share one oracle, keyword cache and KoE* matrix.
        """
        key = overlay.key()
        with self._overlay_lock:
            state = self._overlay_states.get(key)
            if state is not None:
                self._overlay_states.move_to_end(key)
                return state
        view = apply_closures(self.space, overlay)
        with self._overlay_lock:
            state = self._overlay_states.get(key)
            if state is None:
                state = self._overlay_states[key] = OverlayState(
                    overlay, view)
            self._overlay_states.move_to_end(key)
            while len(self._overlay_states) > self.overlay_cache_capacity:
                self._overlay_states.popitem(last=False)
            return state

    def _overlay_matrix(self, state: OverlayState) -> DoorMatrix:
        """The overlay-scoped KoE* matrix, built lazily per state.

        Always lazy-row and never spilled: spilled rows carry no
        banned-set identity (the :class:`DoorMatrix` constructor
        rejects that combination), and eager fill would recompute the
        whole matrix for what is typically a short-lived overlay.
        Row values are identical to a rebuilt engine's eager matrix —
        eagerness only changes *when* rows are computed.
        """
        with state.matrix_lock:
            if state.matrix is None:
                state.matrix = DoorMatrix(
                    self.graph,
                    max_rows=self.door_matrix_max_rows,
                    banned=state.overlay.closed_doors,
                    banned_partitions=(state.overlay.sealed_partitions
                                       or None))
            return state.matrix

    def context(self,
                query: IKRQ,
                workspace: Optional[DijkstraWorkspace] = None,
                qk: Optional[QueryKeywords] = None,
                endpoint_caches: bool = True,
                overlay: Optional[ClosureOverlay] = None) -> QueryContext:
        """A fresh per-query context sharing the engine's oracles.

        ``endpoint_caches=False`` skips attaching the engine-level
        per-endpoint lower-bound LRU — the batched ``QueryService``
        passes its own per-``(ps, pt)`` maps instead and must not
        churn (or pollute) the engine's LRU on its hot path.

        A non-empty ``overlay`` swaps in the overlay state's edited
        space view and oracle, carries the closure sets on the context
        (the route expansion unions them into every Dijkstra call),
        and shares the overlay-scoped keyword caches instead of the
        engine-wide ones.  The CSR graph, skeleton and endpoint
        lower-bound maps stay shared: they are pure geometry over door
        positions, which closures never move.
        """
        if overlay is not None and overlay.is_empty:
            overlay = None
        if overlay is None:
            ctx = QueryContext(
                space=self.space,
                kindex=self.kindex,
                query=query,
                graph=self.graph,
                skeleton=self.skeleton,
                oracle=self.oracle,
                popularity=self.popularity,
                workspace=workspace,
                qk=qk,
            )
            ctx.share_caches(door_iwords=self._door_iwords,
                             door_iword_masks=self._door_iword_masks)
        else:
            state = self.overlay_state(overlay)
            ctx = QueryContext(
                space=state.view,
                kindex=self.kindex,
                query=query,
                graph=self.graph,
                skeleton=self.skeleton,
                oracle=state.oracle,
                popularity=self.popularity,
                workspace=workspace,
                qk=qk,
                closed_doors=overlay.closed_doors,
                sealed_partitions=overlay.sealed_partitions,
            )
            ctx.share_caches(door_iwords=state.door_iwords,
                             door_iword_masks=state.door_iword_masks)
        if endpoint_caches:
            ctx.share_caches(
                lb_from_ps=self._endpoint_lb(self._lb_from_cache, query.ps),
                lb_to_pt=self._endpoint_lb(self._lb_to_cache, query.pt))
        return ctx

    @property
    def kernel_backend(self) -> str:
        """``native`` when the graph runs the C Dijkstra, else ``python``."""
        return getattr(self.graph, "kernel_name", "python")

    def kernel_info(self) -> Dict[str, object]:
        """The attached Dijkstra and lower bound, and why the C build
        is unavailable, if so."""
        info = kernels.kernel_info()
        info["active"] = self.kernel_backend
        info["lower_bound"] = getattr(self.skeleton, "kernel_name", "python")
        return info

    def door_matrix(self) -> DoorMatrix:
        """The lazily constructed KoE* door matrix.

        Whether its rows are prebuilt (and how many stay resident) is
        the engine choice configured by ``door_matrix_eager`` /
        ``door_matrix_max_rows``.  Thread-safe: concurrent batched
        queries build the matrix exactly once.
        """
        with self._matrix_lock:
            if self._matrix is None:
                self._matrix = DoorMatrix(
                    self.graph, eager=self.door_matrix_eager,
                    max_rows=self.door_matrix_max_rows,
                    spill_path=self.door_matrix_spill_path)
            return self._matrix

    def keyword_sibling(self, kindex: KeywordIndex) -> "IKRQEngine":
        """An engine over the same topology with a different keyword
        index — the shard workers' keyword-delta variants.

        The heavy immutable indexes (CSR graph, skeleton, distance
        oracle, any already-built KoE* matrix, the mapped snapshot
        buffers) are shared by reference; everything keyword-dependent
        (door i-word caches, overlay states, endpoint LRUs) starts
        fresh.  The spill path deliberately does not carry over: the
        base engine owns that file, and a not-yet-built matrix simply
        builds heap-resident in the sibling.
        """
        sibling = IKRQEngine(
            self.space, kindex, popularity=self.popularity,
            door_matrix_eager=self.door_matrix_eager,
            door_matrix_max_rows=self.door_matrix_max_rows,
            oracle=self.oracle, graph=self.graph, skeleton=self.skeleton,
            door_matrix=self._matrix)
        sibling.mapped_bytes = self.mapped_bytes
        sibling._snapshot_mmap = self._snapshot_mmap
        return sibling

    def memory_breakdown(self) -> Dict[str, int]:
        """Where this engine's index bytes live: heap, mapped, or disk.

        ``heap_bytes`` counts the typed index buffers resident on the
        process heap (CSR graph arrays, the flat δs2s table, heap
        matrix rows); ``mapped_bytes`` counts buffers that are
        ``memoryview`` slices of a shared snapshot mapping — page-cache
        pages every co-hosted process reuses, not per-process memory.
        ``spilled_bytes``/``spilled_rows`` report the matrix's disk
        tier.  Python-object state (the venue model, door-index dicts,
        caches) is deliberately out of scope: it is small next to the
        buffers and identical across load modes.
        """
        from repro.space.graph import buffer_nbytes
        graph = self.graph
        heap = mapped = 0
        buffers = [getattr(graph, name, None)
                   for name in ("_door_ids", "_indptr", "_nbr",
                                "_via", "_wt")]
        buffers.append(getattr(self.skeleton, "_s2s", None))
        for buf in buffers:
            if buf is None:  # dict reference core: no flat buffers
                continue
            if isinstance(buf, memoryview):
                mapped += buffer_nbytes(buf)
            else:
                heap += buffer_nbytes(buf)
        breakdown = {
            "heap_bytes": heap,
            "mapped_bytes": mapped,
            "spilled_bytes": 0,
            "spilled_rows": 0,
            "matrix_resident_rows": 0,
        }
        matrix = self._matrix
        if matrix is not None:
            counters = matrix.memory_counters()
            breakdown["heap_bytes"] += counters["resident_heap_bytes"]
            breakdown["mapped_bytes"] += counters["resident_mapped_bytes"]
            breakdown["spilled_bytes"] = counters["spilled_bytes"]
            breakdown["spilled_rows"] = counters["spilled_rows"]
            breakdown["matrix_resident_rows"] = counters["resident_rows"]
        return breakdown

    # ------------------------------------------------------------------
    def search(self,
               query: IKRQ,
               algorithm: str = "ToE",
               max_expansions: Optional[int] = None,
               config: Optional["SearchConfig"] = None,
               context: Optional[QueryContext] = None,
               overlay=None) -> QueryAnswer:
        """Evaluate ``query`` with the named algorithm.

        ``config`` overrides the name-derived :class:`SearchConfig`
        (the strategy — ToE vs. KoE — still follows the name).
        ``context`` supplies a prebuilt :class:`QueryContext` (the
        batched :class:`QueryService` passes one carrying a per-thread
        workspace and shared caches); it must wrap the same ``query``
        and, when an ``overlay`` is also given, have been built for
        that same overlay.

        ``overlay`` applies a :class:`ClosureOverlay` (or its wire
        ``dict`` form) for this evaluation only: answers are exactly
        those of an engine rebuilt on the physically edited venue
        (``tests/test_dynamic.py`` pins that byte-for-byte).
        """
        canonical = canonical_algorithm(algorithm)
        overlay = ClosureOverlay.from_wire(overlay)
        if overlay is not None and overlay.is_empty:
            overlay = None
        if overlay is not None:
            overlay.validate(self.space)
        ctx = (context if context is not None
               else self.context(query, overlay=overlay))
        if canonical == "naive":
            naive = NaiveSearch(ctx)
            routes = naive.run()
            return QueryAnswer(query, canonical, routes, naive.stats)
        if config is None:
            config = config_for(canonical, max_expansions=max_expansions)
        if canonical.startswith("ToE"):
            strategy = TopologyOrientedExpansion()
        elif canonical == "KoE*":
            if overlay is not None:
                strategy = KoEStar(
                    self._overlay_matrix(self.overlay_state(overlay)))
            else:
                strategy = KoEStar(self.door_matrix())
        else:
            strategy = KeywordOrientedExpansion()
        search = IKRQSearch(ctx, strategy, config)
        routes = search.run()
        return QueryAnswer(query, canonical, routes, search.stats)

    def query(self,
              ps: Point,
              pt: Point,
              delta: float,
              keywords: Sequence[str],
              k: int = 1,
              alpha: float = 0.5,
              tau: float = 0.2,
              algorithm: str = "ToE") -> QueryAnswer:
        """Convenience wrapper building the :class:`IKRQ` inline."""
        ikrq = IKRQ(ps=ps, pt=pt, delta=delta,
                    keywords=tuple(keywords), k=k, alpha=alpha, tau=tau)
        return self.search(ikrq, algorithm=algorithm)


class ServiceStats:
    """Aggregate counters of one :class:`QueryService` instance.

    Counters mutate through :meth:`add` and are read through
    :meth:`snapshot` / :meth:`as_dict`, all under one internal lock, so
    a shard worker reporting stats mid-traffic never observes torn
    state (e.g. cache hits and misses that sum to more than the
    queries served).  Plain attribute reads stay available for
    single-threaded callers and tests.

    ``door_matrix_evictions`` — like the spill-tier trio
    ``door_matrix_spills`` (rows written to the disk tier),
    ``door_matrix_spill_hits`` (rows faulted back instead of
    recomputed) and ``door_matrix_spill_misses`` (misses with no
    spilled copy) — is a gauge, not a counter: it mirrors the
    engine-held KoE* matrix's lifetime count and is filled in by
    :meth:`QueryService.stats_snapshot` (per shard, in the sharded
    server).
    """

    FIELDS: Tuple[str, ...] = (
        "queries_served", "batches",
        "point_map_hits", "point_map_misses",
        "keyword_cache_hits", "keyword_cache_misses",
        "answer_hits", "answer_misses",
        "door_matrix_evictions",
        "door_matrix_spills",
        "door_matrix_spill_hits",
        "door_matrix_spill_misses",
    )

    def __init__(self, **values: int) -> None:
        self._lock = threading.Lock()
        for name in self.FIELDS:
            setattr(self, name, int(values.pop(name, 0)))
        if values:
            raise TypeError(f"unknown stats fields: {sorted(values)}")

    def add(self, **deltas: int) -> None:
        """Atomically apply counter increments."""
        with self._lock:
            for name, delta in deltas.items():
                if name not in self.FIELDS:
                    raise TypeError(f"unknown stats field {name!r}")
                setattr(self, name, getattr(self, name) + delta)

    def snapshot(self) -> "ServiceStats":
        """A consistent point-in-time copy of every counter."""
        with self._lock:
            return ServiceStats(
                **{name: getattr(self, name) for name in self.FIELDS})

    def as_dict(self) -> Dict[str, int]:
        with self._lock:
            return {name: getattr(self, name) for name in self.FIELDS}


class QueryService:
    """Batched IKRQ evaluation over one engine's shared oracles.

    The service is the traffic-facing layer: it answers exactly like
    ``engine.search`` (results are bit-identical — every shared cache
    holds values the per-query evaluation would recompute itself) but
    amortises per-endpoint and per-keyword work across a query stream:

    * ``search_batch`` fans a batch out over a thread pool; the engine
      oracles (graph, skeleton, distance oracle, door matrix) are
      immutable and shared, while each worker thread owns one reusable
      epoch-versioned Dijkstra workspace,
    * an LRU keyed on ``(ps, pt)`` caches per-endpoint state — the
      terminal-side attachment map of ``pt`` used by the connect
      step's completion pre-check, and the dense skeleton lower-bound
      arrays ``|ps, d|L`` / ``|d, pt|L`` of Pruning Rules 1–4,
    * an LRU keyed on ``(QW, τ)`` reuses converted query keywords, and
      one shared door-i-word cache is populated once per space,
    * an answer LRU serves repeated identical ``(query, algorithm)``
      requests without re-searching — sound because the engine is
      deterministic, so the cached answer *is* what a fresh evaluation
      would return (``answer_cache_capacity=0`` disables it; cached
      hits share the original's ``stats`` object).

    Example::

        service = QueryService(engine, workers=4)
        answers = service.search_batch(queries, algorithm="ToE")
    """

    def __init__(self,
                 engine: IKRQEngine,
                 workers: int = 4,
                 point_map_capacity: int = 128,
                 keyword_cache_capacity: int = 512,
                 answer_cache_capacity: int = 1024) -> None:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        if point_map_capacity < 1 or keyword_cache_capacity < 1:
            raise ValueError("cache capacities must be at least 1")
        if answer_cache_capacity < 0:
            raise ValueError("answer_cache_capacity must be non-negative")
        self.engine = engine
        self.workers = workers
        self.point_map_capacity = point_map_capacity
        self.keyword_cache_capacity = keyword_cache_capacity
        self.answer_cache_capacity = answer_cache_capacity
        self.stats = ServiceStats()
        self._tls = threading.local()
        self._lock = threading.Lock()
        #: (ps, pt) -> {"terminal_attach": {door: |door, pt|E},
        #:              "lb_from_ps": [bounds], "lb_to_pt": [bounds]}
        #: where each bounds slot holds the endpoint's dense skeleton
        #: lower bounds (``None`` until the first query fills it).
        self._point_maps: "OrderedDict[Tuple[Point, Point], dict]" = OrderedDict()
        self._keyword_cache: "OrderedDict[Tuple[Tuple[str, ...], float], QueryKeywords]" = OrderedDict()
        self._answer_cache: "OrderedDict[tuple, QueryAnswer]" = OrderedDict()
        # One door -> i-words table per process: the engine already
        # owns the canonical copy (pure in space + keyword index).
        self._door_iwords: dict = engine._door_iwords
        #: Service-lifetime sums of the per-answer ``SearchStats``
        #: counters, accumulated on actual evaluations only (an
        #: answer-cache hit did no search work).  Read by
        #: :meth:`search_counters` for the per-venue ``/metrics``
        #: counters.
        self._search_totals: Dict[str, int] = {
            name: 0 for name in self.SEARCH_COUNTERS}

    #: The ``SearchStats`` picks exported per venue on ``/metrics``.
    SEARCH_COUNTERS: Tuple[str, ...] = (
        "expansions", "connects", "dijkstra_calls",
        "precomputed_hits", "precomputed_misses",
        "matrix_evictions", "pruned_total",
    )

    # ------------------------------------------------------------------
    # Shared state
    # ------------------------------------------------------------------
    def _workspace(self) -> DijkstraWorkspace:
        ws = getattr(self._tls, "workspace", None)
        if ws is None:
            ws = self.engine.graph.new_workspace()
            self._tls.workspace = ws
        return ws

    def _endpoint_entry(self, ps: Point, pt: Point,
                        overlay: Optional[ClosureOverlay] = None) -> dict:
        # The entry key carries the overlay's canonical identity: the
        # terminal attachment map depends on which doors are open, so
        # a closure must never be answered from a pre-closure cached
        # entry (tests/test_dynamic.py pins the regression).
        key = ((ps, pt) if overlay is None
               else (ps, pt, overlay.key()))
        with self._lock:
            entry = self._point_maps.get(key)
            if entry is not None:
                self._point_maps.move_to_end(key)
                self.stats.add(point_map_hits=1)
                return entry
            self.stats.add(point_map_misses=1)
        # Compute outside the lock (a concurrent miss on the same key
        # computes the same values; last write wins harmlessly).
        space = (self.engine.space if overlay is None
                 else self.engine.overlay_state(overlay).view)
        v_pt = space.host_partition(pt).pid
        terminal_attach = {door: space.door(door).position.distance_to(pt)
                           for door in space.p2d_enter(v_pt)}
        entry = {"terminal_attach": terminal_attach,
                 "lb_from_ps": [None], "lb_to_pt": [None]}
        with self._lock:
            entry = self._point_maps.setdefault(key, entry)
            self._point_maps.move_to_end(key)
            while len(self._point_maps) > self.point_map_capacity:
                self._point_maps.popitem(last=False)
        return entry

    def _query_keywords(self, query: IKRQ) -> QueryKeywords:
        key = (query.keywords, query.tau)
        with self._lock:
            qk = self._keyword_cache.get(key)
            if qk is not None:
                self._keyword_cache.move_to_end(key)
                self.stats.add(keyword_cache_hits=1)
                return qk
            self.stats.add(keyword_cache_misses=1)
        qk = QueryKeywords(self.engine.kindex, query.keywords, tau=query.tau)
        with self._lock:
            qk = self._keyword_cache.setdefault(key, qk)
            self._keyword_cache.move_to_end(key)
            while len(self._keyword_cache) > self.keyword_cache_capacity:
                self._keyword_cache.popitem(last=False)
        return qk

    def stats_snapshot(self) -> ServiceStats:
        """An atomic copy of the counters, matrix gauge included.

        This is what a shard worker reports: every counter is copied
        under one lock (no torn reads across fields) and the
        ``door_matrix_evictions`` gauge reflects the engine-held KoE*
        matrix at snapshot time (0 when the matrix was never built).
        """
        snap = self.stats.snapshot()
        matrix = self.engine._matrix
        if matrix is not None:
            snap.door_matrix_evictions = matrix.evictions
            snap.door_matrix_spills = matrix.spills
            snap.door_matrix_spill_hits = matrix.spill_hits
            snap.door_matrix_spill_misses = matrix.spill_misses
        return snap

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def search(self,
               query: IKRQ,
               algorithm: str = "ToE",
               max_expansions: Optional[int] = None,
               config: Optional[SearchConfig] = None,
               *,
               overlay=None,
               trace=None) -> QueryAnswer:
        """Evaluate one query through the service's shared caches.

        ``overlay`` applies a :class:`ClosureOverlay` (or its wire
        ``dict`` form) for this evaluation: the answer cache and the
        per-endpoint entry are keyed by the overlay's canonical
        identity, so overlaid and plain traffic interleave freely
        without either ever seeing the other's cached state.

        ``trace`` is an optional :class:`repro.obs.EngineTrace`: the
        evaluation annotates it with the answer-cache outcome and the
        ``SearchStats`` cache/pruning picks, and — when ``trace.fine``
        — attaches the context's stage probe so the engine span splits
        into relaxation / lower-bound / merge.  Tracing only observes:
        the evaluation path and its answers are identical with or
        without it.
        """
        overlay = ClosureOverlay.from_wire(overlay)
        if overlay is not None and overlay.is_empty:
            overlay = None
        if overlay is not None:
            overlay.validate(self.engine.space)
        cache_key = None
        if self.answer_cache_capacity:
            cache_key = (query, canonical_algorithm(algorithm),
                         max_expansions, config,
                         None if overlay is None else overlay.key())
            with self._lock:
                cached = self._answer_cache.get(cache_key)
                if cached is not None:
                    self._answer_cache.move_to_end(cache_key)
                    self.stats.add(answer_hits=1, queries_served=1)
                    if trace is not None:
                        trace.annotate(answer_cache="hit")
                    return cached
                self.stats.add(answer_misses=1)
        ctx = self.engine.context(
            query, workspace=self._workspace(),
            qk=self._query_keywords(query), endpoint_caches=False,
            overlay=overlay)
        entry = self._endpoint_entry(query.ps, query.pt, overlay)
        ctx.share_caches(
            lb_from_ps=entry["lb_from_ps"],
            lb_to_pt=entry["lb_to_pt"],
            terminal_attach=entry["terminal_attach"])
        if overlay is None:
            # Under an overlay the context already shares the overlay
            # state's door-word caches; the engine-wide table belongs
            # to the base topology only.
            ctx.share_caches(door_iwords=self._door_iwords)
        if trace is not None and trace.fine:
            ctx.attach_stage_probe(trace.stages)
        answer = self.engine.search(
            query, algorithm, max_expansions=max_expansions,
            config=config, context=ctx, overlay=overlay)
        self.stats.add(queries_served=1)
        counters = self._stats_picks(answer.stats)
        with self._lock:
            totals = self._search_totals
            for name, value in counters.items():
                totals[name] += value
            if cache_key is not None:
                self._answer_cache[cache_key] = answer
                self._answer_cache.move_to_end(cache_key)
                while len(self._answer_cache) > self.answer_cache_capacity:
                    self._answer_cache.popitem(last=False)
        if trace is not None:
            trace.annotate(
                answer_cache="miss" if cache_key is not None else "off",
                **counters)
        return answer

    @classmethod
    def _stats_picks(cls, stats: SearchStats) -> Dict[str, int]:
        """The exported counter picks of one answer's ``SearchStats``."""
        return {name: (stats.total_pruned if name == "pruned_total"
                       else getattr(stats, name))
                for name in cls.SEARCH_COUNTERS}

    def search_counters(self) -> Dict[str, int]:
        """Service-lifetime ``SearchStats`` sums (per-venue counters
        on ``/metrics``)."""
        with self._lock:
            return dict(self._search_totals)

    def search_batch(self,
                     queries: Iterable[IKRQ],
                     algorithm: str = "ToE",
                     workers: Optional[int] = None,
                     max_expansions: Optional[int] = None,
                     config: Optional[SearchConfig] = None,
                     timings: Optional[List[float]] = None,
                     overlay=None,
                     ) -> List[QueryAnswer]:
        """Evaluate many queries, preserving input order.

        ``workers`` overrides the service default; with one worker (or
        a single query) the batch runs inline on the calling thread,
        still benefiting from the shared caches.  ``timings``, when
        given, receives one per-query wall-clock duration (seconds)
        per evaluation, in completion order — the benches derive their
        latency percentiles from it.  ``overlay`` applies one
        :class:`ClosureOverlay` to every query in the batch.
        """
        batch = list(queries)
        pool_size = self.workers if workers is None else workers
        if pool_size < 1:
            raise ValueError("workers must be at least 1")
        self.stats.add(batches=1)
        if timings is None:
            evaluate = lambda q: self.search(  # noqa: E731
                q, algorithm, max_expansions, config, overlay=overlay)
        else:
            def evaluate(q: IKRQ) -> QueryAnswer:
                started = time.perf_counter()
                answer = self.search(q, algorithm, max_expansions, config,
                                     overlay=overlay)
                timings.append(time.perf_counter() - started)
                return answer
        if pool_size == 1 or len(batch) <= 1:
            return [evaluate(q) for q in batch]
        with ThreadPoolExecutor(max_workers=pool_size,
                                thread_name_prefix="ikrq") as pool:
            return list(pool.map(evaluate, batch))
