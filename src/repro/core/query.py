"""IKRQ query objects and the per-query search context.

:class:`IKRQ` is the user-facing query of Problem 1:
``IKRQ(ps, pt, Δ, QW, k)`` plus the ranking trade-off ``α`` and the
similarity threshold ``τ``.

:class:`QueryContext` holds everything a single query evaluation
shares: the indoor space and its distance/graph/skeleton oracles, the
converted query keywords, the key-partition set ``P`` of Algorithm 1,
the route-extension logic (distance, route words, per-keyword
similarities), key-partition sequences ``KP(R)``, ranking scores, and
the global door caches ``Dn`` / ``Df`` of Pruning Rule 2.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.geometry import Point
from repro.keywords.matching import QueryKeywords
from repro.keywords.mappings import KeywordIndex
from repro.space.distances import DistanceOracle
from repro.space.graph import DijkstraWorkspace, DoorGraph, reconstruct_route
from repro.space.indoor_space import IndoorSpace
from repro.space.skeleton import SkeletonIndex
from repro.core.route import Item, Route

INF = math.inf


@dataclass(frozen=True)
class IKRQ:
    """An indoor top-k keyword-aware routing query (Problem 1).

    Attributes:
        ps: Start point.
        pt: Terminal point.
        delta: Distance constraint ``Δ`` (metres).
        keywords: Query keyword list ``QW`` (i-words and/or t-words,
            recognised automatically).
        k: Number of routes requested.
        alpha: Keyword/distance trade-off ``α`` of Equation 1.
        tau: Similarity threshold ``τ`` of Definition 4.
    """

    ps: Point
    pt: Point
    delta: float
    keywords: Tuple[str, ...]
    k: int = 1
    alpha: float = 0.5
    tau: float = 0.2
    #: Soft-constraint slack (paper §VII future work): routes may
    #: exceed Δ by up to ``soft_slack · Δ``; the spatial score of an
    #: overshooting route goes negative, so such routes rank below
    #: every in-budget route of equal relevance.
    soft_slack: float = 0.0
    #: Popularity weight (paper §VII future work): blend a per-route
    #: popularity term into the ranking (see
    #: :meth:`QueryContext.ranking_score`).
    gamma: float = 0.0

    def __post_init__(self) -> None:
        # NaN slips through every range check below (all comparisons
        # are false) and ∞ passes ``delta > 0``: reject both up front.
        for name in ("delta", "alpha", "tau", "soft_slack", "gamma"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be a finite number")
        for p in (self.ps, self.pt):
            if not all(math.isfinite(v) for v in (p.x, p.y, p.level)):
                raise ValueError("query points must have finite coordinates")
        if self.delta <= 0:
            raise ValueError("distance constraint Δ must be positive")
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if not (0.0 <= self.alpha <= 1.0):
            raise ValueError("alpha must be in [0, 1]")
        if not (0.0 <= self.tau <= 1.0):
            raise ValueError("tau must be in [0, 1]")
        if not self.keywords:
            raise ValueError("query keyword list QW must not be empty")
        if self.soft_slack < 0.0:
            raise ValueError("soft_slack must be non-negative")
        if self.gamma < 0.0:
            raise ValueError("gamma must be non-negative")

    @property
    def delta_hard(self) -> float:
        """The hard feasibility bound ``Δ · (1 + soft_slack)``."""
        return self.delta * (1.0 + self.soft_slack)


class QueryContext:
    """Shared per-query state and route algebra.

    One context is built per query evaluation; the space-level oracles
    (graph, skeleton, distance) are typically shared across queries and
    passed in, while the keyword conversion and the pruning caches are
    query-local.
    """

    def __init__(self,
                 space: IndoorSpace,
                 kindex: KeywordIndex,
                 query: IKRQ,
                 graph: Optional[DoorGraph] = None,
                 skeleton: Optional[SkeletonIndex] = None,
                 oracle: Optional[DistanceOracle] = None,
                 popularity: Optional[dict] = None,
                 workspace: Optional[DijkstraWorkspace] = None,
                 qk: Optional[QueryKeywords] = None,
                 closed_doors: FrozenSet[int] = frozenset(),
                 sealed_partitions: FrozenSet[int] = frozenset()) -> None:
        self.space = space
        self.kindex = kindex
        self.query = query
        #: Closure overlay sets (empty without an overlay).  Under an
        #: overlay, ``space`` is the edited view (closed doors/sealed
        #: partitions stripped from the topology mappings) while
        #: ``graph`` stays the original CSR — these sets are what the
        #: continuation provider adds to its banned arguments so the
        #: shared graph routes exactly like the edited one.
        self.closed_doors = closed_doors
        self.sealed_partitions = sealed_partitions
        #: Optional partition-popularity map (values in [0, 1]) used by
        #: the γ-weighted ranking extension.
        self.popularity = popularity or {}
        self.oracle = oracle or DistanceOracle(space)
        self.graph = graph or DoorGraph(space, self.oracle)
        self.skeleton = skeleton or SkeletonIndex(space)
        #: Dijkstra scratch state for every routing call of this query.
        #: Defaults to the graph-owned workspace; batched evaluation
        #: passes one workspace per worker thread instead.
        self.workspace = workspace or self.graph.workspace
        #: Converted query keywords.  ``QueryKeywords`` is immutable
        #: after construction, so a batching layer may share one
        #: instance across queries with identical ``(QW, τ)``.
        self.qk = qk or QueryKeywords(kindex, query.keywords, tau=query.tau)

        self.v_ps: int = space.host_partition(query.ps).pid
        self.v_pt: int = space.host_partition(query.pt).pid

        # Per-call-free copies of the query scalars: these sit under
        # every pruning check, so they are plain attributes rather
        # than forwarding properties.
        self.delta: float = query.delta
        self.delta_hard: float = query.delta_hard
        self.alpha: float = query.alpha
        self.k: int = query.k
        self.num_keywords: int = len(self.qk)
        #: ``|QW| + 1`` — relevance of a fully covered route.
        self.full_relevance: float = self.qk.max_relevance

        #: Partitions covering at least one candidate i-word — used by
        #: key-partition sequences and the Lemma 2 loop check.
        self.keyword_partitions: FrozenSet[int] = self.qk.keyword_partitions

        #: Algorithm 1 line 3: the KoE candidate set ``P`` — keyword
        #: partitions minus ``v(ps)`` plus ``v(pt)``.
        self.key_partition_pool: Set[int] = set(self.keyword_partitions)
        self.key_partition_pool.discard(self.v_ps)
        self.key_partition_pool.add(self.v_pt)

        #: Pruning Rule 2 caches: doors known valid (``Dn``) and doors
        #: pruned for good (``Df``).
        self.doors_valid: Set[int] = set()
        self.doors_pruned: Set[int] = set()

        # Per-door skeleton lower-bound caches (hot path of Rules 1-4).
        self._lb_to_pt: dict = {}
        self._lb_from_ps: dict = {}
        self._door_iwords: dict = {}
        # Interned bitmask mirror of the door i-word sets (-1 marks a
        # door whose words the index cannot intern exactly).  Routes
        # built through this context carry the merged mask
        # (Route.words_mask), so word merges are bitwise; the flag
        # drops to False — for the whole query — the moment any item's
        # mask is inexact, and the frozenset reference path takes over.
        self._door_iword_masks: dict = {}
        self._use_masks = (getattr(self.qk, "use_route_masks", False)
                           and getattr(self.qk, "_mask_exact", False))
        # Endpoint attachment triples for the skeleton's precomputed-
        # heads fast path (array-native index only): ps/pt attach to
        # their floors' staircase doors exactly once per query instead
        # of once per lower-bound call.
        self._use_heads = getattr(self.skeleton, "supports_heads", False)
        self._ps_heads = None
        self._pt_heads = None
        # Optional start-point attachment tree (host pid, dist, pred)
        # shared across queries with the same ps by QueryService.
        self._start_map: Optional[tuple] = None
        # Terminal-side attachment map of pt: per enterable door of
        # v(pt), the straight-line completion cost |d, pt|E used by the
        # connect step's budget pre-check.  Computed lazily per query;
        # QueryService shares one per (ps, pt) endpoint entry.
        self._terminal_attach: Optional[Dict[int, float]] = None

    def share_caches(self,
                     lb_from_ps: Optional[dict] = None,
                     lb_to_pt: Optional[dict] = None,
                     door_iwords: Optional[dict] = None,
                     start_map: Optional[tuple] = None,
                     terminal_attach: Optional[Dict[int, float]] = None,
                     door_iword_masks: Optional[dict] = None) -> None:
        """Adopt caches shared across queries by a batching layer.

        Every shared structure must hold exactly the values this
        context would compute itself (the lower-bound maps are pure in
        ``ps`` / ``pt``, the door i-words are pure in the space and
        keyword index, and the start map is the unbounded
        point-attachment tree of ``ps``) — sharing changes no
        behaviour, it only avoids recomputation.
        """
        if lb_from_ps is not None:
            self._lb_from_ps = lb_from_ps
        if lb_to_pt is not None:
            self._lb_to_pt = lb_to_pt
        if door_iwords is not None:
            self._door_iwords = door_iwords
        if door_iword_masks is not None:
            self._door_iword_masks = door_iword_masks
        if start_map is not None:
            self._start_map = start_map
        if terminal_attach is not None:
            self._terminal_attach = terminal_attach

    def terminal_attachments(self) -> Dict[int, float]:
        """``d -> |d, pt|E`` over the enterable doors of ``v(pt)``.

        These are the connect step's completion targets together with
        the straight-line cost it pre-checks against the distance
        budget before validating the full completion.  The map is pure
        in ``pt`` (and the space), so the batching layer shares one
        instance per endpoint entry instead of recomputing it on every
        covered stamp.
        """
        attach = self._terminal_attach
        if attach is None:
            pt = self.query.pt
            space = self.space
            attach = {door: space.door(door).position.distance_to(pt)
                      for door in space.p2d_enter(self.v_pt)}
            self._terminal_attach = attach
        return attach

    def cached_point_routes(self,
                            p: Point,
                            first_via: int,
                            targets: Set[int],
                            banned: FrozenSet[int],
                            budget: float) -> Optional[dict]:
        """Point continuations served from the shared start map.

        Usable only for the exact case the map captures — the start
        point with an empty banned set, leaving its host partition —
        where the unbounded tree restricted to within-budget targets
        equals a fresh bounded run.  Returns ``None`` otherwise, and
        the caller falls back to the unified Dijkstra.
        """
        cached = self._start_map
        if cached is None or banned:
            return None
        host_pid, dist, pred = cached
        if first_via != host_pid or p != self.query.ps:
            return None
        routes = {}
        for target in targets:
            d = dist.get(target)
            if d is None or d > budget:
                continue
            doors, vias = reconstruct_route(pred, None, target)
            routes[target] = (doors, vias, d)
        return routes

    # ------------------------------------------------------------------
    # Convenience accessors
    # ------------------------------------------------------------------
    def is_keyword_partition(self, pid: int) -> bool:
        """Whether the partition's i-word is a candidate of some query word."""
        return pid in self.keyword_partitions

    # ------------------------------------------------------------------
    # Route words and similarity updates
    # ------------------------------------------------------------------
    def item_iwords(self, item: Item) -> FrozenSet[str]:
        """``PW(v*(x)).wi`` — the i-words an item contributes to RW(R).

        For a door this unions the i-words of every partition one can
        *leave* through it (paper Example 5); for a point it is the
        i-word of the host partition.  Door contributions are cached —
        this sits on the expansion hot path.
        """
        if isinstance(item, int):
            cached = self._door_iwords.get(item)
            if cached is None:
                words: Set[str] = set()
                for pid in self.space.d2p_leave(item):
                    wi = self.kindex.p2i(pid)
                    if wi is not None:
                        words.add(wi)
                cached = frozenset(words)
                self._door_iwords[item] = cached
            return cached
        wi = self.kindex.p2i(self.space.host_partition(item).pid)
        return frozenset({wi}) if wi is not None else frozenset()

    def item_words_and_mask(self, item: Item,
                            ) -> Tuple[FrozenSet[str], Optional[int]]:
        """``item_iwords(item)`` plus its interned bitmask.

        The mask is ``None`` (and the context permanently falls back
        to the frozenset merge path) when any of the item's words is
        unknown to the intern table — the mask would then under-report
        the set and a bitwise subset test could silently drop a word.
        Door masks are cached (engine-wide when shared): like the
        word sets themselves they are pure in the space and keyword
        index.
        """
        words = self.item_iwords(item)
        if not self._use_masks:
            return words, None
        if isinstance(item, int):
            mask = self._door_iword_masks.get(item)
            if mask is None:
                mask = self.kindex.iword_mask(words)
                if mask.bit_count() != len(words):
                    mask = -1
                self._door_iword_masks[item] = mask
        else:
            mask = self.kindex.iword_mask(words)
            if mask.bit_count() != len(words):
                mask = -1
        if mask < 0:
            self._use_masks = False
            return words, None
        return words, mask

    def _merge_words(self,
                     words: FrozenSet[str],
                     sims: Tuple[float, ...],
                     added: FrozenSet[str],
                     route_mask: int = 0,
                     added_mask: Optional[int] = None,
                     ) -> Tuple[FrozenSet[str], Tuple[float, ...], int]:
        """Merge an item's words into a route's ``(words, sims, mask)``.

        With exact masks on both sides the no-new-words case — by far
        the common one on the expansion hot path — is a single bitwise
        subset test, and the new words' similarity hits are looked up
        by interned id (:attr:`QueryKeywords.wid_hits`) instead of
        re-interning strings.  Both paths compute identical words and
        sims; the returned mask is 0 on the reference path.
        """
        if self._use_masks and added_mask is not None:
            merged_mask = route_mask | added_mask
            if merged_mask == route_mask:
                return words, sims, route_mask
            out = list(sims)
            changed = False
            wid_hits = self.qk.wid_hits
            new_mask = added_mask & ~route_mask
            while new_mask:
                low = new_mask & -new_mask
                for qi, s in wid_hits.get(low.bit_length() - 1, ()):
                    if s > out[qi]:
                        out[qi] = s
                        changed = True
                new_mask ^= low
            return (words | added,
                    tuple(out) if changed else sims, merged_mask)
        new = added - words
        if not new:
            return words, sims, 0
        out = list(sims)
        changed = False
        for wi in new:
            for qi, s in self.qk.hits_for_iword(wi):
                if s > out[qi]:
                    out[qi] = s
                    changed = True
        return words | new, tuple(out) if changed else sims, 0

    # ------------------------------------------------------------------
    # Route construction
    # ------------------------------------------------------------------
    def _kp_after(self, route: Route, via: int) -> Tuple[int, ...]:
        """``KP`` of a partial route after one more segment through
        ``via``: keyword partitions enter at first traversal."""
        if (via in self.keyword_partitions and via != self.v_ps
                and via not in route.kp):
            return route.kp + (via,)
        return route.kp

    def start_route(self) -> Route:
        """The initial route ``R0 = (ps)``."""
        ps = self.query.ps
        added, added_mask = self.item_words_and_mask(ps)
        sims = (0.0,) * self.num_keywords
        words, sims, mask = self._merge_words(
            frozenset(), sims, added, 0, added_mask)
        return Route(items=(ps,), vias=(), distance=0.0,
                     words=words, sims=sims, door_counts={},
                     kp=(self.v_ps,), words_mask=mask)

    def extend_to_door(self, route: Route, door: int, via: int) -> Optional[Route]:
        """Append ``door`` to ``route`` through partition ``via``.

        Returns ``None`` when the move is topologically impossible
        (infinite distance).
        """
        tail = route.tail
        if isinstance(tail, int):
            cost = self.oracle.d2d(tail, door, via=via)
        else:
            cost = self.oracle.pt2d(tail, door)
        if cost == INF:
            return None
        added, added_mask = self.item_words_and_mask(door)
        words, sims, mask = self._merge_words(
            route.words, route.sims, added, route.words_mask, added_mask)
        return route.extended(door, via, cost, words, sims,
                              self._kp_after(route, via), new_mask=mask)

    def extend_along_path(self,
                          route: Route,
                          doors: Sequence[int],
                          vias: Sequence[int],
                          total: float) -> Route:
        """Append a precomputed door path (KoE / connect continuations).

        ``total`` is the path length as computed by the door graph; the
        per-segment costs are re-derived from door positions so that
        route distances stay consistent with :meth:`extend_to_door`.
        """
        words, sims = route.words, route.sims
        mask = route.words_mask
        items = route.items
        via_seq = route.vias
        counts = dict(route.door_counts)
        distance = route.distance
        kp = route.kp
        prev = route.tail
        for door, via in zip(doors, vias):
            if isinstance(prev, int):
                # The oracle knows the same-door re-entry cost of the
                # (d, d) loop; plain positions would price it at zero.
                step = self.oracle.d2d(prev, door, via=via)
            else:
                step = self.oracle.pt2d(prev, door)
            distance += step
            added, added_mask = self.item_words_and_mask(door)
            words, sims, mask = self._merge_words(
                words, sims, added, mask, added_mask)
            items = items + (door,)
            via_seq = via_seq + (via,)
            counts[door] = counts.get(door, 0) + 1
            if (via in self.keyword_partitions and via != self.v_ps
                    and via not in kp):
                kp = kp + (via,)
            prev = door
        return Route(items=items, vias=via_seq, distance=distance,
                     words=words, sims=sims, door_counts=counts, kp=kp,
                     words_mask=mask)

    def complete_route(self, route: Route) -> Optional[Route]:
        """Append the terminal point ``pt`` to a route ending at a door
        that enters ``v(pt)`` (or to the bare start route when start
        and terminal share a partition)."""
        pt = self.query.pt
        tail = route.tail
        if isinstance(tail, int):
            cost = self.oracle.d2pt(tail, pt)
        else:
            cost = self.oracle.item_distance(tail, pt)
        if cost == INF:
            return None
        added, added_mask = self.item_words_and_mask(pt)
        words, sims, mask = self._merge_words(
            route.words, route.sims, added, route.words_mask, added_mask)
        return route.extended(pt, self.v_pt, cost, words, sims,
                              route.kp + (self.v_pt,), new_mask=mask)

    # ------------------------------------------------------------------
    # Key partitions and ranking
    # ------------------------------------------------------------------
    def key_partition_sequence(self, route: Route) -> Tuple[int, ...]:
        """``KP(R)``: the sequence of key partitions on a route.

        The start partition always opens the sequence; keyword-covering
        partitions enter at their first traversal; for a complete route
        the terminal partition closes the sequence (paper Section II-B,
        matching Table II).  Routes built through this context carry
        ``KP`` incrementally; :meth:`recompute_key_partitions` derives
        it from scratch (tests assert both agree).
        """
        return route.kp

    def recompute_key_partitions(self, route: Route) -> Tuple[int, ...]:
        """Non-incremental ``KP(R)`` derivation from the via sequence."""
        vias = route.vias
        if not vias:
            return (self.v_ps,)
        body = vias[:-1] if route.is_complete else vias
        kp: List[int] = [self.v_ps]
        seen: Set[int] = {self.v_ps}
        for via in body:
            if via in self.keyword_partitions and via not in seen:
                kp.append(via)
                seen.add(via)
        if route.is_complete:
            kp.append(self.v_pt)
        return tuple(kp)

    def route_popularity(self, route: Route) -> float:
        """Mean popularity of the route's key partitions (in [0, 1]).

        Hallway filler does not count: popularity, like keyword
        relevance, attaches to the places a route *visits for a
        reason* (the paper's future-work sketch ties popularity to
        indoor mobility data over semantic regions).
        """
        if not self.popularity or not route.kp:
            return 0.0
        values = [self.popularity.get(pid, 0.0) for pid in route.kp]
        return sum(values) / len(values)

    def ranking_score(self, route: Route) -> float:
        """``ψ(R)`` of Equation 1 (also defined for partial routes).

        With a soft slack the spatial part can go negative for routes
        exceeding Δ (but within the hard bound).  With ``gamma > 0``
        the γ-weighted popularity term is blended in and the result
        renormalised to keep scores in [−γ', 1].
        """
        return self.score_from_relevance(route, route.relevance)

    def score_from_relevance(self, route: Route, relevance: float) -> float:
        """``ψ(R)`` with an already-computed relevance.

        Callers that need both numbers (stamp construction computes
        relevance anyway) avoid deriving it twice; the arithmetic is
        exactly :meth:`ranking_score`'s.
        """
        alpha = self.alpha
        delta = self.delta
        gamma = self.query.gamma
        keyword_part = relevance / self.full_relevance
        spatial_part = (delta - route.distance) / delta
        psi = alpha * keyword_part + (1 - alpha) * spatial_part
        if gamma > 0.0:
            psi = (psi + gamma * self.route_popularity(route)) / (
                1.0 + gamma)
        return psi

    def upper_bound_score(self, dist_lower_bound: float) -> float:
        """Pruning Rule 4's ``ψU``: keyword part overestimated to 1
        (and popularity to 1 under the γ extension)."""
        alpha = self.alpha
        gamma = self.query.gamma
        upper = alpha + (1 - alpha) * (1.0 - dist_lower_bound / self.delta)
        if gamma > 0.0:
            upper = (upper + gamma) / (1.0 + gamma)
        return upper

    # ------------------------------------------------------------------
    # Lower bounds (pruning rules)
    # ------------------------------------------------------------------
    def _terminal_heads(self):
        heads = self._pt_heads
        if heads is None:
            heads = self._pt_heads = self.skeleton.heads(self.query.pt)
        return heads

    def _start_heads(self):
        heads = self._ps_heads
        if heads is None:
            heads = self._ps_heads = self.skeleton.heads(self.query.ps)
        return heads

    def lb_to_terminal(self, item: Item) -> float:
        """``|x, pt|L`` (cached per door)."""
        skeleton = self.skeleton
        if isinstance(item, int):
            cached = self._lb_to_pt.get(item)
            if cached is None:
                if self._use_heads:
                    cached = skeleton.lower_bound_heads(
                        skeleton.heads(item), self._terminal_heads())
                else:
                    cached = skeleton.lower_bound(item, self.query.pt)
                self._lb_to_pt[item] = cached
            return cached
        if self._use_heads:
            return skeleton.lower_bound_heads(
                skeleton.heads(item), self._terminal_heads())
        return skeleton.lower_bound(item, self.query.pt)

    def lb_from_start(self, item: Item) -> float:
        """``|ps, x|L`` (cached per door)."""
        skeleton = self.skeleton
        if isinstance(item, int):
            cached = self._lb_from_ps.get(item)
            if cached is None:
                if self._use_heads:
                    cached = skeleton.lower_bound_heads(
                        self._start_heads(), skeleton.heads(item))
                else:
                    cached = skeleton.lower_bound(self.query.ps, item)
                self._lb_from_ps[item] = cached
            return cached
        if self._use_heads:
            return skeleton.lower_bound_heads(
                self._start_heads(), skeleton.heads(item))
        return skeleton.lower_bound(self.query.ps, item)

    def prime_door_bounds(self, doors) -> None:
        """Fill the ``|ps, d|L`` / ``|d, pt|L`` caches for ``doors``.

        ToE calls this before testing a partition's leaveable doors.
        With the C lower bound attached, one kernel call per side
        computes every missing cross-floor bound.  The cached values
        are exactly those :meth:`lb_from_start` / :meth:`lb_to_terminal`
        would compute.
        """
        skeleton = self.skeleton
        if not self._use_heads:
            return
        from_ps = self._lb_from_ps
        missing = [door for door in doors if door not in from_ps]
        if missing:
            skeleton.fill_lower_bounds(self._start_heads(), True,
                                       missing, from_ps)
        to_pt = self._lb_to_pt
        missing = [door for door in doors if door not in to_pt]
        if missing:
            skeleton.fill_lower_bounds(self._terminal_heads(), False,
                                       missing, to_pt)

    def lb_via_partition(self, source: Item, pid: int) -> float:
        """``δLB(source, v, pt)`` of Pruning Rule 3 / Alg. 6 line 11."""
        if self._use_heads:
            skeleton = self.skeleton
            if source is self.query.ps:
                hs = self._start_heads()
            else:
                hs = skeleton.heads(source)
            return skeleton.lower_bound_via_partition_heads(
                hs, pid, self._terminal_heads(), space=self.space)
        return self.skeleton.lower_bound_via_partition(
            source, pid, self.query.pt)

    # ------------------------------------------------------------------
    # Stage instrumentation (tracing)
    # ------------------------------------------------------------------
    #: Relaxation-stage entry points: the route-growing work ToE/KoE
    #: relax edges with.  Lower-bound entry points are the Rule 1-4
    #: work.  Same split as the bench's engine-wide breakdown, scoped
    #: to one context so concurrent queries never share a timer.
    _RELAXATION_PROBES = ("extend_to_door", "extend_along_path",
                          "complete_route")
    _LOWER_BOUND_PROBES = ("lb_to_terminal", "lb_from_start",
                           "lb_via_partition", "prime_door_bounds")

    def attach_stage_probe(self, acc: Dict[str, float]) -> None:
        """Wrap this context's stage entry points with wall-clock
        timers accumulating seconds into ``acc["relaxation"]`` /
        ``acc["lower_bound"]``.

        Instance-local: only this context is instrumented, engine- and
        space-level shared objects are untouched, so concurrent
        untraced queries pay nothing.  A shared reentrancy guard keeps
        nested entry points (none today, but the split must stay
        honest under refactors) from double-counting.  The wrappers
        only time — arguments and results pass through unchanged, so
        answers are bit-identical with the probe attached.
        """
        depth = [0]
        perf_counter = time.perf_counter

        def timed(fn, key):
            def wrapper(*args, **kwargs):
                if depth[0]:
                    return fn(*args, **kwargs)
                depth[0] = 1
                started = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    depth[0] = 0
                    acc[key] = acc.get(key, 0.0) + (
                        perf_counter() - started)
            return wrapper

        for name in self._RELAXATION_PROBES:
            setattr(self, name, timed(getattr(self, name), "relaxation"))
        for name in self._LOWER_BOUND_PROBES:
            setattr(self, name, timed(getattr(self, name), "lower_bound"))
