"""The unified IKRQ search framework (Algorithm 1 + Algorithm 5).

The framework drives a priority queue of stamps ordered by ranking
score.  Each iteration pops the best stamp, asks the expansion
strategy (``find`` — topology- or keyword-oriented) for the next valid
stamps, and ``connect``\\ s each of them towards the terminal point:

* a stamp whose partition is ``v(pt)`` is immediately completed (and,
  unlike the paper's pseudo-code but consistent with its worked
  Example 8 and Table II, also kept for further expansion so routes
  may pass *through* the terminal partition),
* a stamp covering all query keywords is completed via the shortest
  regular continuation and not expanded further (additional travel can
  only lower its score),
* anything else goes back into the queue.

Pruning Rules 1–5 are applied inside the strategies and the connect
step; each can be disabled through :class:`SearchConfig` to reproduce
the paper's ablation variants (ToE\\D, ToE\\B, ToE\\P, KoE\\D, KoE\\B,
KoE*).

Shortest *regular* continuations — used by both ``connect`` and the
keyword-oriented expansion — are served by a pluggable
:class:`ContinuationProvider`.  Continuations respect the regularity
principle (no door of the prefix is reused), leave the stamp's current
partition first, and may *start* with the one-hop ``(d, d)`` re-entry
loop, which is the only way out of a dead-end keyword partition.
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.core.prime import PrimeTable
from repro.core.query import QueryContext
from repro.core.results import RouteResult, TopKResults
from repro.core.route import Route
from repro.core.stamp import Stamp
from repro.core.stats import SearchStats

INF = float("inf")

#: A continuation: (door sequence, via sequence, distance).
Continuation = Tuple[List[int], List[int], float]


@dataclass(frozen=True)
class SearchConfig:
    """Feature switches defining an algorithm variant.

    Attributes:
        use_distance_pruning: Pruning Rules 1, 2 and 3 (off in \\D).
        use_kbound_pruning: Pruning Rule 4 (off in \\B).
        use_prime_pruning: Pruning Rule 5, the Lemma 2 loop
            restriction, and result deduplication (off in \\P).
        expand_through_terminal: Keep expanding stamps that reached
            ``v(pt)`` (see module docstring).
        expand_after_coverage: Algorithm 5 stops expanding a stamp once
            it covers every query keyword (extra travel can only lower
            its score, so the heuristic only drops classes that are
            strictly dominated score-wise by the class they extend).
            Set ``True`` for a fully exhaustive search whose result
            multiset matches the naive baseline exactly.
        max_expansions: Optional safety cap on pop iterations; ``None``
            searches exhaustively.  The paper's ToE\\P runs five to six
            orders of magnitude longer than ToE — the cap lets the
            bench harness keep such ablations finite on large venues.
    """

    use_distance_pruning: bool = True
    use_kbound_pruning: bool = True
    use_prime_pruning: bool = True
    expand_through_terminal: bool = True
    expand_after_coverage: bool = False
    max_expansions: Optional[int] = None


class ContinuationProvider:
    """Source of shortest non-loop door continuations.

    ``nonloop`` returns, per target door, the shortest door path from
    ``tail`` whose first segment traverses ``first_via`` and that
    avoids every banned door.  The default implementation runs the
    unified CSR Dijkstra on the fly (reusing the query's workspace, so
    repeated calls allocate no per-node state), bounded by the
    continuation's budget; KoE* substitutes a precomputed matrix.

    A closure overlay (``ctx.closed_doors`` / ``ctx.sealed_partitions``)
    joins the banned arguments here — the route-level ``banned`` set
    keeps its own meaning (doors already on the route).
    """

    def nonloop(self,
                search: "IKRQSearch",
                tail,
                first_via: int,
                targets: Set[int],
                banned: FrozenSet[int],
                budget: float) -> Dict[int, Continuation]:
        ctx = search.ctx
        closed = ctx.closed_doors
        sealed = ctx.sealed_partitions or None
        search.stats.dijkstra_calls += 1
        routes = (ctx.graph.multi_target_routes if isinstance(tail, int)
                  else ctx.graph.routes_from_point)
        return routes(tail, first_via, targets,
                      banned=(banned | closed if closed else banned),
                      bound=budget, workspace=ctx.workspace,
                      banned_partitions=sealed)


class ExpansionStrategy:
    """Interface of the ``find`` step (instantiated by ToE and KoE)."""

    name = "abstract"

    def find(self, search: "IKRQSearch", stamp: Stamp) -> List[Stamp]:
        raise NotImplementedError

    def prepare(self, search: "IKRQSearch") -> None:
        """Hook called once per query before the main loop."""

    def finish(self, search: "IKRQSearch") -> None:
        """Hook called once per query after the main loop."""


class IKRQSearch:
    """One evaluation of an IKRQ query (Algorithm 1).

    Instances are single-use: construct, call :meth:`run`, read
    ``results`` / ``stats``.
    """

    def __init__(self,
                 context: QueryContext,
                 strategy: ExpansionStrategy,
                 config: SearchConfig = SearchConfig(),
                 provider: Optional[ContinuationProvider] = None) -> None:
        self.ctx = context
        self.strategy = strategy
        self.config = config
        self.provider = provider or ContinuationProvider()
        self.prime = PrimeTable()
        self.results = TopKResults(
            context.k, deduplicate=config.use_prime_pruning)
        self.stats = SearchStats()
        self._partitions_ok: Set[int] = set()

    # ------------------------------------------------------------------
    # Stamp helpers shared with the strategies
    # ------------------------------------------------------------------
    def make_stamp(self, partition: int, route: Route) -> Stamp:
        self.stats.stamps_created += 1
        # One relevance derivation feeds both the stamp field and the
        # ranking score (Stamp.of would recompute it).
        relevance = route.relevance
        return Stamp(partition=partition, route=route,
                     distance=route.distance, relevance=relevance,
                     score=self.ctx.score_from_relevance(route, relevance))

    @property
    def kbound(self) -> float:
        if not self.config.use_kbound_pruning:
            return -INF
        return self.results.kbound

    def prime_check(self, stamp: Stamp) -> bool:
        """Pruning Rule 5 (Algorithm 3) on a stamp, variant-aware."""
        if not self.config.use_prime_pruning:
            return True
        # Routes carry KP(R) incrementally (ctx.key_partition_sequence
        # is the same attribute read); stay on the attributes here.
        route = stamp.route
        ok = self.prime.check(route.tail, route.kp, stamp.distance)
        if not ok:
            self.stats.pruned_rule5 += 1
        return ok

    def prime_update(self, stamp: Stamp) -> None:
        """Algorithm 4 on a stamp, variant-aware."""
        if not self.config.use_prime_pruning:
            return
        route = stamp.route
        self.prime.update(route.tail, route.kp, stamp.distance)

    # ------------------------------------------------------------------
    # Partition pruning (Rule 3; ToE's find holds Rule 2)
    # ------------------------------------------------------------------
    def key_partition_pool(self) -> Set[int]:
        """The surviving KoE candidate partitions (Algorithm 1 line 3,
        shrunk in place by Pruning Rule 3)."""
        return self.ctx.key_partition_pool

    def partition_admissible(self, pid: int) -> bool:
        """Pruning Rule 3: drop partitions off every feasible route."""
        ctx = self.ctx
        if pid in self._partitions_ok:
            return True
        if pid not in ctx.key_partition_pool:
            return False
        lower = ctx.lb_via_partition(ctx.query.ps, pid)
        if lower > ctx.delta_hard:
            ctx.key_partition_pool.discard(pid)
            self.stats.pruned_rule3 += 1
            return False
        self._partitions_ok.add(pid)
        return True

    # ------------------------------------------------------------------
    # Regular continuations (shared by connect and KoE)
    # ------------------------------------------------------------------
    def regular_continuations(self,
                              stamp: Stamp,
                              targets: Set[int],
                              budget: float) -> Dict[int, Continuation]:
        """Shortest regular continuations from a stamp to target doors.

        Combines the ordinary first-hop-restricted shortest paths with
        paths that start with the ``(d, d)`` re-entry loop — subject to
        Lemma 2, the loop is only available when the stamp's partition
        covers a query keyword (always, in the \\P ablation).
        """
        ctx = self.ctx
        route = stamp.route
        tail = route.tail
        tail_is_door = isinstance(tail, int)
        banned = frozenset(route.door_counts) - (
            frozenset({tail}) if tail_is_door else frozenset())
        reachable_targets = set(targets) - banned
        if not reachable_targets or budget < 0:
            return {}
        out = self.provider.nonloop(
            self, tail, stamp.partition, reachable_targets, banned, budget)

        if not tail_is_door or not route.may_append_door(tail):
            return out
        loop_allowed = (not self.config.use_prime_pruning
                        or ctx.is_keyword_partition(stamp.partition))
        if not loop_allowed:
            return out
        reentry = ctx.oracle.d2d(tail, tail, via=stamp.partition)
        if reentry == INF or reentry > budget:
            return out
        # The loop itself can be the whole continuation when the tail
        # door also enters a target's partition.
        if tail in reachable_targets:
            cand: Continuation = ([tail], [stamp.partition], reentry)
            best = out.get(tail)
            if best is None or cand[2] < best[2]:
                out[tail] = cand
        for far in ctx.space.d2p_enter(tail) - {stamp.partition}:
            sub = self.provider.nonloop(
                self, tail, far, reachable_targets,
                banned | {tail}, budget - reentry)
            for target, (doors, vias, dist) in sub.items():
                cand = ([tail] + doors, [stamp.partition] + vias,
                        reentry + dist)
                best = out.get(target)
                if best is None or cand[2] < best[2]:
                    out[target] = cand
        return out

    # ------------------------------------------------------------------
    # Completion / result recording
    # ------------------------------------------------------------------
    def _record_complete(self, route: Route) -> None:
        """Validate a complete route and fold it into the top-k set."""
        ctx = self.ctx
        self.stats.complete_routes += 1
        if route.distance > ctx.delta_hard:
            return
        score = ctx.ranking_score(route)
        kp = ctx.key_partition_sequence(route)
        if self.config.use_prime_pruning:
            if not self.prime.check(route.tail, kp, route.distance):
                self.stats.pruned_rule5 += 1
                return
        # The paper additionally gates on ψ(Rf) > kbound.  A shorter
        # homogeneous route must still replace its class entry to keep
        # results prime, so the gate lives inside TopKResults.add
        # (class replacement always happens; new classes simply rank).
        changed = self.results.add(RouteResult(
            route=route, kp=kp, relevance=route.relevance, score=score))
        if changed and self.config.use_prime_pruning:
            self.prime.update(route.tail, kp, route.distance)

    def _connect_directly(self, stamp: Stamp) -> None:
        """Stamp is in ``v(pt)``: append the terminal point."""
        complete = self.ctx.complete_route(stamp.route)
        if complete is not None:
            self._record_complete(complete)

    def _connect_via_shortest(self, stamp: Stamp) -> None:
        """All keywords covered: shortest regular continuation to pt."""
        ctx = self.ctx
        route = stamp.route
        budget = ctx.delta_hard - route.distance
        if budget < 0:
            return
        attach = ctx.terminal_attachments()
        if not attach:
            return
        paths = self.regular_continuations(stamp, set(attach), budget)
        best: Optional[Route] = None
        for target, (doors, vias, dist) in paths.items():
            extra = attach[target]
            if route.distance + dist + extra > ctx.delta_hard:
                continue
            extended = ctx.extend_along_path(route, doors, vias, dist)
            complete = ctx.complete_route(extended)
            if complete is None or complete.distance > ctx.delta_hard:
                continue
            if best is None or complete.distance < best.distance:
                best = complete
        if best is not None:
            self._record_complete(best)

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self) -> List[RouteResult]:
        """Execute the search and return the ranked top-k routes.

        One loop pops stamps and connects (Algorithm 5) what ``find``
        returns.  All of a find's stamps are connected after the find
        returns: a completion may raise the kbound, and ``find`` reads
        it once.  The queue and its counters live in locals for the
        loop and are written back to ``stats`` at the end.
        """
        started = time.perf_counter()
        ctx = self.ctx
        config = self.config
        stats = self.stats
        results = self.results
        self.strategy.prepare(self)

        start_route = ctx.start_route()
        s0 = self.make_stamp(ctx.v_ps, start_route)

        # Trivial completion: start and terminal share a partition.
        if ctx.v_ps == ctx.v_pt:
            direct = ctx.complete_route(start_route)
            if direct is not None:
                self._record_complete(direct)
        # Start already covers every keyword: early connect, matching
        # the heuristic of Algorithm 5 for ordinary stamps.
        if s0.relevance >= ctx.full_relevance:
            self._connect_via_shortest(s0)

        heap: List[Tuple[float, int, Stamp]] = []
        counter = itertools.count()
        heappush = heapq.heappush
        heappop = heapq.heappop
        find = self.strategy.find
        prime_check = self.prime.check
        use_prime = config.use_prime_pruning
        use_kbound = config.use_kbound_pruning
        use_distance = config.use_distance_pruning
        through_terminal = config.expand_through_terminal
        after_coverage = config.expand_after_coverage
        cap = config.max_expansions
        v_pt = ctx.v_pt
        full_relevance = ctx.full_relevance

        heappush(heap, (-s0.score, next(counter), s0))
        live = peak = len(start_route.items)
        max_queue = 1
        popped = connects = pruned_rule4 = pruned_rule5 = 0
        while heap:
            stamp = heappop(heap)[2]
            live -= len(stamp.route.items)
            popped += 1
            if cap is not None and popped > cap:
                break
            if use_kbound:
                remaining = (ctx.lb_to_terminal(stamp.route.tail)
                             if use_distance else 0.0)
                upper = ctx.upper_bound_score(stamp.distance + remaining)
                if upper <= results.kbound:
                    pruned_rule4 += 1
                    continue
            for next_stamp in find(self, stamp):
                # Algorithm 5: a stamp in v(pt) completes and (see the
                # module docstring) stays expandable; one covering
                # every keyword completes via the shortest regular
                # continuation and stops; the rest queue up.
                connects += 1
                if next_stamp.partition == v_pt:
                    self._connect_directly(next_stamp)
                    if not through_terminal:
                        continue
                else:
                    route = next_stamp.route
                    if use_prime and not prime_check(
                            route.tail, route.kp, next_stamp.distance):
                        pruned_rule5 += 1
                        continue
                    if next_stamp.relevance >= full_relevance:
                        self._connect_via_shortest(next_stamp)
                        if not after_coverage:
                            continue
                heappush(heap, (-next_stamp.score, next(counter),
                                next_stamp))
                live += len(next_stamp.route.items)
                if live > peak:
                    peak = live
                if len(heap) > max_queue:
                    max_queue = len(heap)

        stats.stamps_popped += popped
        stats.connects += connects
        stats.pruned_rule4 += pruned_rule4
        stats.pruned_rule5 += pruned_rule5
        stats.live_route_items = live
        stats.peak_route_items = peak
        stats.max_queue_len = max_queue
        self.strategy.finish(self)
        self.stats.prime_table_entries = len(self.prime)
        self.stats.aux_bytes += self.prime.estimated_bytes()
        self.stats.elapsed_seconds = time.perf_counter() - started
        return self.results.top()
