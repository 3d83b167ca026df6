"""Topology-oriented expansion — ``ToE_find`` (Algorithm 2).

ToE expands a stamp to every admissible leaveable door of its current
partition, one hop at a time.  The checks, in the paper's order:

1. Pruning Rule 5 on the popped stamp (prime check),
2. per-door regularity (a visited door may only repeat at the tail,
   and never a third time),
3. Pruning Rule 2 with the ``Dn`` / ``Df`` caches,
4. the Lemma 2 loop restriction (a ``(d, d)`` loop must enter a
   partition that covers a query keyword),
5. the plain distance constraint, then Pruning Rule 1 with the
   skeleton lower bound, then Pruning Rule 4 with the kbound.

Valid expansions are recorded in the prime table and handed back to
the framework for ``connect``.
"""

from __future__ import annotations

from typing import List

from repro.core.framework import ExpansionStrategy, IKRQSearch
from repro.core.stamp import Stamp

INF = float("inf")


class TopologyOrientedExpansion(ExpansionStrategy):
    """The ToE strategy (paper Section IV-C)."""

    name = "ToE"

    def find(self, search: IKRQSearch, stamp: Stamp) -> List[Stamp]:
        ctx = search.ctx
        config = search.config
        stats = search.stats
        found: List[Stamp] = []

        route = stamp.route
        vi = stamp.partition
        tail = route.tail  # door id, or the start point for S0

        if not search.prime_check(stamp):
            return found

        tail_is_door = isinstance(tail, int)
        # Stat counters batch in locals — attribute stores per door
        # would dominate the per-door work on large partitions.
        pruned_regularity = 0
        pruned_distance = 0
        pruned_rule1 = 0
        pruned_rule4 = 0
        delta_hard = ctx.delta_hard
        use_distance = config.use_distance_pruning
        use_kbound = config.use_kbound_pruning
        # Bound-method hoists for the per-door loop.
        contains_door = route.contains_door
        may_append_door = route.may_append_door
        door_admissible = search.door_admissible
        extend_to_door = ctx.extend_to_door
        lb_to_terminal = ctx.lb_to_terminal
        upper_bound_score = ctx.upper_bound_score
        d2p_enter = ctx.space.d2p_enter
        make_stamp = search.make_stamp
        prime_update = search.prime_update
        # The kbound cannot improve during one find (results only
        # change in connect), so one read serves the whole door loop.
        kbound = search.kbound if use_kbound else -INF
        leaveable = ctx.space.p2d_leave(vi)
        expansions = len(leaveable)
        if use_distance:
            # Rules 1 and 2 read both skeleton bounds of nearly every
            # leaveable door: compute the missing ones in one batch.
            ctx.prime_door_bounds(leaveable)
        for dl in leaveable:
            # Regularity (Algorithm 2 line 5): a door already on the
            # route may only be appended as an immediate repetition of
            # the tail, and no door may appear more than twice.
            if contains_door(dl) and not may_append_door(dl):
                pruned_regularity += 1
                continue
            # Pruning Rule 2 with Dn / Df caches (lines 6-10).
            if not door_admissible(dl):
                continue
            # Lemma 2 (lines 11-13): the one-hop loop must enter a
            # keyword-covering partition.  The restriction derives from
            # the prime concept, so the \P ablation drops it as well.
            if (tail_is_door and dl == tail
                    and config.use_prime_pruning
                    and not ctx.is_keyword_partition(vi)):
                pruned_regularity += 1
                continue
            extended = extend_to_door(route, dl, via=vi)
            if extended is None:
                continue
            # Plain distance constraint (line 14) — always enforced.
            if extended.distance > delta_hard:
                pruned_distance += 1
                continue
            # Pruning Rule 1 (lines 15-16).
            if use_distance:
                lower = extended.distance + lb_to_terminal(dl)
                if lower > delta_hard:
                    pruned_rule1 += 1
                    continue
            else:
                lower = extended.distance
            # Pruning Rule 4 (lines 17-18).
            if use_kbound:
                if upper_bound_score(lower) <= kbound:
                    pruned_rule4 += 1
                    continue
            # The partition entered through dl (line 11).  Two-way
            # doors between two partitions give exactly one choice;
            # doors touching more partitions yield one stamp each.
            # (For the (d, d) loop this is the far side of the tail.)
            for vj in d2p_enter(dl) - {vi}:
                next_stamp = make_stamp(vj, extended)
                prime_update(next_stamp)
                found.append(next_stamp)
        stats.expansions += expansions
        stats.pruned_regularity += pruned_regularity
        stats.pruned_distance += pruned_distance
        stats.pruned_rule1 += pruned_rule1
        stats.pruned_rule4 += pruned_rule4
        return found
