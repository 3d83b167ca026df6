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

Every door of one find is reached through the same partition, so the
via sequence and ``KP`` after the step are computed once per find, and
all the checks above run on the step cost alone: the one-hop route
(:meth:`QueryContext.extend_to_door` is its reference) is built only
for a door that passes them.  A candidate whose ``(door, KP)`` prime
class already records a shorter distance is not built either:
``connect``'s Rule 5 check is certain to reject it (see :meth:`find`),
so only its counts are taken.
"""

from __future__ import annotations

from typing import List

from repro.core.framework import ExpansionStrategy, IKRQSearch
from repro.core.route import Route
from repro.core.stamp import Stamp

INF = float("inf")


class TopologyOrientedExpansion(ExpansionStrategy):
    """The ToE strategy (paper Section IV-C)."""

    name = "ToE"

    def find(self, search: IKRQSearch, stamp: Stamp) -> List[Stamp]:
        """The stamps ``connect`` keeps, from one pass over the doors.

        A candidate stamp through door ``dl`` with distance ``δ`` is
        checked by ``connect`` against the prime record of
        ``(dl, KP)``.  Door-keyed records change only through this
        find's own update for ``dl`` (completions record point-keyed
        classes), so that check reads ``min(record before this find,
        δ)`` and rejects exactly when the earlier record is below
        ``δ``.  Such a candidate (outside ``v(pt)``, where ``connect``
        completes without the check) is counted as created, connected
        and Rule 5-pruned, and never built.
        """
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
        pruned_rule2 = 0
        pruned_distance = 0
        pruned_rule1 = 0
        pruned_rule4 = 0
        rejected_rule5 = 0
        delta_hard = ctx.delta_hard
        use_distance = config.use_distance_pruning
        use_kbound = config.use_kbound_pruning
        use_prime = config.use_prime_pruning
        v_pt = ctx.v_pt

        # What every door of this find shares: the partition crossed,
        # hence the via sequence, KP after the step and the Lemma 2
        # verdict on a (d, d) loop.  The restriction derives from the
        # prime concept, so the \P ablation drops it as well.
        items = route.items
        counts = route.door_counts
        distance = route.distance
        words = route.words
        sims = route.sims
        mask = route.words_mask
        vias = route.vias + (vi,)
        kp = ctx._kp_after(route, vi)
        loop_banned = (tail_is_door and use_prime
                       and not ctx.is_keyword_partition(vi))

        # Bound-method and table hoists for the per-door loop.
        doors_valid = ctx.doors_valid
        doors_pruned = ctx.doors_pruned
        upper_bound_score = ctx.upper_bound_score
        d2p_enter = ctx.space.d2p_enter
        item_words_and_mask = ctx.item_words_and_mask
        merge_words = ctx._merge_words
        score_from_relevance = ctx.score_from_relevance
        d2d = ctx.oracle.d2d
        pt2d = ctx.oracle.pt2d
        prime = search.prime
        if use_distance:
            from_ps, to_pt = ctx.fill_door_bounds()
            door_index = ctx._door_index
        # The kbound cannot improve during one find (results only
        # change in connect), so one read serves the whole door loop.
        kbound = search.kbound if use_kbound else -INF
        leaveable = ctx.space.p2d_leave(vi)
        for dl in leaveable:
            # Regularity (Algorithm 2 line 5): a door already on the
            # route may only be appended as an immediate repetition of
            # the tail, and no door may appear more than twice.
            seen = counts.get(dl)
            if seen is not None and (seen >= 2 or dl != tail):
                pruned_regularity += 1
                continue
            # Pruning Rule 2 with Dn / Df caches (lines 6-10):
            # |ps, dl|L + |dl, pt|L ≤ Δ, decided once per door and query.
            # Valid-first: nearly every check is a repeat hit on Dn.
            if use_distance and dl not in doors_valid:
                if dl in doors_pruned:
                    continue
                at = door_index[dl]
                if from_ps[at] + to_pt[at] > delta_hard:
                    doors_pruned.add(dl)
                    pruned_rule2 += 1
                    continue
                doors_valid.add(dl)
            # Lemma 2 (lines 11-13): the one-hop loop must enter a
            # keyword-covering partition.
            if loop_banned and dl == tail:
                pruned_regularity += 1
                continue
            cost = d2d(tail, dl, vi) if tail_is_door else pt2d(tail, dl)
            if cost == INF:
                continue
            new_distance = distance + cost
            # Plain distance constraint (line 14) — always enforced.
            if new_distance > delta_hard:
                pruned_distance += 1
                continue
            # Pruning Rule 1 (lines 15-16).
            if use_distance:
                lower = new_distance + to_pt[door_index[dl]]
                if lower > delta_hard:
                    pruned_rule1 += 1
                    continue
            else:
                lower = new_distance
            # Pruning Rule 4 (lines 17-18).
            if use_kbound:
                if upper_bound_score(lower) <= kbound:
                    pruned_rule4 += 1
                    continue
            # The partition entered through dl (line 11).  Two-way
            # doors between two partitions give exactly one choice;
            # doors touching more partitions yield one stamp each.
            # (For the (d, d) loop this is the far side of the tail.)
            entered = d2p_enter(dl) - {vi}
            if not entered:
                continue
            # Algorithm 4 on the class, and the verdict connect's Rule 5
            # check will reach (see the docstring).
            rejected = use_prime and not prime.admit(dl, kp, new_distance)
            extended = None
            for vj in entered:
                if rejected and vj != v_pt:
                    rejected_rule5 += 1
                    continue
                if extended is None:
                    added, added_mask = item_words_and_mask(dl)
                    new_words, new_sims, new_mask = merge_words(
                        words, sims, added, mask, added_mask)
                    new_counts = dict(counts)
                    new_counts[dl] = (seen or 0) + 1
                    extended = Route(items + (dl,), vias, new_distance,
                                     new_words, new_sims, new_counts, kp,
                                     new_mask)
                    # A door that adds no new word hands back the
                    # parent's sims, and with them its relevance.
                    relevance = (stamp.relevance if new_sims is sims
                                 else extended.relevance)
                    score = score_from_relevance(extended, relevance)
                found.append(Stamp(vj, extended, new_distance, relevance,
                                   score))
        stats.expansions += len(leaveable)
        stats.pruned_regularity += pruned_regularity
        stats.pruned_rule2 += pruned_rule2
        stats.pruned_distance += pruned_distance
        stats.pruned_rule1 += pruned_rule1
        stats.pruned_rule4 += pruned_rule4
        stats.stamps_created += len(found) + rejected_rule5
        if rejected_rule5:
            stats.connects += rejected_rule5
            stats.pruned_rule5 += rejected_rule5
            prime.checks += rejected_rule5
            prime.rejections += rejected_rule5
        return found
